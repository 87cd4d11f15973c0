package query

import (
	"math/rand"
	"testing"

	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/sel"
	shapes "lwcomp/internal/workload"
)

// TestSumSelMatchesDecode is the selection sum's differential test:
// over every form the analyzer can pick and the hand-forced ones it
// rarely does, SumSel equals the masked sum of the decoded column for
// selections from empty to full, at a word-aligned and an unaligned
// row offset, with bits set outside the form's rows that it must
// ignore; and it refuses a selection too short for the form.
func TestSumSelMatchesDecode(t *testing.T) {
	const n = 3000 // 46 full words and a partial one
	forced := map[string]func(*testing.T, []int64) (*core.Form, error){
		"vns": compressor(scheme.VNS{}),
		// Mini-blocks of 100 rows end mid-word: a full 64-row group and
		// a partial one of 36 rows in each, at each block's own width.
		"vns(block=100)": compressor(scheme.VNS{Block: 100}),
		// Plain payloads at the widths the masked kernels sum.
		"ns(width=3)":  nsAtWidth(3),
		"ns(width=10)": nsAtWidth(10),
		"ns(width=16)": nsAtWidth(16),
		"rle∘delta":    compressor(scheme.RLEDeltaComposite()),
		"dict":         compressor(scheme.DictComposite()),
		"plus(const)": func(t *testing.T, col []int64) (*core.Form, error) {
			return plusConst(t, col), nil
		},
		"plus(step)": func(t *testing.T, col []int64) (*core.Form, error) {
			return plusStep(t, col), nil
		},
	}
	for _, alias := range []string{"pfor", "stepns", "linearns", "poly2ns", "plinearns"} {
		s, err := scheme.Parse(alias)
		if err != nil {
			t.Fatal(err)
		}
		forced[alias] = compressor(s)
	}

	rng := rand.New(rand.NewSource(27))
	for _, sh := range shapes.MaintainShapes(n, 5) {
		encoders := map[string]func(*testing.T, []int64) (*core.Form, error){}
		for name, enc := range forced {
			encoders[name] = enc
		}
		st := core.CollectStats(sh.Data, nil)
		for _, c := range scheme.DefaultCandidates(&st) {
			encoders[c.Name()] = func(_ *testing.T, col []int64) (*core.Form, error) { return c.Compress(col) }
		}
		for name, enc := range encoders {
			f, err := enc(t, sh.Data)
			if err != nil {
				continue // the candidate cannot represent this shape
			}
			col, err := core.Decompress(f)
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", sh.Name, name, err)
			}
			for _, base := range []int{0, 70} {
				for _, pick := range selections(rng, n) {
					bm := sel.New(base + n + 100)
					bm.AddRun(0, base) // rows before and after the form's
					bm.AddRun(base+n+30, 50)
					var want int64
					for r := range n {
						if pick.rows(r) {
							bm.Add(base + r)
							want += col[r]
						}
					}
					got, err := SumSel(f, bm, base)
					if err != nil || got != want {
						t.Fatalf("%s/%s (%s), %s selection at base %d: SumSel = %d, %v; want %d",
							sh.Name, name, f.Describe(), pick.name, base, got, err, want)
					}
				}
			}
		}
	}
	// A selection too short for the form's rows at base is an error,
	// not a panic.
	short := sel.New(4)
	for _, base := range []int{-1, 2} {
		if _, err := SumSel(scheme.NewIDForm([]int64{1, 2, 3}), short, base); err == nil {
			t.Errorf("SumSel of 3 rows at base %d of a 4-row selection: no error", base)
		}
	}
}

func compressor(s core.Scheme) func(*testing.T, []int64) (*core.Form, error) {
	return func(_ *testing.T, col []int64) (*core.Form, error) { return s.Compress(col) }
}

// nsAtWidth returns an encoder that packs the column's low w bits with
// NS, one value raised to 2^w-1 so that the width is exactly w.
func nsAtWidth(w uint) func(*testing.T, []int64) (*core.Form, error) {
	return func(t *testing.T, col []int64) (*core.Form, error) {
		vals := make([]int64, len(col))
		for i, v := range col {
			vals[i] = v & (1<<w - 1)
		}
		vals[len(vals)/2] = 1<<w - 1
		f, err := scheme.NS{}.Compress(vals)
		if err == nil && f.Params["width"] != int64(w) {
			t.Fatalf("ns at width %d: packed at %d", w, f.Params["width"])
		}
		return f, err
	}
}

// selection is one named choice of the rows of an n-row form.
type selection struct {
	name string
	rows func(r int) bool
}

// selections returns the selections the differential test runs: the
// edge shapes and three random densities.
func selections(rng *rand.Rand, n int) []selection {
	random := func(p float64) func(int) bool {
		pick := make([]bool, n)
		for r := range pick {
			pick[r] = rng.Float64() < p
		}
		return func(r int) bool { return pick[r] }
	}
	return []selection{
		{"empty", func(int) bool { return false }},
		{"full", func(int) bool { return true }},
		{"single", func(r int) bool { return r == n/3 }},
		{"first-and-last", func(r int) bool { return r == 0 || r == n-1 }},
		{"partial-last-word", func(r int) bool { return r >= n-n%64 }},
		{"1%", random(0.01)},
		{"50%", random(0.5)},
		{"99%", random(0.99)},
	}
}
