package query

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/sel"
)

// runColumn returns a column of nruns runs of 1 to maxLen rows each:
// sorted run values climb by 1 to 3 (a ship-date column), unsorted ones
// are drawn from [-500, 500) and may repeat a few runs apart.
func runColumn(rng *rand.Rand, nruns, maxLen int, sorted bool) []int64 {
	var col []int64
	v := int64(730120)
	for range nruns {
		if sorted {
			v += 1 + rng.Int63n(3)
		} else {
			for prev := v; v == prev; {
				v = rng.Int63n(1000) - 500
			}
		}
		for range 1 + rng.Intn(maxLen) {
			col = append(col, v)
		}
	}
	return col
}

// TestRLERuleMatchesDecode: the run-length rule — the range pushed down
// the values child, the lengths only summed — answers count, select,
// keep and sum as decode-then-filter does, over sorted and unsorted run
// values, for ranges that match nothing, one run, every run, and ones
// that straddle run values, with runs spanning several 64-run groups.
// It never decodes a child that has a rule.
func TestRLERuleMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	s := core.GetScratch()
	defer s.Release()
	for _, shape := range []struct {
		name   string
		nruns  int
		sorted bool
	}{
		{"sorted", 300, true},
		{"unsorted", 300, false},
		{"one run", 1, true},
		{"one group", 40, false},
	} {
		col := runColumn(rng, shape.nruns, 40, shape.sorted)
		lo, hi := slices.Min(col), slices.Max(col)
		mid := col[len(col)/2]
		bounds := []int64{math.MinInt64, lo - 1, lo, lo + 1, mid - 1, mid, mid + 1,
			(lo + hi) / 2, hi - 1, hi, hi + 1, math.MaxInt64}
		for _, enc := range []struct {
			name string
			s    core.Scheme
		}{
			{"rle(ns, ns)", scheme.RLEComposite()},
			{"rle(ns, delta)", scheme.RLEDeltaComposite()},
			{"rle(ns, vns)", core.Compose(scheme.RLE{}, map[string]core.Scheme{
				"lengths": scheme.NS{}, "values": scheme.VNS{Block: 24},
			})},
		} {
			name := shape.name + "/" + enc.name
			f, err := enc.s.Compress(col)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, a := range bounds {
				for _, b := range bounds {
					if m, _ := checkRange(t, name, f, col, a, b, s); m {
						t.Fatalf("%s [%d, %d]: count materialised a child", name, a, b)
					}
				}
			}
		}
	}
}

// TestRLERuleRefusesCorruptForms: a run-length form whose packed
// children disagree — fewer values than runs, lengths that fall short
// of N, run past it, are negative, or add up past int64 — is refused
// with ErrCorruptForm by every verb the rule serves, for a range that
// matches and for one that matches nothing, as decode refuses it.
func TestRLERuleRefusesCorruptForms(t *testing.T) {
	ns := func(col ...int64) *core.Form {
		f, err := scheme.NS{}.Compress(col)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	rle := func(n int, lengths, values *core.Form) *core.Form {
		return &core.Form{Scheme: scheme.RLEName, N: n,
			Children: map[string]*core.Form{"lengths": lengths, "values": values}}
	}
	for _, tc := range []struct {
		name string
		f    *core.Form
	}{
		{"short values", rle(10, ns(4, 6), ns(7))},
		{"lengths short of n", rle(10, ns(4, 5), ns(7, 8))},
		{"lengths past n", rle(10, ns(4, 7), ns(7, 8))},
		{"negative length", rle(10, ns(12, -2), ns(7, 8))},
		{"lengths wrap int64", rle(10, ns(math.MaxInt64, math.MaxInt64, 12), ns(7, 8, 9))},
	} {
		if _, err := core.Decompress(tc.f); !errors.Is(err, core.ErrCorruptForm) {
			t.Errorf("%s: Decompress: err = %v, want ErrCorruptForm", tc.name, err)
		}
		for _, r := range [][2]int64{{0, 100}, {200, 300}} {
			if _, err := CountRange(tc.f, r[0], r[1]); !errors.Is(err, core.ErrCorruptForm) {
				t.Errorf("%s %v: CountRange: err = %v, want ErrCorruptForm", tc.name, r, err)
			}
			if _, err := SelectRange(tc.f, r[0], r[1]); !errors.Is(err, core.ErrCorruptForm) {
				t.Errorf("%s %v: SelectRange: err = %v, want ErrCorruptForm", tc.name, r, err)
			}
			dst := sel.New(tc.f.N)
			dst.AddRun(0, tc.f.N)
			if err := KeepRangeSel(tc.f, r[0], r[1], dst, 0); !errors.Is(err, core.ErrCorruptForm) {
				t.Errorf("%s %v: KeepRangeSel: err = %v, want ErrCorruptForm", tc.name, r, err)
			}
		}
	}
}
