package query

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
)

// lineForm builds the linear model over n rows with one base and slope
// per segLen-row segment, and, unless enc is nil, the plus of it and
// enc(residual) — node by node, so the shapes under test are the ones
// written here and not the ones a fit happens to produce.
func lineForm(t *testing.T, n, segLen int, frac int64, bases, slopes, residual []int64, enc child) *core.Form {
	t.Helper()
	model := &core.Form{
		Scheme: scheme.LinearName, N: n, Params: core.Params{"seglen": int64(segLen), "frac": frac},
		Children: map[string]*core.Form{"bases": scheme.NewIDForm(bases), "slopes": scheme.NewIDForm(slopes)},
	}
	if enc == nil {
		return model
	}
	f, err := scheme.NewPlusForm(model, enc(t, residual))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// around returns [v−d, v+d], cut off at the ends of int64.
func around(v, d int64) [2]int64 {
	lo, hi := v-d, v+d
	if lo > v {
		lo = math.MinInt64
	}
	if hi < v {
		hi = math.MaxInt64
	}
	return [2]int64{lo, hi}
}

// TestLinearRangeMatchesDecode: count, select and sum under a range on
// plus(linear) and bare linear forms equal decode-then-filter, and
// never decode. The forms cover word-aligned groups inside long
// segments, groups cut by segment ends off word boundaries, VNS
// mini-blocks that are not a multiple of a group, zigzag residuals,
// plain residuals, no residual at all, and a form under plus(const),
// which adds to each row it sums. The shapes cover the benchmark's
// columns, negative slopes, slopes at and one past the overflow guard,
// and bases within 2^10 of either end of int64, where predictions wrap.
func TestLinearRangeMatchesDecode(t *testing.T) {
	const n, frac = 3000, 16 // a short last segment and a partial last group
	unsigned := func(rng *rand.Rand) int64 { return rng.Int63n(81) }
	signed := func(rng *rand.Rand) int64 { return rng.Int63n(81) - 40 }
	forms := []struct {
		name     string
		segLen   int
		enc      child
		residual func(*rand.Rand) int64
		// over, when non-zero, puts the form under plus(const(over)),
		// whose rule adds over to every sum the form's rule makes.
		over int64
	}{
		{"LinearNS(1024)", 1024, asNS, unsigned, 0},
		{"LinearNS(100)", 100, asNS, unsigned, 0},
		{"plus(linear,vns100)", 1024, compressWith(scheme.VNS{Block: 100}), unsigned, 0},
		{"plus(linear,ns-zigzag)", 1024, asNS, signed, 0},
		{"plus(linear,id)", 1024, asID, signed, 0},
		{"plus(const,plus(linear,ns))", 1024, asNS, unsigned, 1<<40 + 3},
		{"linear", 1024, nil, nil, 0},
		{"linear(100)", 100, nil, nil, 0},
	}
	// Each shape sets segment seg's base and slope.
	shapes := []struct {
		name string
		line func(rng *rand.Rand, seg, segLen int) (base, slope int64)
	}{
		{"level", func(_ *rand.Rand, seg, segLen int) (int64, int64) {
			return int64(float64(seg*segLen) * 2.9), 190054 // 2.9 in 16 fraction bits
		}},
		{"amount", func(rng *rand.Rand, seg, _ int) (int64, int64) {
			return 1<<30 + int64(seg)*300 + rng.Int63n(200), rng.Int63n(4<<frac) - 2<<frac
		}},
		{"negative", func(rng *rand.Rand, seg, _ int) (int64, int64) {
			return int64(seg) << 20, -rng.Int63n(1 << 24)
		}},
		{"guard", func(rng *rand.Rand, seg, segLen int) (int64, int64) {
			guard := int64(math.MaxInt64) / int64(segLen-1)
			slope := []int64{guard, -guard, guard + 1, -guard - 1}[seg%4]
			return rng.Int63() - rng.Int63(), slope
		}},
		{"top", func(rng *rand.Rand, _, _ int) (int64, int64) {
			return math.MaxInt64 - rng.Int63n(1<<10), rng.Int63n(1<<21) - 1<<20
		}},
		{"bottom", func(rng *rand.Rand, _, _ int) (int64, int64) {
			return math.MinInt64 + rng.Int63n(1<<10), rng.Int63n(1<<21) - 1<<20
		}},
	}
	s := core.GetScratch()
	defer s.Release()
	rng := rand.New(rand.NewSource(34))
	ranges := 0
	for _, fc := range forms {
		for _, sh := range shapes {
			name := fc.name + "/" + sh.name
			nseg := (n + fc.segLen - 1) / fc.segLen
			bases, slopes := make([]int64, nseg), make([]int64, nseg)
			for seg := range bases {
				bases[seg], slopes[seg] = sh.line(rng, seg, fc.segLen)
			}
			var residual []int64
			if fc.residual != nil {
				residual = make([]int64, n)
				for i := range residual {
					residual[i] = fc.residual(rng)
				}
			}
			f := lineForm(t, n, fc.segLen, frac, bases, slopes, residual, fc.enc)
			var err error
			if fc.over != 0 {
				c := &core.Form{Scheme: scheme.ConstName, N: n, Params: core.Params{"value": fc.over}}
				if f, err = scheme.NewPlusForm(c, f); err != nil {
					t.Fatal(err)
				}
			}
			col, err := core.Decompress(f)
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			sorted := slices.Sorted(slices.Values(col))
			rs := [][2]int64{
				{5, 4}, // empty
				{math.MinInt64, math.MaxInt64},
				{sorted[n/4], sorted[3*n/4]},
			}
			for range 10 {
				v := col[rng.Intn(n)]
				rs = append(rs, [2]int64{v, v}, around(v, 40))
			}
			for _, r := range rs {
				m, sm := checkRange(t, name, f, col, r[0], r[1], s)
				if m || sm {
					t.Fatalf("%s [%d, %d]: materialised = %v, under sum %v; want neither", name, r[0], r[1], m, sm)
				}
				ranges++
			}
		}
	}
	t.Logf("%d ranges checked", ranges)
}

// FuzzLinearRange builds plus(linear) and bare linear forms straight
// from its inputs — segment length, a slope and a base that vary per
// segment, residuals from raw's bytes, the residual's encoding from
// raw's first byte — and checks count, select and sum under [lo, hi]
// and around a stored value against decode-then-filter. The table
// fuzzers rarely meet these forms: the analyzer seldom picks a linear
// model at their sizes.
func FuzzLinearRange(f *testing.F) {
	f.Add([]byte{0, 10, 200, 30, 40, 50, 60, 70}, int64(4), int64(190054), int64(1<<30), int64(1<<30), int64(1<<30+40))
	f.Add(make([]byte, 300), int64(100), int64(-1<<24), int64(0), int64(-1<<30), int64(0))
	f.Add([]byte{1, 255, 0, 128, 7}, int64(3), int64(math.MaxInt64/2), int64(math.MaxInt64-5), int64(math.MinInt64), int64(-1))
	f.Add([]byte{2, 1, 2, 3}, int64(1), int64(math.MinInt64), int64(math.MinInt64), int64(math.MinInt64), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, raw []byte, segLen, slope, base, lo, hi int64) {
		if len(raw) == 0 || len(raw) > 4096 {
			return
		}
		n := len(raw)
		seg := 1 + int(uint64(segLen)%300)
		frac := int64(uint64(segLen)>>32) % 31
		nseg := (n + seg - 1) / seg
		bases, slopes := make([]int64, nseg), make([]int64, nseg)
		for i := range bases {
			bases[i], slopes[i] = base+int64(i)<<20, slope^int64(i)
		}
		residual := make([]int64, n)
		for i, b := range raw {
			residual[i] = int64(b)
		}
		var enc child
		switch raw[0] % 4 {
		case 0:
			enc = asNS
		case 1:
			enc = asNS
			for i := range residual {
				residual[i] -= 128 // signed: zigzag
			}
		case 2:
			enc = compressWith(scheme.VNS{Block: 100})
		}
		form := lineForm(t, n, seg, frac, bases, slopes, residual, enc)
		col, err := core.Decompress(form)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		s := core.GetScratch()
		defer s.Release()
		near := around(col[int(uint64(lo)%uint64(n))], 40)
		for _, r := range [][2]int64{{lo, hi}, near} {
			if m, sm := checkRange(t, "fuzz", form, col, r[0], r[1], s); m || sm {
				t.Fatalf("[%d, %d]: materialised = %v, under sum %v; want neither", r[0], r[1], m, sm)
			}
		}
	})
}
