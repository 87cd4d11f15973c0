package query

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/sel"
	"lwcomp/internal/vec"
)

// compressors returns the forms Sum/CountRange must shortcut, all
// losslessly representing the same data.
func compressors() map[string]core.Scheme {
	return map[string]core.Scheme{
		"id":        scheme.ID{},
		"ns":        scheme.NS{},
		"rle+ns":    scheme.RLEComposite(),
		"rpe+ns":    scheme.RPEComposite(),
		"rle+delta": scheme.RLEDeltaComposite(),
		"delta+ns":  scheme.DeltaNS(),
		"for+ns":    scheme.FORComposite(64),
		"for+vns":   scheme.FORVNSComposite(64, 64),
		"dict+ns":   scheme.DictComposite(),
		"pfor":      scheme.PFORComposite(64),
		"mres-step": scheme.StepNS(64),
		"varint":    scheme.Varint{},
	}
}

func workload(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	v := int64(5000)
	for i := range out {
		if rng.Intn(4) == 0 {
			v += rng.Int63n(31) - 15
		}
		out[i] = v
	}
	// A few outliers so PFOR has patches.
	for i := 50; i < n; i += 997 {
		out[i] += 1 << 20
	}
	return out
}

func TestSumMatchesPlainScan(t *testing.T) {
	src := workload(1, 3000)
	want := vec.Sum(src)
	for name, s := range compressors() {
		f, err := s.Compress(src)
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		got, err := Sum(f)
		if err != nil {
			t.Fatalf("%s: sum: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: Sum = %d, want %d", name, got, want)
		}
	}
}

func TestSumConst(t *testing.T) {
	f, err := scheme.Const{}.Compress([]int64{7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sum(f)
	if err != nil || got != 21 {
		t.Fatalf("const sum = %d, %v", got, err)
	}
}

func TestCountAndSelectRangeMatchPlainScan(t *testing.T) {
	src := workload(2, 2500)
	lo, hi := int64(4990), int64(5015)
	wantRows := vec.SelectRange(src, lo, hi)
	wantCount := int64(len(wantRows))
	for name, s := range compressors() {
		f, err := s.Compress(src)
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		count, err := CountRange(f, lo, hi)
		if err != nil {
			t.Fatalf("%s: count: %v", name, err)
		}
		if count != wantCount {
			t.Errorf("%s: CountRange = %d, want %d", name, count, wantCount)
		}
		rows, err := SelectRange(f, lo, hi)
		if err != nil {
			t.Fatalf("%s: select: %v", name, err)
		}
		if !vec.Equal(rows, wantRows) {
			t.Errorf("%s: SelectRange differs (%d rows vs %d)", name, len(rows), len(wantRows))
		}
	}
}

func TestSelectRangeEmptyAndInverted(t *testing.T) {
	src := workload(3, 500)
	f, err := scheme.FORComposite(64).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := SelectRange(f, 10, 5)
	if err != nil || len(rows) != 0 {
		t.Fatalf("inverted range = %v, %v", rows, err)
	}
	count, err := CountRange(f, -100, -50)
	if err != nil || count != 0 {
		t.Fatalf("empty range count = %d, %v", count, err)
	}
}

// TestSelectPlainExtremes pins the branch-free scan of the plain leaf
// (SelectPlain), select and keep, against the two-sided compare where
// the arithmetic is least forgiving: full-span bounds, inverted ranges,
// and values at both int64 extremes.
func TestSelectPlainExtremes(t *testing.T) {
	vals := make([]int64, 150) // two full mask words and a tail
	rng := rand.New(rand.NewSource(9))
	for i := range vals {
		switch i % 5 {
		case 0:
			vals[i] = math.MaxInt64 - int64(rng.Intn(4))
		case 1:
			vals[i] = math.MinInt64 + int64(rng.Intn(4))
		default:
			vals[i] = rng.Int63n(7) - 3
		}
	}
	bounds := []int64{math.MinInt64, math.MinInt64 + 2, -2, 0, 2, math.MaxInt64 - 2, math.MaxInt64}
	for _, lo := range bounds {
		for _, hi := range bounds {
			var want, wantKept []int64
			for i, v := range vals {
				if v >= lo && v <= hi {
					want = append(want, int64(7+i))
					if i%3 != 0 {
						wantKept = append(wantKept, int64(7+i))
					}
				}
			}
			dst := sel.New(7 + len(vals))
			SelectPlain(vals, lo, hi, dst, 7, false)
			if got := dst.Rows(); !vec.Equal(got, want) {
				t.Fatalf("[%d, %d]: %d rows, want %d", lo, hi, len(got), len(want))
			}
			dst.Reset(7 + len(vals))
			for i := range vals {
				if i%3 != 0 {
					dst.Add(7 + i)
				}
			}
			SelectPlain(vals, lo, hi, dst, 7, true)
			if got := dst.Rows(); !vec.Equal(got, wantKept) {
				t.Fatalf("[%d, %d] keep: %d rows, want %d", lo, hi, len(got), len(wantKept))
			}
		}
	}
}

func TestSelectRangePropertyAgainstScan(t *testing.T) {
	check := func(raw []uint16, rawLo, rawHi uint16) bool {
		src := make([]int64, len(raw))
		for i, r := range raw {
			src[i] = int64(r % 512)
		}
		lo, hi := int64(rawLo%512), int64(rawHi%512)
		if lo > hi {
			lo, hi = hi, lo
		}
		want := vec.SelectRange(src, lo, hi)
		for _, s := range []core.Scheme{scheme.FORComposite(16), scheme.RLEComposite(), scheme.DictComposite()} {
			f, err := s.Compress(src)
			if err != nil {
				return false
			}
			got, err := SelectRange(f, lo, hi)
			if err != nil || !vec.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestFORPruningStats(t *testing.T) {
	// A sorted column: almost all segments should classify as inside
	// or outside; only the two boundary segments decode.
	src := make([]int64, 64*100)
	for i := range src {
		src[i] = int64(i)
	}
	f, err := scheme.FORComposite(64).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	forForm := f // FORComposite returns the FOR form directly
	rows, st, err := SelectRangeFORWithStats(forForm, 1000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(rows)) != 1001 {
		t.Fatalf("rows = %d, want 1001", len(rows))
	}
	if st.DecodedSegments > 2 {
		t.Fatalf("decoded %d segments, want ≤ 2 (pruning broken)", st.DecodedSegments)
	}
	if st.Segments != 100 {
		t.Fatalf("segments = %d", st.Segments)
	}
}

func TestPointLookup(t *testing.T) {
	src := workload(4, 1200)
	for name, s := range compressors() {
		f, err := s.Compress(src)
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		for _, row := range []int64{0, 1, 599, int64(len(src) - 1)} {
			got, err := PointLookup(f, row)
			if err != nil {
				t.Fatalf("%s: lookup %d: %v", name, row, err)
			}
			if got != src[row] {
				t.Errorf("%s: PointLookup(%d) = %d, want %d", name, row, got, src[row])
			}
		}
		if _, err := PointLookup(f, int64(len(src))); err == nil {
			t.Errorf("%s: out-of-range lookup accepted", name)
		}
		if _, err := PointLookup(f, -1); err == nil {
			t.Errorf("%s: negative lookup accepted", name)
		}
	}
}

func TestApproxSumBoundsContainTruth(t *testing.T) {
	src := workload(5, 4096)
	want := vec.Sum(src)
	for _, s := range []core.Scheme{
		scheme.FORComposite(128),
		scheme.FORVNSComposite(128, 128),
		scheme.StepNS(128),
	} {
		f, err := s.Compress(src)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := ApproxSum(f)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !iv.Contains(want) {
			t.Fatalf("%s: interval [%d, %d] misses true sum %d", s.Name(), iv.Lower, iv.Upper, want)
		}
		if iv.Width() == 0 {
			t.Fatalf("%s: interval should be approximate, not exact", s.Name())
		}
	}
	// Residuals that may be negative: a plus over a zigzag NS residual,
	// whose exact sum 382 lies below the model's 400, and a for whose
	// offsets are zigzag.
	signed := []int64{-5, -7, 3, -9}
	residual, err := scheme.NS{}.Compress(signed)
	if err != nil {
		t.Fatal(err)
	}
	model := &core.Form{Scheme: scheme.ConstName, N: len(signed), Params: core.Params{"value": 100}}
	plus, err := scheme.NewPlusForm(model, residual)
	if err != nil {
		t.Fatal(err)
	}
	forZZ := &core.Form{
		Scheme: scheme.FORName, N: len(signed), Params: core.Params{"seglen": 2},
		Children: map[string]*core.Form{"refs": scheme.NewIDForm([]int64{100, 200}), "offsets": residual},
	}
	for _, f := range []*core.Form{plus, forZZ} {
		col, err := core.Decompress(f)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := ApproxSum(f)
		if err != nil || !iv.Contains(vec.Sum(col)) {
			t.Fatalf("%s: interval [%d, %d], %v misses true sum %d", f.Describe(), iv.Lower, iv.Upper, err, vec.Sum(col))
		}
	}
	// The gradual summer starts from the same kind of interval over
	// the for's zigzag offsets, and keeps the truth as it refines.
	g, err := NewGradualSummer(forZZ)
	if err != nil {
		t.Fatal(err)
	}
	for !g.Done() {
		if iv := g.Bounds(); !iv.Contains(582) {
			t.Fatalf("gradual, %d segments refined: interval [%d, %d] misses true sum 582", g.Refined(), iv.Lower, iv.Upper)
		}
		if _, err := g.Refine(1); err != nil {
			t.Fatal(err)
		}
	}
	// Exact fallbacks collapse.
	f, err := scheme.NS{}.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := ApproxSum(f)
	if err != nil || iv.Width() != 0 || iv.Lower != want {
		t.Fatalf("ns approx = %+v, %v", iv, err)
	}
}

// TestApproxSumRefusesCorruptForms: a step model whose segment length
// disagrees with its refs — zero, negative, or too short for them — is
// refused by ApproxSum as decode refuses it, instead of indexing past
// the refs. The model sits bare (step), under FOR's offsets (for), and
// as the model of a plus.
func TestApproxSumRefusesCorruptForms(t *testing.T) {
	src := workload(7, 5000) // five 1024-row segments
	for _, tc := range []struct {
		name string
		s    core.Scheme
		step func(f *core.Form) *core.Form // the node holding seglen
	}{
		{"for", scheme.FORComposite(1024), func(f *core.Form) *core.Form { return f }},
		{"step", scheme.Step{SegLen: 1024}, func(f *core.Form) *core.Form { return f }},
		{"plus(model=step)", scheme.StepNS(1024), func(f *core.Form) *core.Form { return f.Children["model"] }},
	} {
		col := src
		if tc.name == "step" {
			col = make([]int64, len(src))
			for i := range col {
				col[i] = src[i-i%1024]
			}
		}
		for _, segLen := range []int64{0, -3, 1} {
			f, err := tc.s.Compress(col)
			if err != nil {
				t.Fatal(err)
			}
			tc.step(f).Params["seglen"] = segLen
			if _, err := core.Decompress(f); !errors.Is(err, core.ErrCorruptForm) {
				t.Fatalf("%s, seglen %d: Decompress err = %v, want ErrCorruptForm", tc.name, segLen, err)
			}
			if _, err := ApproxSum(f); !errors.Is(err, core.ErrCorruptForm) {
				t.Errorf("%s, seglen %d: ApproxSum err = %v, want ErrCorruptForm", tc.name, segLen, err)
			}
		}
	}
}

func TestGradualSummerConvergence(t *testing.T) {
	src := workload(6, 64*64)
	want := vec.Sum(src)
	f, err := scheme.FORComposite(64).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGradualSummer(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.Segments() != 64 {
		t.Fatalf("segments = %d", g.Segments())
	}
	prevWidth := g.Bounds().Width()
	if !g.Bounds().Contains(want) {
		t.Fatal("initial bounds miss truth")
	}
	for !g.Done() {
		if _, err := g.Refine(8); err != nil {
			t.Fatal(err)
		}
		iv := g.Bounds()
		if !iv.Contains(want) {
			t.Fatalf("bounds [%d,%d] miss truth %d after %d refinements",
				iv.Lower, iv.Upper, want, g.Refined())
		}
		if iv.Width() > prevWidth {
			t.Fatal("refinement widened the interval")
		}
		prevWidth = iv.Width()
	}
	iv := g.Bounds()
	if iv.Width() != 0 || iv.Lower != want {
		t.Fatalf("final interval [%d,%d], want exactly %d", iv.Lower, iv.Upper, want)
	}
	// Refining past the end is a no-op.
	n, err := g.Refine(3)
	if err != nil || n != 0 {
		t.Fatalf("over-refine = %d, %v", n, err)
	}
}

func TestGradualSummerWrongScheme(t *testing.T) {
	f, err := scheme.NS{}.Compress([]int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGradualSummer(f); err == nil {
		t.Fatal("gradual summer accepted NS form")
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{10, 20}
	if iv.Estimate() != 15 || iv.Width() != 10 || !iv.Contains(10) || !iv.Contains(20) || iv.Contains(21) {
		t.Fatalf("interval helpers wrong: %+v", iv)
	}
}

// TestVNSWidth64NegativeRange pins the fully-negative-range shortcut:
// a zigzag=0 VNS form with a width-64 mini-block stores raw 64-bit
// patterns that reinterpret to negative values, so "negative range →
// no matches" must first clear the width check and fall back to the
// materializing path.
func TestVNSWidth64NegativeRange(t *testing.T) {
	neg5 := int64(-5)
	u := []uint64{uint64(neg5), 3}
	packed, err := bitpack.Pack(u, 64)
	if err != nil {
		t.Fatal(err)
	}
	f := &core.Form{
		Scheme:   scheme.VNSName,
		N:        2,
		Params:   core.Params{"block": 2, "zigzag": 0},
		Children: map[string]*core.Form{"widths": scheme.NewIDForm([]int64{64})},
		Packed:   packed,
	}
	back, err := core.Decompress(f)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(back, []int64{-5, 3}) {
		t.Fatalf("decompress = %v, want [-5 3]", back)
	}
	n, err := CountRange(f, -10, -1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("CountRange(-10,-1) = %d, want 1", n)
	}
	rows, err := SelectRange(f, -10, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(rows, []int64{0}) {
		t.Fatalf("SelectRange(-10,-1) = %v, want [0]", rows)
	}
}

// TestFORVNSTruncatedWidths pins corruption handling on the fused
// FOR-over-VNS pruner: a widths child shorter than the block count
// must surface ErrCorruptForm (via the materializing fallback), not a
// silently truncated answer.
func TestFORVNSTruncatedWidths(t *testing.T) {
	data := make([]int64, 4096)
	for i := range data {
		data[i] = int64(i % 1000)
	}
	f, err := scheme.FORVNSComposite(64, 64).Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	offsets, err := f.Child("offsets")
	if err != nil {
		t.Fatal(err)
	}
	widths, err := offsets.Child("widths")
	if err != nil {
		t.Fatal(err)
	}
	widths.Leaf = widths.Leaf[:len(widths.Leaf)/2]
	widths.N = len(widths.Leaf)
	if _, err := CountRange(f, 100, 900); !errors.Is(err, core.ErrCorruptForm) {
		t.Fatalf("CountRange on truncated widths: err = %v, want ErrCorruptForm", err)
	}
	if _, err := SelectRange(f, 100, 900); !errors.Is(err, core.ErrCorruptForm) {
		t.Fatalf("SelectRange on truncated widths: err = %v, want ErrCorruptForm", err)
	}
}

// TestRLEOverrunningRuns pins corruption handling on the run-emitting
// scan arms: an RLE form whose runs overshoot N must return
// ErrCorruptForm from SelectRange/CountRange, not panic inside
// Selection.AddRun.
func TestRLEOverrunningRuns(t *testing.T) {
	f := &core.Form{
		Scheme: scheme.RLEName,
		N:      4,
		Children: map[string]*core.Form{
			"lengths": scheme.NewIDForm([]int64{200}),
			"values":  scheme.NewIDForm([]int64{7}),
		},
	}
	if _, err := SelectRange(f, 0, 100); !errors.Is(err, core.ErrCorruptForm) {
		t.Fatalf("SelectRange on overrunning runs: err = %v, want ErrCorruptForm", err)
	}
	if _, err := CountRange(f, 0, 100); !errors.Is(err, core.ErrCorruptForm) {
		t.Fatalf("CountRange on overrunning runs: err = %v, want ErrCorruptForm", err)
	}
}

// TestCorruptRunBoundsSharedTable is the shared corrupt-payload table
// for every consumer of RLE/RPE run bounds and of patch positions: the
// scalar decode path (core.Decompress) and the pushed-down select and
// aggregate verbs (SelectRange, CountRange, Sum, SumRange, SumSel) must all
// reject the same corrupt run sets and exception lists with the same
// error class, core.ErrCorruptForm. A path that accepted what the
// others reject would let a corrupt block answer differently depending
// on which verb the planner happened to pick — duplicate patch
// positions used to decode last-write-wins while Sum counted both.
func TestCorruptRunBoundsSharedTable(t *testing.T) {
	rle := func(lengths, values []int64, n int) *core.Form {
		return &core.Form{
			Scheme: scheme.RLEName,
			N:      n,
			Children: map[string]*core.Form{
				"lengths": scheme.NewIDForm(lengths),
				"values":  scheme.NewIDForm(values),
			},
		}
	}
	rpe := func(positions, values []int64, n int) *core.Form {
		return &core.Form{
			Scheme: scheme.RPEName,
			N:      n,
			Children: map[string]*core.Form{
				"positions": scheme.NewIDForm(positions),
				"values":    scheme.NewIDForm(values),
			},
		}
	}
	patch := func(positions []int64) *core.Form {
		base, err := scheme.NS{}.Compress([]int64{1, 2, 3, 4, 5, 6, 7, 8})
		if err != nil {
			t.Fatal(err)
		}
		return &core.Form{
			Scheme: scheme.PatchName,
			N:      8,
			Children: map[string]*core.Form{
				"base":      base,
				"positions": scheme.NewIDForm(positions),
				"values":    scheme.NewIDForm([]int64{100, 200}),
			},
		}
	}
	cases := []struct {
		name string
		f    *core.Form
	}{
		{"for/seglen-zero", &core.Form{
			Scheme: scheme.FORName, N: 2, Params: core.Params{"seglen": 0},
			Children: map[string]*core.Form{"refs": scheme.NewIDForm([]int64{1}), "offsets": scheme.NewIDForm([]int64{0, 1})},
		}},
		{"patch/duplicate-positions", patch([]int64{2, 2})},
		{"patch/unsorted-positions", patch([]int64{5, 3})},
		{"patch/negative-position", patch([]int64{-1, 3})},
		{"patch/position-past-end", patch([]int64{3, 8})},
		{"patch/child-length-mismatch", patch([]int64{3})},
		{"rle/overshoot", rle([]int64{3, 200}, []int64{1, 2}, 8)},
		{"rle/undershoot", rle([]int64{3, 2}, []int64{1, 2}, 8)},
		{"rle/negative-length", rle([]int64{10, -2}, []int64{1, 2}, 8)},
		{"rle/child-length-mismatch", rle([]int64{4, 4}, []int64{1}, 8)},
		{"rpe/decreasing", rpe([]int64{5, 3, 8}, []int64{1, 2, 3}, 8)},
		{"rpe/undershoot", rpe([]int64{3, 6}, []int64{1, 2}, 8)},
		{"rpe/overshoot", rpe([]int64{3, 200}, []int64{1, 2}, 8)},
		{"rpe/overshoot-before-last", rpe([]int64{200, 8}, []int64{1, 2}, 8)},
		{"rpe/child-length-mismatch", rpe([]int64{3, 8}, []int64{1}, 8)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := core.Decompress(tc.f); !errors.Is(err, core.ErrCorruptForm) {
				t.Errorf("Decompress: err = %v, want ErrCorruptForm", err)
			}
			if _, err := SelectRange(tc.f, 0, 100); !errors.Is(err, core.ErrCorruptForm) {
				t.Errorf("SelectRange: err = %v, want ErrCorruptForm", err)
			}
			if _, err := CountRange(tc.f, 0, 100); !errors.Is(err, core.ErrCorruptForm) {
				t.Errorf("CountRange: err = %v, want ErrCorruptForm", err)
			}
			if _, err := Sum(tc.f); !errors.Is(err, core.ErrCorruptForm) {
				t.Errorf("Sum: err = %v, want ErrCorruptForm", err)
			}
			if _, _, err := SumRange(tc.f, 0, 100); !errors.Is(err, core.ErrCorruptForm) {
				t.Errorf("SumRange: err = %v, want ErrCorruptForm", err)
			}
			every := sel.New(tc.f.N)
			every.AddRun(0, tc.f.N)
			if _, err := SumSel(tc.f, every, 0); !errors.Is(err, core.ErrCorruptForm) {
				t.Errorf("SumSel: err = %v, want ErrCorruptForm", err)
			}
		})
	}
}
