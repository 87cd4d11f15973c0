package query

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/sel"
	"lwcomp/internal/vec"
)

// The composition × verb table: forms built by hand, node by node, so
// the compositions under test are the ones written here and not the
// ones the analyzer happens to pick, each checked under count, select
// and sum against decode-then-filter.

// child encodes a pure column as one constituent of a hand-built form.
type child func(t *testing.T, col []int64) *core.Form

func compressWith(s core.Scheme) child {
	return func(t *testing.T, col []int64) *core.Form {
		t.Helper()
		f, err := s.Compress(col)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		return f
	}
}

var (
	asNS  = compressWith(scheme.NS{})
	asVNS = compressWith(scheme.VNS{Block: 24}) // mini-blocks straddle the 32-row segments
	asRLE = compressWith(scheme.RLE{})
	asID  = func(_ *testing.T, col []int64) *core.Form { return scheme.NewIDForm(col) }
)

// segRefs returns per-segment minima and the offsets against them.
func segRefs(col []int64, segLen int) (refs, offsets []int64) {
	offsets = make([]int64, len(col))
	for lo := 0; lo < len(col); lo += segLen {
		seg := col[lo:min(lo+segLen, len(col))]
		ref := slices.Min(seg)
		refs = append(refs, ref)
		for i, v := range seg {
			offsets[lo+i] = v - ref
		}
	}
	return refs, offsets
}

// forOver is for(refs=id, offsets=enc(...)) with 32-row segments.
func forOver(enc child) child {
	return func(t *testing.T, col []int64) *core.Form {
		refs, offsets := segRefs(col, 32)
		return &core.Form{
			Scheme: scheme.FORName, N: len(col), Params: core.Params{"seglen": 32},
			Children: map[string]*core.Form{"refs": scheme.NewIDForm(refs), "offsets": enc(t, offsets)},
		}
	}
}

// dictOver is dict(dict=id, codes=enc(...)).
func dictOver(enc child) child {
	return func(t *testing.T, col []int64) *core.Form {
		dict := slices.Clone(col)
		slices.Sort(dict)
		dict = slices.Compact(dict)
		codes := make([]int64, len(col))
		for i, v := range col {
			codes[i] = int64(vec.LowerBound(dict, v))
		}
		return &core.Form{
			Scheme: scheme.DictName, N: len(col),
			Children: map[string]*core.Form{"dict": scheme.NewIDForm(dict), "codes": enc(t, codes)},
		}
	}
}

// plusConst is plus(model=const(m), residual=ns): m sits in the middle
// of the column, so the residual is signed and packs zigzag.
func plusConst(t *testing.T, col []int64) *core.Form {
	m := col[len(col)/2]
	residual := make([]int64, len(col))
	for i, v := range col {
		residual[i] = v - m
	}
	model := &core.Form{Scheme: scheme.ConstName, N: len(col), Params: core.Params{"value": m}}
	f, err := scheme.NewPlusForm(model, asNS(t, residual))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// plusStep is plus(model=step(refs), residual=ns) with 32-row segments
// whose reference is the segment's first value — a signed residual.
func plusStep(t *testing.T, col []int64) *core.Form {
	steps := make([]int64, len(col))
	residual := make([]int64, len(col))
	for i, v := range col {
		steps[i] = col[i-i%32]
		residual[i] = v - steps[i]
	}
	model, err := scheme.Step{SegLen: 32}.Compress(steps)
	if err != nil {
		t.Fatal(err)
	}
	f, err := scheme.NewPlusForm(model, asNS(t, residual))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// asLinear is the bare linear form fitted to the column with 32-row
// segments: a lossy fit, so the form stands for its own decode, which
// is all checkVerbs compares against.
func asLinear(t *testing.T, col []int64) *core.Form {
	s := core.GetScratch()
	defer s.Release()
	f, err := scheme.Linear{SegLen: 32}.Fit(col, s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// patchOver is patch(base=enc(col with the exceptions filled in),
// positions, values): each exception's slot in the base holds its left
// neighbour's value (its right one at row 0), as a patched encoder
// leaves it, so the base says something in-range-able there.
func patchOver(enc child, positions, values []int64) child {
	return func(t *testing.T, col []int64) *core.Form {
		base := slices.Clone(col)
		for _, p := range positions {
			if p == 0 {
				base[0] = col[1]
			} else {
				base[p] = base[p-1]
			}
		}
		return &core.Form{Scheme: scheme.PatchName, N: len(col), Children: map[string]*core.Form{
			"base":      enc(t, base),
			"positions": scheme.NewIDForm(positions),
			"values":    scheme.NewIDForm(values),
		}}
	}
}

// checkVerbs asserts count, select, sum-under-range, sum-under-selection,
// Sum and PointLookup on f against its own decode, for every range
// drawn from bounds, and returns whether a count or select pushdown, a
// range sum pushdown, and a selection sum materialised some node.
func checkVerbs(t *testing.T, name string, f *core.Form, bounds []int64) (materialised, sumMaterialised, selMaterialised bool) {
	t.Helper()
	col, err := core.Decompress(f)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	s := core.GetScratch()
	defer s.Release()
	if got, err := Sum(f); err != nil || got != vec.Sum(col) {
		t.Errorf("%s: Sum = %d, %v; want %d", name, got, err, vec.Sum(col))
	}
	// The selection sum, over every third row plus the first and last.
	const selBase = 70
	bm := sel.New(selBase + len(col))
	var wantSel int64
	for i, v := range col {
		if i%3 == 0 || i == len(col)-1 {
			bm.Add(selBase + i)
			wantSel += v
		}
	}
	if a, err := run(sumSelVerb, f, 0, 0, bm, selBase, s); err != nil || a.sum != wantSel {
		t.Errorf("%s: SumSel = %d, %v; want %d", name, a.sum, err, wantSel)
	} else {
		selMaterialised = a.materialised
	}
	for _, row := range []int{0, 31, 32, len(col) / 2, len(col) - 1} {
		if row >= len(col) {
			continue
		}
		if got, err := PointLookup(f, int64(row)); err != nil || got != col[row] {
			t.Errorf("%s: PointLookup(%d) = %d, %v; want %d", name, row, got, err, col[row])
		}
	}
	for _, lo := range bounds {
		for _, hi := range bounds {
			m, sm := checkRange(t, name, f, col, lo, hi, s)
			materialised = materialised || m
			sumMaterialised = sumMaterialised || sm
		}
	}
	return materialised, sumMaterialised, selMaterialised
}

// checkRange asserts count, select, keep and sum under [lo, hi] on f against
// col, f's decode, and returns whether the count (and select) and the
// sum materialised some node.
func checkRange(t *testing.T, name string, f *core.Form, col []int64, lo, hi int64, s *core.Scratch) (materialised, sumMaterialised bool) {
	t.Helper()
	const base = 70 // not word-aligned, so select's masks straddle words
	// The destination already holds bits — another leaf's matches —
	// which a select must leave set.
	want := sel.New(base + len(col) + 3)
	var wantCount, wantSum int64
	for i, v := range col {
		if i%7 == 3 {
			want.Add(base + i)
		}
		if v >= lo && v <= hi {
			want.Add(base + i)
			wantCount++
			wantSum += v
		}
	}
	got := sel.New(want.Len())
	for i := 3; i < len(col); i += 7 {
		got.Add(base + i)
	}
	sa, err := run(selectVerb, f, lo, hi, got, base, s)
	if err != nil || !slices.Equal(got.Rows(), want.Rows()) {
		t.Fatalf("%s [%d, %d]: select: %v, %d bits set, want %d", name, lo, hi, err, got.Count(), want.Count())
	}
	ca, err := run(CountVerb, f, lo, hi, nil, 0, s)
	if err != nil || ca.count != wantCount {
		t.Fatalf("%s [%d, %d]: count = %d, %v; want %d", name, lo, hi, ca.count, err, wantCount)
	}
	ua, err := run(SumVerb, f, lo, hi, nil, 0, s)
	if err != nil || ua.count != wantCount || ua.sum != wantSum {
		t.Fatalf("%s [%d, %d]: sum = (%d, %d), %v; want (%d, %d)", name, lo, hi, ua.sum, ua.count, err, wantSum, wantCount)
	}
	if lo <= hi && sa.materialised != ca.materialised {
		t.Fatalf("%s [%d, %d]: select materialised = %v, count %v", name, lo, hi, sa.materialised, ca.materialised)
	}
	// Keep, from a dense and from a sparse selection, and from one that
	// holds no row of a framed form's first segments: only the rows it
	// holds that match stay, and the bits beside the form's rows stay.
	for _, holds := range []func(i int) bool{
		func(i int) bool { return i%5 != 1 },
		func(i int) bool { return i%17 == 0 },
		func(i int) bool { return i >= 128 && i%5 == 0 },
	} {
		kept, wantKept := sel.New(want.Len()), sel.New(want.Len())
		for _, i := range []int{-1, len(col)} {
			kept.Add(base + i)
			wantKept.Add(base + i)
		}
		for i, v := range col {
			if holds(i) {
				kept.Add(base + i)
				if v >= lo && v <= hi {
					wantKept.Add(base + i)
				}
			}
		}
		ka, err := run(keepVerb, f, lo, hi, kept, base, s)
		if err != nil || !slices.Equal(kept.Rows(), wantKept.Rows()) {
			t.Fatalf("%s [%d, %d]: keep: %v, %d bits set, want %d", name, lo, hi, err, kept.Count(), wantKept.Count())
		}
		if lo <= hi && ka.materialised != ca.materialised {
			t.Fatalf("%s [%d, %d]: keep materialised = %v, count %v", name, lo, hi, ka.materialised, ca.materialised)
		}
	}
	return ca.materialised, ua.materialised
}

func TestCompositionTimesVerb(t *testing.T) {
	const n = 200 // six full 32-row segments and a short one
	rng := rand.New(rand.NewSource(16))
	narrow := make([]int64, n) // the genPrice shape, minus its spikes
	walk := make([]int64, n)   // signed, with runs
	for i := range narrow {
		narrow[i] = rng.Int63n(1000)
		if i > 0 && rng.Intn(3) > 0 {
			walk[i] = walk[i-1]
		} else {
			walk[i] = rng.Int63n(400) - 200
		}
	}
	// Exceptions on a segment's first and last row, on the column's
	// first and last row, and at both int64 extremes.
	positions := []int64{0, 31, 32, 95, 96, 150, n - 1}
	values := []int64{1 << 30, math.MaxInt64, -5, 1<<30 + 7, math.MinInt64, 1 << 40, 999}
	inner := patchOver(asNS, []int64{5, 31, 64}, []int64{1 << 20, -1 << 20, 1 << 21})

	bounds := []int64{math.MinInt64, math.MinInt64 + 1, -201, -5, 0, 1, 300, 999, 1000,
		1 << 20, 1 << 30, 1<<30 + 7, 1 << 41, math.MaxInt64 - 1, math.MaxInt64}
	for _, tc := range []struct {
		name string
		col  []int64
		enc  child
		// Some node has no rule and materialises: under count and
		// select, under a range sum, and under a selection sum.
		fallback, sumFallback, selFallback bool
	}{
		{"ns", narrow, asNS, false, false, false},
		{"ns-zigzag", walk, asNS, false, false, false},
		{"vns", narrow, asVNS, false, false, false},
		{"vns-zigzag", walk, asVNS, false, false, false},
		{"for(ns)", narrow, forOver(asNS), false, false, false},
		{"for(vns)", walk, forOver(asVNS), false, false, false},
		{"for(id)", walk, forOver(asID), false, false, false},
		{"for(rle)", walk, forOver(asRLE), true, true, false},
		{"dict(ns)", walk, dictOver(asNS), false, true, false},
		{"dict(rle)", walk, dictOver(asRLE), false, true, true},
		{"rle", walk, asRLE, false, false, false},
		{"plus(const,ns)", walk, plusConst, false, false, false},
		{"plus(step,ns)", walk, plusStep, false, false, false},
		{"plus(linear,ns)", walk, compressWith(scheme.LinearNS(32)), true, true, false},
		{"linear", walk, asLinear, true, true, false},
		{"plus(poly2,ns)", walk, compressWith(scheme.Poly2NS(32)), true, true, true},
		{"patch(ns)", narrow, inner, false, false, false},
		{"delta(ns)", walk, compressWith(scheme.DeltaNS()), false, false, false},
		{"delta(vns)", narrow, compressWith(core.Compose(scheme.Delta{}, map[string]core.Scheme{"deltas": scheme.VNS{Block: 32}})), false, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.enc(t, tc.col)
			if m, sm, ss := checkVerbs(t, tc.name, f, bounds); m != tc.fallback || sm != tc.sumFallback || ss != tc.selFallback {
				t.Errorf("%s (%s): materialised = %v, under sum %v, under a selection %v; want %v, %v, %v",
					tc.name, f.Describe(), m, sm, ss, tc.fallback, tc.sumFallback, tc.selFallback)
			}
			// And the same form as the base of a patch: the exceptions
			// ride on whatever rule the base has.
			col := slices.Clone(tc.col)
			for i, p := range positions {
				col[p] = values[i]
			}
			patched := patchOver(tc.enc, positions, values)(t, col)
			if m, sm, ss := checkVerbs(t, "patch("+tc.name+")", patched, bounds); m != tc.fallback || sm != tc.sumFallback || ss != tc.selFallback {
				t.Errorf("patch(%s) (%s): materialised = %v, under sum %v, under a selection %v; want %v, %v, %v",
					tc.name, patched.Describe(), m, sm, ss, tc.fallback, tc.sumFallback, tc.selFallback)
			}
		})
	}
}

// TestPushdownAtInt64Extremes: segments whose reference sits at either
// end of int64, where ref + (the widest offset the packing admits)
// overflows although no stored value does, and a plus whose constant
// model is MinInt64. Classification must neither wrap nor saturate its
// way to a wrong verdict.
func TestPushdownAtInt64Extremes(t *testing.T) {
	col := make([]int64, 96)
	rng := rand.New(rand.NewSource(3))
	for i := range col {
		switch i / 32 {
		case 0:
			col[i] = math.MaxInt64 - rng.Int63n(600) // width 10 admits offsets to 1023: past MaxInt64
		case 1:
			col[i] = math.MinInt64 + rng.Int63n(600)
		default:
			col[i] = rng.Int63n(600) - 300
		}
	}
	col[0], col[32] = math.MaxInt64, math.MinInt64
	bounds := []int64{math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 300, -1, 0, 299,
		math.MaxInt64 - 600, math.MaxInt64 - 300, math.MaxInt64 - 1, math.MaxInt64}
	checkVerbs(t, "for(ns)", forOver(asNS)(t, col), bounds)
	checkVerbs(t, "for(vns)", forOver(asVNS)(t, col), bounds)
	checkVerbs(t, "dict(ns)", dictOver(asNS)(t, col), bounds)

	// plus(const MinInt64, residual): every residual is a value's
	// distance from the bottom of int64, kept in an ID leaf since it
	// needs all 64 bits.
	residual := make([]int64, len(col))
	for i, v := range col {
		residual[i] = v - math.MinInt64 // wraps, as decode's add wraps back
	}
	model := &core.Form{Scheme: scheme.ConstName, N: len(col), Params: core.Params{"value": math.MinInt64}}
	plus, err := scheme.NewPlusForm(model, scheme.NewIDForm(residual))
	if err != nil {
		t.Fatal(err)
	}
	checkVerbs(t, "plus(const,id)", plus, bounds)
}

// TestWindow checks the range translation every segment walk rests on
// against its definition — o matches iff ref + o, wrapping, lies in
// [lo, hi] — at values of o around every edge the answer has.
func TestWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edge := func() int64 {
		switch rng.Intn(5) {
		case 0:
			return math.MinInt64 + rng.Int63n(4)
		case 1:
			return math.MaxInt64 - rng.Int63n(4)
		case 2:
			return rng.Int63n(9) - 4
		case 3:
			return rng.Int63() - rng.Int63()
		}
		return rng.Int63n(2000) - 1000
	}
	for trial := 0; trial < 200000; trial++ {
		lo, hi, ref, omin, omax := edge(), edge(), edge(), edge(), edge()
		if lo > hi {
			lo, hi = hi, lo
		}
		if omin > omax {
			omin, omax = omax, omin
		}
		w, n, all := window(lo, hi, ref, omin, omax)
		desc := fmt.Sprintf("window(%d, %d, ref %d, [%d, %d]) = %v[:%d] all=%v", lo, hi, ref, omin, omax, w, n, all)
		if all && (n != 1 || w[0] != [2]int64{omin, omax}) {
			t.Fatalf("%s: all without the whole extent", desc)
		}
		probes := []int64{omin, omax, omin + (omax-omin)/2}
		for _, r := range w[:n] {
			if r[0] > r[1] || r[0] < omin || r[1] > omax {
				t.Fatalf("%s: piece outside the extent", desc)
			}
			probes = append(probes, r[0], r[1], r[0]-1, r[1]+1)
		}
		if n == 2 && w[0][1] >= w[1][0] {
			t.Fatalf("%s: pieces overlap or are out of order", desc)
		}
		for _, o := range probes {
			if o < omin || o > omax {
				continue
			}
			v := ref + o
			want := v >= lo && v <= hi
			got := false
			for _, r := range w[:n] {
				got = got || (o >= r[0] && o <= r[1])
			}
			if got != want {
				t.Fatalf("%s: o = %d (v = %d) matched = %v, want %v", desc, o, v, got, want)
			}
		}
	}
}
