package core

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"lwcomp/internal/bitpack"
)

// runHeadDeltas are the deltas between consecutive run heads, which
// BlockStats does not store: its delta bounds and RunHeadDeltaHist
// must reproduce them.
type runHeadDeltas struct {
	min, max int64
	hist     bitpack.WidthHistogram
}

// collectStatsReference is the element-at-a-time collector the
// segment-at-a-time CollectStats replaced: every field updated through
// the result, the segment found by division per element. Kept as the
// reference CollectStats must match field for field, beside the
// run-head deltas it takes from its own walk over the run heads.
func collectStatsReference(src []int64) (BlockStats, runHeadDeltas) {
	var s *Scratch
	var st BlockStats
	var rh runHeadDeltas
	st.N = len(src)
	st.HasMinMax, st.HasRuns, st.HasDeltas = true, true, true
	st.HasValueHist, st.HasDistinct = true, true
	st.SegLen = StatsSegLen
	st.OffsetSegLen = StatsProbeSegLen
	if len(src) == 0 {
		return st, rh
	}

	nseg := (len(src) + StatsSegLen - 1) / StatsSegLen
	st.SegMin = s.I64(nseg)
	st.SegMax = s.I64(nseg)
	sketch := s.U64(distinctSketchWords)
	for i := range sketch {
		sketch[i] = 0
	}

	first := src[0]
	st.Min, st.Max = first, first
	st.Runs = 1
	// DELTA keeps the first value as a parameter: its first delta is 0.
	st.DeltaMin, st.DeltaMax = 0, 0

	prev := first
	prevRunHead := first
	runStart := 0
	var maxRunLen int64
	probeMin := first
	for i, v := range src {
		if seg := i / StatsSegLen; i%StatsSegLen == 0 {
			st.SegMin[seg] = v
			st.SegMax[seg] = v
		} else {
			if v < st.SegMin[seg] {
				st.SegMin[seg] = v
			}
			if v > st.SegMax[seg] {
				st.SegMax[seg] = v
			}
		}
		if i&(StatsProbeSegLen-1) == 0 {
			probeMin = v
		} else if v < probeMin {
			probeMin = v
		}
		st.OffsetHist.Observe(uint64(v - probeMin))
		st.ValueHist.Observe(bitpack.Zigzag(v))
		h := (uint64(v) * 0x9E3779B97F4A7C15) >> (64 - distinctSketchLogBits)
		sketch[h>>6] |= 1 << (h & 63)
		if i == 0 {
			continue
		}
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		d := v - prev
		st.DeltaHist.Observe(bitpack.Zigzag(d))
		if d < st.DeltaMin {
			st.DeltaMin = d
		}
		if d > st.DeltaMax {
			st.DeltaMax = d
		}
		if v != prev {
			st.Runs++
			if rl := int64(i - runStart); rl > maxRunLen {
				maxRunLen = rl
			}
			runStart = i
			rd := v - prevRunHead
			rh.hist.Observe(bitpack.Zigzag(rd))
			rh.min, rh.max = min(rh.min, rd), max(rh.max, rd)
			prevRunHead = v
		}
		prev = v
	}
	if rl := int64(len(src) - runStart); rl > maxRunLen {
		maxRunLen = rl
	}
	st.MaxRunLen = maxRunLen

	ones := 0
	for _, w := range sketch {
		ones += bits.OnesCount64(w)
	}
	s.PutU64(sketch)
	st.DistinctFloor = ones
	const m = 1 << distinctSketchLogBits
	if ones >= m {
		st.Distinct = DistinctCap + 1
	} else {
		est := int(float64(m)*math.Log(float64(m)/float64(m-ones)) + 0.5)
		if est < 1 {
			est = 1
		}
		if est > DistinctCap {
			est = DistinctCap + 1
		}
		st.Distinct = est
	}
	return st, rh
}

// TestCollectStatsSmall pins the collector on a column small enough
// to check by hand.
func TestCollectStatsSmall(t *testing.T) {
	st := CollectStats([]int64{5, 5, 3, 3, 3, 9}, nil)
	want := BlockStats{
		N: 6, Min: 3, Max: 9, HasMinMax: true,
		Runs: 3, MaxRunLen: 3, HasRuns: true,
		DeltaMin: -2, DeltaMax: 6, HasDeltas: true,
		HasValueHist: true, Distinct: 3, DistinctFloor: 3, HasDistinct: true,
		SegLen: StatsSegLen, SegMin: []int64{3}, SegMax: []int64{9},
		OffsetSegLen: StatsProbeSegLen,
	}
	want.DeltaHist = bitpack.HistogramOf([]uint64{0, bitpack.Zigzag(-2), 0, 0, bitpack.Zigzag(6)})
	want.ValueHist = bitpack.HistogramOf([]uint64{10, 10, 6, 6, 6, 18})
	want.OffsetHist = bitpack.HistogramOf([]uint64{0, 0, 0, 0, 0, 6})
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("stats =\n%+v\nwant\n%+v", st, want)
	}
	runHeads := bitpack.HistogramOf([]uint64{bitpack.Zigzag(-2), bitpack.Zigzag(6)})
	if got := st.RunHeadDeltaHist(); got != runHeads {
		t.Fatalf("run-head delta histogram = %+v, want %+v", got, runHeads)
	}
}

// TestCollectStatsMatchesReference drives random columns of every
// length around the segment and probe boundaries through both
// collectors and requires identical results, field for field, and the
// reference's run-head deltas bounded by the delta bounds and
// histogrammed by RunHeadDeltaHist.
func TestCollectStatsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var held int64
	gens := []func() int64{
		func() int64 { return rng.Int63n(8) },                 // long runs
		func() int64 { return rng.Int63n(1<<20) - 1<<19 },     // mixed signs
		func() int64 { return int64(rng.Uint64()) },           // full range: deltas wrap
		func() int64 { return math.MaxInt64 - rng.Int63n(3) }, // pinned to an extreme
		func() int64 { return math.MinInt64 + rng.Int63n(3) },
		func() int64 { // runs long enough to cross segment and probe boundaries
			if rng.Intn(150) == 0 {
				held = rng.Int63n(1<<30) - 1<<29
			}
			return held
		},
	}
	for n := 0; n <= 1300; n++ {
		gen := gens[n%len(gens)]
		src := make([]int64, n)
		walk := n%2 == 0
		for i := range src {
			src[i] = gen()
			if walk && i > 0 && n%len(gens) < 2 {
				src[i] += src[i-1] // monotone-ish prefixes
			}
		}
		got := CollectStats(src, nil)
		want, rh := collectStatsReference(src)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: stats =\n%+v\nreference\n%+v", n, got, want)
		}
		if got.DeltaMin != rh.min || got.DeltaMax != rh.max {
			t.Fatalf("n=%d: delta bounds [%d, %d], run-head delta bounds [%d, %d]",
				n, got.DeltaMin, got.DeltaMax, rh.min, rh.max)
		}
		if hist := got.RunHeadDeltaHist(); hist != rh.hist {
			t.Fatalf("n=%d: run-head delta histogram = %+v, reference %+v", n, hist, rh.hist)
		}
		s := GetScratch()
		pooled := CollectStats(src, s)
		if !reflect.DeepEqual(pooled, want) {
			t.Fatalf("n=%d: pooled stats differ from reference", n)
		}
		pooled.ReleaseSeg(s)
		s.Release()
	}
}

// TestCurvature pins the floors' extra pass to its definition — the
// widest second difference over the triples inside one base segment —
// and to its refusals: no column at hand, or a value beyond ±2^60.
func TestCurvature(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, 3, 127, 128, 129, 130, 131, 1000} {
		src := make([]int64, n)
		for i := range src {
			src[i] = rng.Int63n(1<<20) - 1<<19
		}
		var want uint64
		for i := 0; i+2 < n; i++ {
			if i/StatsSegLen == (i+2)/StatsSegLen {
				d := src[i] - 2*src[i+1] + src[i+2]
				want = max(want, uint64(max(d, -d)))
			}
		}
		st := CollectStats(src, nil)
		if _, ok := st.Curvature(); ok {
			t.Fatalf("n=%d: curvature without the column", n)
		}
		st.column = src
		if got, ok := st.Curvature(); !ok || got != want {
			t.Fatalf("n=%d: curvature = %d, %v; want %d", n, got, ok, want)
		}
	}
	// Lines that jump at every segment boundary curve only across it.
	saw := make([]int64, 3*StatsSegLen)
	for i := range saw {
		saw[i] = int64(i%StatsSegLen) * 1000
	}
	st := CollectStats(saw, nil)
	st.column = saw
	if got, ok := st.Curvature(); !ok || got != 0 {
		t.Fatalf("sawtooth curvature = %d, %v; want 0", got, ok)
	}
	wide := []int64{0, 1 << 61, 0}
	st = CollectStats(wide, nil)
	st.column = wide
	if _, ok := st.Curvature(); ok {
		t.Fatal("curvature over a value beyond 2^60")
	}
}
