package core

import (
	"math"
	"math/bits"

	"lwcomp/internal/bitpack"
)

// BlockStats is the one-pass statistical summary of a block that
// drives the statistics-driven encode path: instead of
// trial-compressing every candidate scheme on every block, the
// analyzer predicts each candidate's encoded size from these numbers
// (SizeEstimator) and compresses only those a prediction cannot
// settle.
//
// All fields describe the logical column handed to CollectStats. The
// Has* flags report which field groups are populated; the collector
// sets all of them, while stats *derived* for constituent columns by
// ConstituentStatser implementations populate only what the parent's
// stats determine.
type BlockStats struct {
	// N is the number of elements.
	N int
	// Min and Max are the extreme values (zero for empty columns).
	Min, Max int64
	// HasMinMax reports Min/Max validity.
	HasMinMax bool

	// Runs is the number of maximal runs of equal values.
	Runs int
	// MaxRunLen is the length of the longest run.
	MaxRunLen int64
	// HasRuns reports Runs/MaxRunLen validity.
	HasRuns bool

	// DeltaMin and DeltaMax bound the deltas DELTA would store: the
	// consecutive deltas and the first delta, 0. They also bound the
	// deltas between consecutive run heads (RunHeadDeltaHist): those
	// are the non-zero consecutive deltas, and a zero delta moves
	// neither bound, which the first delta already holds at 0.
	DeltaMin, DeltaMax int64
	// DeltaHist is the width histogram of zigzagged consecutive
	// deltas, excluding the first delta.
	DeltaHist bitpack.WidthHistogram
	// HasDeltas reports Delta* validity.
	HasDeltas bool

	// ValueHist is the width histogram of zigzagged values.
	ValueHist bitpack.WidthHistogram
	// HasValueHist reports ValueHist validity.
	HasValueHist bool

	// Distinct is a linear-counting estimate of the distinct-value
	// count, saturating at DistinctCap+1.
	Distinct int
	// DistinctFloor is the number of bits the distinct values set in
	// the linear-counting sketch. Every set bit was set by at least one
	// distinct value, so the true distinct count is never below it.
	DistinctFloor int
	// HasDistinct reports Distinct/DistinctFloor validity.
	HasDistinct bool

	// SegLen is the base segment granularity of SegMin/SegMax
	// (StatsSegLen when collected; 0 when absent).
	SegLen int
	// SegMin and SegMax hold per-base-segment extreme values. They
	// may be scratch-borrowed: callers that pass a Scratch to
	// CollectStats return them with ReleaseSeg.
	SegMin, SegMax []int64

	// OffsetSegLen is the probe segment length of OffsetHist
	// (StatsProbeSegLen when collected; 0 when absent).
	OffsetSegLen int
	// OffsetHist is the width histogram of each element's offset
	// from its probe segment's running minimum — a one-pass
	// approximation of the frame-of-reference offset distribution
	// that patch-width estimation consumes. The running minimum
	// (rather than the segment's first element) keeps a leading
	// outlier from shifting the whole histogram; it can only
	// understate the final min-referenced offsets, so estimates err
	// toward trialing the patched candidate.
	OffsetHist bitpack.WidthHistogram

	// column is the column these stats describe, set only on the
	// private copy the analyzer computes floors through when a floor
	// may take Curvature's one extra pass; curvature caches it.
	column         []int64
	curvature      uint64
	curvatureKnown bool
}

// StatsSegLen is the base granularity of BlockStats.SegMin/SegMax.
// Frame-of-reference estimates are exact for any segment length that
// is a positive multiple of it.
const StatsSegLen = 128

// StatsProbeSegLen is the probe segment length of
// BlockStats.OffsetHist, matching the default FOR/PFOR segment
// length.
const StatsProbeSegLen = 1024

// DistinctCap bounds the distinct-count estimate; beyond it the count
// is reported as saturated (Distinct == DistinctCap+1).
const DistinctCap = 1 << 16

// distinctSketchLogBits sizes the linear-counting bitmap: 2^13 bits
// (128 words) keeps the per-block footprint at 1KiB while estimating
// counts well below DistinctCap with small relative error.
const distinctSketchLogBits = 13

const distinctSketchWords = (1 << distinctSketchLogBits) / 64

// distinctSketchBit returns the sketch bit a value sets.
func distinctSketchBit(v int64) uint64 {
	return (uint64(v) * 0x9E3779B97F4A7C15) >> (64 - distinctSketchLogBits)
}

// CollectStats computes BlockStats over src in one pass. Temporaries
// (the distinct sketch) and the per-segment extreme arrays come from
// s when non-nil; the segment arrays escape in the result, so callers
// threading a scratch must return them with ReleaseSeg when done.
//
// The pass walks one base segment at a time with everything it
// accumulates per element — the segment's extremes, the probe
// minimum, the three width histograms — in locals, so the inner loop
// carries no index arithmetic and no loads or stores through the
// result; the column's extremes fold up from the segments'.
func CollectStats(src []int64, s *Scratch) BlockStats {
	var st BlockStats
	st.N = len(src)
	st.HasMinMax, st.HasRuns, st.HasDeltas = true, true, true
	st.HasValueHist, st.HasDistinct = true, true
	st.SegLen = StatsSegLen
	st.OffsetSegLen = StatsProbeSegLen
	if len(src) == 0 {
		return st
	}

	nseg := (len(src) + StatsSegLen - 1) / StatsSegLen
	st.SegMin = s.I64(nseg)
	st.SegMax = s.I64(nseg)
	sketchBuf := s.U64(distinctSketchWords)
	sketch := (*[distinctSketchWords]uint64)(sketchBuf)
	clear(sketch[:])

	first := src[0]
	var offsets, values, deltas [65]int
	minV, maxV := first, first
	var deltaMin, deltaMax int64 // the first delta is 0
	runLen, maxRunLen := 1, 0
	prev, probeMin := first, first
	// The first element has no delta and starts the first run: it is
	// observed here, and the walk below starts after it. offW and valW
	// are the histogram classes of the latest element observed in
	// full; an element equal to its predecessor within a segment
	// falls in the same classes, moves no extreme and sets no new
	// sketch bit, so such repeats are only counted, and credited in
	// bulk when the next element that differs (or the next segment,
	// where the probe minimum may restart) is observed. runLen is the
	// current run's length up to the latest element observed in full;
	// credited repeats extend it.
	offW, valW, repeats := 0, bits.Len64(bitpack.Zigzag(first)), 0
	offsets[offW]++
	values[valW]++
	h := distinctSketchBit(first)
	sketch[h>>6] |= 1 << (h & 63)
	for seg := 0; seg < nseg; seg++ {
		lo := seg * StatsSegLen
		if lo%StatsProbeSegLen == 0 {
			probeMin = src[lo]
		}
		part := src[lo:min(lo+StatsSegLen, len(src))]
		segMin, segMax := part[0], part[0]
		for j := max(1-lo, 0); j < len(part); j++ {
			v := part[j]
			if v == prev && j > 0 {
				repeats++
				continue
			}
			if repeats > 0 {
				offsets[offW] += repeats
				values[valW] += repeats
				deltas[0] += repeats
				runLen += repeats
				repeats = 0
			}
			segMin, segMax = min(segMin, v), max(segMax, v)
			probeMin = min(probeMin, v)
			offW, valW = bits.Len64(uint64(v-probeMin)), bits.Len64(bitpack.Zigzag(v))
			offsets[offW]++
			values[valW]++
			h = distinctSketchBit(v)
			sketch[h>>6] |= 1 << (h & 63)
			d := v - prev
			deltas[bits.Len64(bitpack.Zigzag(d))]++
			deltaMin, deltaMax = min(deltaMin, d), max(deltaMax, d)
			// A non-zero delta starts a run; a zero one, only here at a
			// segment's first element, continues it.
			maxRunLen = max(maxRunLen, runLen)
			runLen++
			if d != 0 {
				runLen = 1
			}
			prev = v
		}
		st.SegMin[seg], st.SegMax[seg] = segMin, segMax
		minV, maxV = min(minV, segMin), max(maxV, segMax)
	}
	offsets[offW] += repeats
	values[valW] += repeats
	deltas[0] += repeats
	st.Min, st.Max = minV, maxV
	st.MaxRunLen = int64(max(maxRunLen, runLen+repeats))
	st.DeltaMin, st.DeltaMax = deltaMin, deltaMax
	st.OffsetHist = bitpack.WidthHistogram{Counts: offsets, N: len(src)}
	st.ValueHist = bitpack.WidthHistogram{Counts: values, N: len(src)}
	st.DeltaHist = bitpack.WidthHistogram{Counts: deltas, N: len(src) - 1}
	// Every non-zero delta starts a run, and only a zero has width 0.
	st.Runs = len(src) - deltas[0]

	ones := 0
	for _, w := range sketch {
		ones += bits.OnesCount64(w)
	}
	s.PutU64(sketchBuf)
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
	return st
}

// ReleaseSeg returns the scratch-borrowed per-segment arrays to s and
// clears them. Safe on stats collected without a scratch.
func (st *BlockStats) ReleaseSeg(s *Scratch) {
	s.PutI64(st.SegMin)
	s.PutI64(st.SegMax)
	st.SegMin, st.SegMax = nil, nil
	st.SegLen = 0
}

// AvgRunLength returns N/Runs, the mean run length (0 for empty
// columns).
func (st *BlockStats) AvgRunLength() float64 {
	if st.Runs == 0 {
		return 0
	}
	return float64(st.N) / float64(st.Runs)
}

// DistinctSaturated reports whether the distinct estimate hit its
// cap.
func (st *BlockStats) DistinctSaturated() bool { return st.Distinct > DistinctCap }

// RunHeadDeltaHist returns the width histogram of the zigzagged deltas
// between consecutive run heads, excluding the first: DELTA's deltas
// over RLE's values column. Every element of a run equals its head,
// so those deltas are the non-zero consecutive deltas, and only a
// zero has width 0.
func (st *BlockStats) RunHeadDeltaHist() bitpack.WidthHistogram {
	h := st.DeltaHist
	h.N -= h.Counts[0]
	h.Counts[0] = 0
	return h
}

// NSShape returns the width and zigzag flag the NS scheme would
// choose for a column with these stats — exactly, from Min/Max alone:
// with negatives present NS zigzags, and the widest zigzagged value
// is attained at Min or Max; without negatives the widest raw value
// is Max.
func (st *BlockStats) NSShape() (w uint, zigzag bool) {
	if st.N == 0 {
		return 0, false
	}
	if st.Min < 0 {
		wmin := bitpack.Width(bitpack.Zigzag(st.Min))
		wmax := bitpack.Width(bitpack.Zigzag(st.Max))
		if wmin > wmax {
			return wmin, true
		}
		return wmax, true
	}
	return bitpack.Width(uint64(st.Max)), false
}

// curvatureLimit bounds the values Curvature measures: inside
// ±2^60 every second difference fits an int64.
const curvatureLimit = 1 << 60

// Curvature returns Δ, the largest |x[i] − 2x[i+1] + x[i+2]| over the
// triples of consecutive elements that lie inside one base segment
// (StatsSegLen rows), taking one pass over the column the first time
// it is asked. ok is false when the column is not at hand (only the
// analyzer's floors carry it) or holds a value beyond ±2^60.
func (st *BlockStats) Curvature() (delta uint64, ok bool) {
	if st.column == nil || st.Min < -curvatureLimit || st.Max > curvatureLimit {
		return 0, false
	}
	if !st.curvatureKnown {
		var most int64
		for lo := 0; lo < len(st.column); lo += StatsSegLen {
			seg := st.column[lo:min(lo+StatsSegLen, len(st.column))]
			for i := 2; i < len(seg); i++ {
				d := seg[i-2] - 2*seg[i-1] + seg[i]
				most = max(most, (d^d>>63)-d>>63)
			}
		}
		st.curvature, st.curvatureKnown = uint64(most), true
	}
	return st.curvature, true
}

// SegFold folds the base per-segment extremes up to segment length
// segLen, returning the widest offset any segment would need under a
// minimum reference and the extreme references themselves. ok is
// false when base segment stats are absent or segLen is not a
// positive multiple of the base granularity.
func (st *BlockStats) SegFold(segLen int) (maxOffset uint64, refMin, refMax int64, ok bool) {
	if st.N == 0 {
		return 0, 0, 0, true
	}
	if st.SegLen <= 0 || st.SegMin == nil || segLen < st.SegLen || segLen%st.SegLen != 0 {
		return 0, 0, 0, false
	}
	group := segLen / st.SegLen
	nbase := len(st.SegMin)
	firstSeg := true
	for lo := 0; lo < nbase; lo += group {
		hi := lo + group
		if hi > nbase {
			hi = nbase
		}
		gmin, gmax := st.SegMin[lo], st.SegMax[lo]
		for i := lo + 1; i < hi; i++ {
			if st.SegMin[i] < gmin {
				gmin = st.SegMin[i]
			}
			if st.SegMax[i] > gmax {
				gmax = st.SegMax[i]
			}
		}
		if off := uint64(gmax - gmin); off > maxOffset {
			maxOffset = off
		}
		if firstSeg {
			refMin, refMax = gmin, gmin
			firstSeg = false
		} else {
			if gmin < refMin {
				refMin = gmin
			}
			if gmin > refMax {
				refMax = gmin
			}
		}
	}
	return maxOffset, refMin, refMax, true
}
