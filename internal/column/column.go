package column

import (
	"math/bits"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
)

// distinctCap bounds the exact distinct-counting work; beyond it the
// count is reported as saturated (Distinct == distinctCap+1).
const distinctCap = 1 << 16

// Stats summarizes a logical column for scheme selection and cost
// estimation. It is the public-facing projection of the richer
// core.BlockStats the encode path collects; unlike the hot-path
// collector's sketch, Distinct here is exact up to distinctCap.
type Stats struct {
	// N is the number of elements.
	N int
	// Min and Max are the extreme values (zero for empty columns).
	Min, Max int64
	// Runs is the number of maximal runs of equal values.
	Runs int
	// MaxRunValueWidth is the bit width needed for zigzagged run
	// values.
	MaxRunValueWidth uint
	// NonDecreasing and NonIncreasing report monotonicity.
	NonDecreasing, NonIncreasing bool
	// MaxDeltaWidth is the bit width needed for zigzagged
	// consecutive differences (DELTA keeps the first value as a
	// parameter, so it sets no width).
	MaxDeltaWidth uint
	// ValueWidth is the bit width needed for zigzagged values.
	ValueWidth uint
	// RangeWidth is the bit width of (Max - Min), i.e. the offset
	// width a global frame of reference would need.
	RangeWidth uint
	// Distinct is the exact distinct count up to distinctCap,
	// saturating at distinctCap+1.
	Distinct int
	// SumAbsDelta accumulates the distance |x[i] − x[i−1]| between
	// consecutive elements, each taken exactly (a distance between two
	// int64s fits a uint64) and summed modulo 2^64; SumAbsDelta/N
	// estimates local variation for FOR suitability.
	SumAbsDelta uint64
}

// Analyze computes Stats over src. The width and run structure come
// from the shared one-pass collector (core.CollectStats); one more
// pass takes what no encode decision reads — monotonicity, the sum of
// absolute deltas and the exact distinct count, with a hash set where
// the encode hot path uses the collector's sketch estimate.
func Analyze(src []int64) Stats {
	bs := core.CollectStats(src, nil)
	s := Stats{
		N:             bs.N,
		Min:           bs.Min,
		Max:           bs.Max,
		Runs:          bs.Runs,
		NonDecreasing: true,
		NonIncreasing: true,
	}
	if bs.N > 0 {
		// Every element's value is some run's head value, so the
		// widest zigzagged value — derivable from the extremes —
		// covers both widths.
		s.ValueWidth = widthMinMax(bs.Min, bs.Max)
		s.MaxRunValueWidth = s.ValueWidth
		s.MaxDeltaWidth = bs.DeltaHist.MaxWidth()
		s.RangeWidth = uint(bits.Len64(uint64(bs.Max - bs.Min)))
	}

	distinct := make(map[int64]struct{}, 256)
	for i, v := range src {
		if len(distinct) <= distinctCap {
			distinct[v] = struct{}{}
		}
		if i == 0 {
			continue
		}
		prev := src[i-1]
		switch {
		case v < prev:
			s.NonDecreasing = false
			s.SumAbsDelta += uint64(prev) - uint64(v)
		case v > prev:
			s.NonIncreasing = false
			s.SumAbsDelta += uint64(v) - uint64(prev)
		}
	}
	s.Distinct = len(distinct)
	if s.Distinct > distinctCap {
		s.Distinct = distinctCap + 1
	}
	return s
}

// widthMinMax returns the width of the widest zigzagged value in a
// column with the given extremes (attained at Min or Max).
func widthMinMax(minV, maxV int64) uint {
	wmin := uint(bits.Len64(bitpack.Zigzag(minV)))
	wmax := uint(bits.Len64(bitpack.Zigzag(maxV)))
	if wmin > wmax {
		return wmin
	}
	return wmax
}

// AvgRunLength returns N/Runs, the mean run length (0 for empty
// columns).
func (s Stats) AvgRunLength() float64 {
	if s.Runs == 0 {
		return 0
	}
	return float64(s.N) / float64(s.Runs)
}

// DistinctSaturated reports whether the distinct count hit its cap.
func (s Stats) DistinctSaturated() bool { return s.Distinct > distinctCap }

// Monotone reports whether the column is non-decreasing or
// non-increasing.
func (s Stats) Monotone() bool { return s.NonDecreasing || s.NonIncreasing }
