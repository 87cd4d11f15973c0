package vec

import (
	"fmt"
	"sort"
)

// RunExpand materializes run-length encoded data: values[i] is
// repeated lengths[i] times, in order. It is the fused equivalent of
// the Scatter/PrefixSum/Gather tail of Algorithm 1 and is what a
// practical engine executes once the plan has been recognized.
//
// Negative lengths are an error; zero lengths are permitted and
// contribute no output.
func RunExpand(values, lengths []int64) ([]int64, error) {
	if len(values) != len(lengths) {
		return nil, fmt.Errorf("%w: values %d, lengths %d", ErrLengthMismatch, len(values), len(lengths))
	}
	var n int64
	for i, l := range lengths {
		if l < 0 {
			return nil, fmt.Errorf("vec: RunExpand: negative run length %d at run %d", l, i)
		}
		n += l
	}
	out := make([]int64, n)
	pos := 0
	for i, l := range lengths {
		v := values[i]
		for j := int64(0); j < l; j++ {
			out[pos] = v
			pos++
		}
	}
	return out, nil
}

// RunExpandInto is the into-destination form of RunExpand; dst must
// have length equal to the sum of lengths.
func RunExpandInto(dst, values, lengths []int64) ([]int64, error) {
	if len(values) != len(lengths) {
		return nil, fmt.Errorf("%w: values %d, lengths %d", ErrLengthMismatch, len(values), len(lengths))
	}
	pos := 0
	for i, l := range lengths {
		if l < 0 {
			return nil, fmt.Errorf("vec: RunExpandInto: negative run length %d at run %d", l, i)
		}
		if pos+int(l) > len(dst) {
			return nil, fmt.Errorf("%w: runs total more than destination length %d", ErrLengthMismatch, len(dst))
		}
		v := values[i]
		for j := int64(0); j < l; j++ {
			dst[pos] = v
			pos++
		}
	}
	if pos != len(dst) {
		return nil, fmt.Errorf("%w: runs total %d, destination length %d", ErrLengthMismatch, pos, len(dst))
	}
	return dst, nil
}

// ExpandByBoundariesInto materializes run data given exclusive run end
// positions (the run_positions column of the RPE scheme) into dst: run
// i covers output elements [bounds[i-1], bounds[i]). bounds must be
// non-decreasing, and dst must have length equal to the final boundary
// (or 0 for no runs).
func ExpandByBoundariesInto(dst, values, bounds []int64) ([]int64, error) {
	if len(values) != len(bounds) {
		return nil, fmt.Errorf("%w: values %d, bounds %d", ErrLengthMismatch, len(values), len(bounds))
	}
	total := int64(0)
	if len(bounds) > 0 {
		total = bounds[len(bounds)-1]
	}
	if total != int64(len(dst)) {
		return nil, fmt.Errorf("%w: boundaries total %d, destination length %d", ErrLengthMismatch, total, len(dst))
	}
	var start int64
	for i, end := range bounds {
		if end < start {
			return nil, fmt.Errorf("vec: ExpandByBoundariesInto: decreasing boundary %d after %d at run %d", end, start, i)
		}
		if end > total {
			return nil, fmt.Errorf("vec: ExpandByBoundariesInto: boundary %d at run %d exceeds total length %d", end, i, total)
		}
		v := values[i]
		for j := start; j < end; j++ {
			dst[j] = v
		}
		start = end
	}
	return dst, nil
}

// ReplicateSegments returns out[i] = refs[i/segLen] for i in [0, n).
// It is the Gather(refs, id ÷ ℓ) idiom of Algorithm 2 — the evaluation
// of a fixed-segment-length step function — fused into one pass.
func ReplicateSegments(refs []int64, segLen, n int) ([]int64, error) {
	if segLen <= 0 {
		return nil, fmt.Errorf("vec: ReplicateSegments: non-positive segment length %d", segLen)
	}
	if n < 0 {
		return nil, fmt.Errorf("%w: %d", ErrNegativeLength, n)
	}
	need := (n + segLen - 1) / segLen
	if len(refs) < need {
		return nil, fmt.Errorf("vec: ReplicateSegments: %d refs cover %d elements, need %d", len(refs), len(refs)*segLen, n)
	}
	out := make([]int64, n)
	for s := 0; s < need; s++ {
		v := refs[s]
		end := (s + 1) * segLen
		if end > n {
			end = n
		}
		for i := s * segLen; i < end; i++ {
			out[i] = v
		}
	}
	return out, nil
}

// SelectRange returns the positions i with lo <= src[i] <= hi. It is
// the selection operator of the paper's range-query discussion.
func SelectRange(src []int64, lo, hi int64) []int64 {
	out := make([]int64, 0, len(src)/4+1)
	for i, v := range src {
		if v >= lo && v <= hi {
			out = append(out, int64(i))
		}
	}
	return out
}

// CountRange returns how many elements of src fall in [lo, hi]. One
// unsigned compare tests both bounds, so the loop carries no
// data-dependent branch.
func CountRange(src []int64, lo, hi int64) int64 {
	if lo > hi {
		return 0
	}
	var c int64
	span := uint64(hi) - uint64(lo)
	for _, v := range src {
		if uint64(v)-uint64(lo) <= span {
			c++
		}
	}
	return c
}

// SumRange returns the wrapping sum and the count of the elements of
// src that fall in [lo, hi] — CountRange's filter fused with the
// aggregate, on the same single unsigned compare, so the loop carries
// no data-dependent branch either.
func SumRange(src []int64, lo, hi int64) (sum, count int64) {
	if lo > hi {
		return 0, 0
	}
	span := uint64(hi) - uint64(lo)
	for _, v := range src {
		var in int64
		if uint64(v)-uint64(lo) <= span {
			in = 1
		}
		sum += v & -in
		count += in
	}
	return sum, count
}

// Sum returns the sum of src. Overflow wraps, matching Go integer
// semantics; callers that need exactness bound their inputs.
func Sum(src []int64) int64 {
	var acc int64
	for _, v := range src {
		acc += v
	}
	return acc
}

// MinMax returns the minimum and maximum of src. It requires a
// non-empty input.
func MinMax(src []int64) (minV, maxV int64, err error) {
	if len(src) == 0 {
		return 0, 0, fmt.Errorf("vec: MinMax: %w", ErrEmptyInput)
	}
	minV, maxV = src[0], src[0]
	for _, v := range src[1:] {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	return minV, maxV, nil
}

// LowerBound returns the smallest index i in the sorted column src
// with src[i] >= v, or len(src) if no such element exists. RPE's
// positional lookups use it to map row numbers to runs.
func LowerBound(src []int64, v int64) int {
	return sort.Search(len(src), func(i int) bool { return src[i] >= v })
}

// UpperBound returns the smallest index i in the sorted column src
// with src[i] > v, or len(src).
func UpperBound(src []int64, v int64) int {
	return sort.Search(len(src), func(i int) bool { return src[i] > v })
}

// Equal reports whether two columns have identical lengths and
// contents.
func Equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
