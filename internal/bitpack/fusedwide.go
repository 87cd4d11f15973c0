package bitpack

import (
	"fmt"
	"math/bits"
)

// This file exposes the sums, the dictionary gather and the running
// sums of a delta form over a packed payload, which the dict/RLE/RPE/
// model scheme family scans through (DESIGN.md §1.12). The sums walk
// the payload's blocks as the range scans of fused.go do, allocating
// nothing. Up to 16 bits the sums under a mask and over a range, and
// the zigzag sum, are lane parallel: a sum over a range is the select
// kernel's mask, then the masked sum of the lanes it keeps.
//
// Sums are wrapping (mod 2^64); callers accumulate into int64 with
// two's-complement wrap, matching the documented Column.Sum
// semantics. The ZZ entry points take signed bounds and compare in
// the signed domain, as the ZZ range scans do.

// SumU sums the values at positions [start, start+count) of the
// packed width-w payload, wrapping mod 2^64.
func SumU(packed []uint64, start, count int, w uint) (uint64, error) {
	return sumValues(packed, start, count, w, false)
}

// SumZZ sums the zigzag-decoded signed values at positions
// [start, start+count) of the packed width-w payload, wrapping.
func SumZZ(packed []uint64, start, count int, w uint) (int64, error) {
	s, err := sumValues(packed, start, count, w, true)
	return int64(s), err
}

// sumValues sums the values at positions [start, start+count),
// zigzag-decoded when zz. The lanes edgeBlock clears read 0 and add
// nothing.
func sumValues(packed []uint64, start, count int, w uint, zz bool) (uint64, error) {
	if err := checkFusedRange(packed, start, count, w); err != nil {
		return 0, err
	}
	var s uint64
	for p, end := start, start+count; p < end; p = p&^63 + BlockLen {
		if src, ok := whole(packed, p, end, w); ok {
			s += sumBlock(src, zz)
			continue
		}
		var buf [BlockLen]uint64
		src, _ := edgeBlock(packed, p, end, w, &buf)
		s += sumBlock(src, zz)
	}
	return s, nil
}

// MaxMaskedWidth is the widest bit width SumMaskedU takes: up to it a
// block's selected values are added lane by lane on the packed words
// (DESIGN.md §1.7), and wider payloads have no masked kernel.
const MaxMaskedWidth = uint(len(sumMaskedFuncs) - 1)

// sparseMasked is the most set bits of a mask whose values SumMaskedU
// reads one at a time: the masked kernel costs the same whatever the
// mask, about what reading five or six values does.
const sparseMasked = 4

// SumMaskedU returns the wrapping sum of the values of the 64-value
// block at positions [start, start+64) of the packed width-w payload
// whose bit is set in m (bit j = position start+j). The block is not
// unpacked: a sparse mask reads just its values, and any other goes
// through the masked kernel. start must be a multiple of 64 and w at
// most MaxMaskedWidth. No memory is allocated.
func SumMaskedU(packed []uint64, start int, w uint, m uint64) (uint64, error) {
	// One test on the hot path: a selection sum calls this per 64 rows.
	b := start >> 6
	if w > MaxMaskedWidth || start < 0 || start&(BlockLen-1) != 0 || (b+1)*int(w) > len(packed) {
		return 0, maskedSumError(packed, start, w)
	}
	if w == 0 {
		return 0, nil
	}
	src := packed[b*int(w) : (b+1)*int(w)]
	if bits.OnesCount64(m) > sparseMasked {
		return sumMaskedFuncs[w](src, m), nil
	}
	var s uint64
	for ; m != 0; m &= m - 1 {
		s += ValueAt(src, bits.TrailingZeros64(m), w)
	}
	return s, nil
}

// maskedSumError says why SumMaskedU refused its arguments.
func maskedSumError(packed []uint64, start int, w uint) error {
	switch {
	case w > MaxMaskedWidth:
		return fmt.Errorf("%w: masked sum width %d exceeds %d", ErrWidth, w, MaxMaskedWidth)
	case start < 0 || start&(BlockLen-1) != 0:
		return fmt.Errorf("bitpack: masked sum at position %d, not a block start", start)
	}
	return checkFusedRange(packed, start, BlockLen, w)
}

// SumRangeU sums and counts the values at positions
// [start, start+count) that lie in [lo, hi] (unsigned).
func SumRangeU(packed []uint64, start, count int, w uint, lo, hi uint64) (sum uint64, n int64, err error) {
	return sumRange(packed, start, count, w, lo, hi, false)
}

// SumRangeZZ is SumRangeU for zigzag payloads: bounds are signed and
// the returned sum is the wrapping int64 sum of the decoded values
// inside [lo, hi].
func SumRangeZZ(packed []uint64, start, count int, w uint, lo, hi int64) (sum int64, n int64, err error) {
	s, n, err := sumRange(packed, start, count, w, uint64(lo), uint64(hi), true)
	return int64(s), n, err
}

// sumRange sums and counts the values at positions [start, start+count)
// inside [lo, hi], as countRange counts them. The lanes edgeBlock clears
// add nothing to the sum, and cleared takes them back out of the count.
func sumRange(packed []uint64, start, count int, w uint, lo, hi uint64, zz bool) (sum uint64, n int64, err error) {
	if err := checkFusedRange(packed, start, count, w); err != nil || inverted(lo, hi, zz) {
		return 0, 0, err
	}
	span := hi - lo
	for p, end := start, start+count; p < end; p = p&^63 + BlockLen {
		if src, ok := whole(packed, p, end, w); ok {
			s, c := sumInRangeBlock(src, lo, span, zz)
			sum, n = sum+s, n+int64(c)
			continue
		}
		var buf [BlockLen]uint64
		src, lanes := edgeBlock(packed, p, end, w, &buf)
		s, c := sumInRangeBlock(src, lo, span, zz)
		sum, n = sum+s, n+int64(c-cleared(lanes, lo, span))
	}
	return sum, n, nil
}

// GatherU decodes the codes at positions [start, start+count) of the
// packed width-w payload and gathers tab through them into
// dst[0:count] — the dict decode loop fused into the unpack. A code
// outside tab reports ErrCorrupt. No memory is allocated.
func GatherU(packed []uint64, start, count int, w uint, tab, dst []int64) error {
	if err := checkFusedRange(packed, start, count, w); err != nil {
		return err
	}
	if len(dst) < count {
		return fmt.Errorf("%w: gather dst holds %d of %d values", ErrCorrupt, len(dst), count)
	}
	for p, end := start, start+count; p < end; p = p&^63 + BlockLen {
		if src, ok := whole(packed, p, end, w); ok {
			if !gatherBlock(src, tab, dst[p-start:]) {
				return errCode(tab)
			}
			continue
		}
		var buf [BlockLen]uint64
		var out [BlockLen]int64 // the edge's gather, before its lanes in range are copied to dst
		src, _ := edgeBlock(packed, p, end, w, &buf)
		if !gatherBlock(src, tab, out[:]) {
			return errCode(tab)
		}
		copy(dst[p-start:end-start], out[p&63:])
	}
	return nil
}

// errCode is GatherU's error for a code outside tab.
func errCode(tab []int64) error {
	return fmt.Errorf("%w: dict code outside table of %d entries", ErrCorrupt, len(tab))
}

// PrefixRange returns the bitmap of which of the values a delta form
// decodes to — x plus the running sums of the 64 values at positions
// [start, start+64) of the packed width-w payload, each zigzag-decoded
// when zz, wrapping as int64 addition does — lie inside [lo, hi] (bit
// j for position start+j), and the last of them. start must be a
// multiple of 64. No memory is allocated.
func PrefixRange(packed []uint64, start int, w uint, zz bool, x, lo, hi int64) (m uint64, last int64, err error) {
	if err := checkFusedRange(packed, start, BlockLen, w); err != nil {
		return 0, 0, err
	}
	if start&(BlockLen-1) != 0 {
		return 0, 0, fmt.Errorf("bitpack: prefix range at position %d, not a block start", start)
	}
	src := packed[start>>6*int(w):]
	span := uint64(hi) - uint64(lo)
	if w >= 1 && int(w) < len(prefixRangeFuncs) && span != ^uint64(0) {
		if zz {
			m, last = prefixRangeZZFuncs[w](src, x, uint64(lo), span)
		} else {
			m, last = prefixRangeFuncs[w](src, x, uint64(lo), span)
		}
		return m, last, nil
	}
	for j := range BlockLen {
		x += valueAt(src, j, w, zz)
		if uint64(x)-uint64(lo) <= span {
			m |= 1 << uint(j)
		}
	}
	return m, x, nil
}

// PrefixMaskedSum returns the wrapping sum of the values a delta form
// decodes to — x plus the running sums of the packed width-w payload's
// values, each zigzag-decoded when zz — at the positions [0, n) whose
// bit is set in masks (bit j of masks[i] is position 64i+j), and the
// running sum at position n-1 (x when n is 0). A block with an empty
// mask is passed over by its sum kernel; the others run a fused
// prefix-and-masked-sum kernel. No memory is allocated.
func PrefixMaskedSum(packed []uint64, n int, w uint, zz bool, x int64, masks []uint64) (sum, last int64, err error) {
	if err := checkFusedRange(packed, 0, n, w); err != nil {
		return 0, 0, err
	}
	if nb := (n + BlockLen - 1) / BlockLen; len(masks) < nb {
		return 0, 0, fmt.Errorf("bitpack: %d masks for %d blocks", len(masks), nb)
	}
	full := n / BlockLen
	if w >= 1 && int(w) < len(prefixMaskedFuncs) {
		kernel := prefixMaskedFuncs[w]
		if zz {
			kernel = prefixMaskedZZFuncs[w]
		}
		for b, m := range masks[:full] {
			src := packed[b*int(w) : (b+1)*int(w)]
			if m == 0 {
				x += int64(sumBlock(src, zz))
				continue
			}
			s, last := kernel(src, x, m)
			sum, x = sum+s, last
		}
	} else {
		for b, m := range masks[:full] {
			for j := range BlockLen {
				x += valueAt(packed, b*BlockLen+j, w, zz)
				sum += x & (int64(m<<(63-j)) >> 63)
			}
		}
	}
	for j := 0; full*BlockLen+j < n; j++ {
		x += valueAt(packed, full*BlockLen+j, w, zz)
		sum += x & (int64(masks[full]<<(63-j)) >> 63)
	}
	return sum, x, nil
}

// valueAt is ValueAt, zigzag-decoded when zz.
func valueAt(packed []uint64, i int, w uint, zz bool) int64 {
	u := ValueAt(packed, i, w)
	if zz {
		return Unzigzag(u)
	}
	return int64(u)
}

// BlockSums writes into dst[i] the wrapping sum of the values at
// positions [64i, min(64i+64, n)) of the packed width-w payload of n
// values, each zigzag-decoded when zz: one sum kernel call a block.
// dst must hold a sum for every block. No memory is allocated.
func BlockSums(packed []uint64, n int, w uint, zz bool, dst []int64) error {
	if err := checkFusedRange(packed, 0, n, w); err != nil {
		return err
	}
	nb := (n + BlockLen - 1) / BlockLen
	if len(dst) < nb {
		return fmt.Errorf("bitpack: %d block sums into %d values", nb, len(dst))
	}
	for b := range dst[:nb] {
		if src, ok := whole(packed, b*BlockLen, n, w); ok {
			dst[b] = int64(sumBlock(src, zz))
			continue
		}
		var buf [BlockLen]uint64
		src, _ := edgeBlock(packed, b*BlockLen, n, w, &buf)
		dst[b] = int64(sumBlock(src, zz))
	}
	return nil
}
