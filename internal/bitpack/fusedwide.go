package bitpack

import (
	"fmt"
	"math/bits"
)

// This file exposes the sums, the dictionary gather and the running
// sums of a delta form over a packed payload, which the dict/RLE/RPE/
// model scheme family scans through (DESIGN.md §1.12). The sums walk
// the payload in runs as the range scans of fused.go do, allocating
// nothing. Up to 16 bits the sums under masks and over a range, and the
// zigzag sum, are lane parallel: a sum over a range is the select
// kernel's masks, then the masked sum of the lanes they keep.
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
	for p, end := start, start+count; p < end; {
		if words, nb := run(packed, p, end, w); nb > 0 {
			s += sumRun(words, nb, w, zz)
			p += nb * BlockLen
			continue
		}
		var buf [BlockLen]uint64
		src, _ := edgeBlock(packed, p, end, w, &buf)
		s += sumRun(src, 1, w, zz)
		p = p&^63 + BlockLen
	}
	return s, nil
}

// MaxMaskedWidth is the widest bit width SumMaskedU takes: up to it a
// block's selected values are added lane by lane on the packed words
// (DESIGN.md §1.7), and wider payloads have no masked kernel.
const MaxMaskedWidth = uint(swarMaxWidth)

// sparseMasked is the most set bits of a mask whose values the masked
// sum reads one at a time: the masked kernel costs the same whatever
// the mask, about what reading five or six values does.
const sparseMasked = 4

// SumMaskedU returns the wrapping sum of the values of the whole
// 64-value blocks from position start of the packed width-w payload
// whose bit is set in their mask: bit j of masks[i] is position
// start+64i+j. The blocks are not unpacked: a block with an empty mask
// is passed over, a sparse mask reads just its values, and any other
// goes through the masked kernel. start must be a multiple of 64 and w
// at most MaxMaskedWidth. No memory is allocated.
func SumMaskedU(packed []uint64, start int, w uint, masks []uint64) (uint64, error) {
	b := start >> 6
	if w > MaxMaskedWidth || start < 0 || start&(BlockLen-1) != 0 || (b+len(masks))*int(w) > len(packed) {
		return 0, maskedSumError(packed, start, len(masks), w)
	}
	if w == 0 {
		return 0, nil
	}
	return sumMaskedRun(packed[b*int(w):][:len(masks)*int(w)], w, masks), nil
}

// maskedSumError says why SumMaskedU refused its arguments.
func maskedSumError(packed []uint64, start, blocks int, w uint) error {
	switch {
	case w > MaxMaskedWidth:
		return fmt.Errorf("%w: masked sum width %d exceeds %d", ErrWidth, w, MaxMaskedWidth)
	case start < 0 || start&(BlockLen-1) != 0:
		return fmt.Errorf("bitpack: masked sum at position %d, not a block start", start)
	}
	return checkFusedRange(packed, start, blocks*BlockLen, w)
}

// sumSparse returns the wrapping sum of the values of the block src, w
// bits each, whose bit is set in m, read one at a time.
func sumSparse(src []uint64, w uint, m uint64) uint64 {
	var s uint64
	for ; m != 0; m &= m - 1 {
		s += ValueAt(src, bits.TrailingZeros64(m), w)
	}
	return s
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
	for p, end := start, start+count; p < end; {
		if words, nb := run(packed, p, end, w); nb > 0 {
			s, c := sumRangeRun(words, nb, w, lo, span, zz)
			sum, n = sum+s, n+int64(c)
			p += nb * BlockLen
			continue
		}
		var buf [BlockLen]uint64
		src, lanes := edgeBlock(packed, p, end, w, &buf)
		s, c := sumRangeRun(src, 1, w, lo, span, zz)
		sum, n = sum+s, n+int64(c-cleared(lanes, lo, span))
		p = p&^63 + BlockLen
	}
	return sum, n, nil
}

// sumRangeRun sums and counts the values of the nb whole blocks of
// words inside [lo, lo+span]. A plain run of at most swarMaxWidth bits
// is the composition of two payload kernels, a stack buffer of masks at
// a time: selectRun's masks, then sumMaskedRun's sum of the lanes they
// keep. Every other run compares and adds each unpacked block in one
// loop.
func sumRangeRun(words []uint64, nb int, w uint, lo, span uint64, zz bool) (uint64, int) {
	if zz || w > swarMaxWidth {
		return sumInRangeLoop(words, nb, w, lo, span, zz)
	}
	var masks [BlockLen]uint64
	var s uint64
	n := 0
	for nb > 0 {
		k := min(nb, len(masks))
		run, m := words[:k*int(w)], masks[:k]
		clear(m)
		selectRun(run, k, w, lo, span, false, false, m, 0)
		for _, x := range m {
			n += bits.OnesCount64(x)
		}
		s += sumMaskedRun(run, w, m)
		words, nb = words[k*int(w):], nb-k
	}
	return s, n
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
	for p, end := start, start+count; p < end; {
		if words, nb := run(packed, p, end, w); nb > 0 {
			for b := range nb {
				if !gatherBlock(words[b*int(w):][:w], tab, dst[p-start+b*BlockLen:]) {
					return errCode(tab)
				}
			}
			p += nb * BlockLen
			continue
		}
		var buf [BlockLen]uint64
		var out [BlockLen]int64 // the edge's gather, before its lanes in range are copied to dst
		src, _ := edgeBlock(packed, p, end, w, &buf)
		if !gatherBlock(src, tab, out[:]) {
			return errCode(tab)
		}
		copy(dst[p-start:end-start], out[p&63:])
		p = p&^63 + BlockLen
	}
	return nil
}

// errCode is GatherU's error for a code outside tab.
func errCode(tab []int64) error {
	return fmt.Errorf("%w: dict code outside table of %d entries", ErrCorrupt, len(tab))
}

// PrefixRange writes into masks[g] which of the values a delta form
// decodes to — x plus the running sums of the values at positions
// [start, start+count) of the packed width-w payload, each
// zigzag-decoded when zz, wrapping as int64 addition does — lie inside
// [lo, hi], bit j for position start+64g+j, and returns the last of
// them. start must be a multiple of 64, and masks must hold a word for
// every 64 positions. No memory is allocated.
func PrefixRange(packed []uint64, start, count int, w uint, zz bool, x, lo, hi int64, masks []uint64) (last int64, err error) {
	if err := checkFusedRange(packed, start, count, w); err != nil {
		return 0, err
	}
	if start&(BlockLen-1) != 0 {
		return 0, fmt.Errorf("bitpack: prefix range at position %d, not a block start", start)
	}
	nb := (count + BlockLen - 1) / BlockLen
	if len(masks) < nb {
		return 0, fmt.Errorf("bitpack: %d masks for %d blocks", len(masks), nb)
	}
	span := uint64(hi) - uint64(lo)
	if words, full := run(packed, start, start+count, w); full > 0 {
		x = prefixRange(words, full, w, zz, x, uint64(lo), span, masks)
	}
	if p := start + count&^63; p < start+count {
		var buf [BlockLen]uint64
		src, lanes := edgeBlock(packed, p, start+count, w, &buf)
		x = prefixRange(src, 1, w, zz, x, uint64(lo), span, masks[nb-1:])
		masks[nb-1] &= lanes // a cleared lane adds 0 and repeats the last sum
	}
	return x, nil
}

// prefixRange is prefixRangeRun, or its loop for the window that holds
// every int64: the lane kernels test v-lo against span+1, which wraps
// to 0 there.
func prefixRange(words []uint64, nb int, w uint, zz bool, x int64, lo, span uint64, masks []uint64) int64 {
	if span == ^uint64(0) {
		return prefixRangeLoop(words, nb, w, zz, x, lo, span, masks)
	}
	return prefixRangeRun(words, nb, w, zz, x, lo, span, masks)
}

// prefixRangeLoop is prefixRangeRun's loop, one value at a time.
func prefixRangeLoop(words []uint64, nb int, w uint, zz bool, x int64, lo, span uint64, masks []uint64) int64 {
	for b := range nb {
		var m uint64
		for j := range BlockLen {
			x += valueAt(words, b*BlockLen+j, w, zz)
			if uint64(x)-lo <= span {
				m |= 1 << uint(j)
			}
		}
		masks[b] = m
	}
	return x
}

// PrefixMaskedSum returns the wrapping sum of the values a delta form
// decodes to — x plus the running sums of the packed width-w payload's
// values, each zigzag-decoded when zz — at the positions [0, n) whose
// bit is set in masks (bit j of masks[i] is position 64i+j), and the
// running sum at position n-1 (x when n is 0). A run of blocks with
// empty masks is passed over by the sum kernel; every other run goes to
// the fused prefix-and-masked-sum kernel. No memory is allocated.
func PrefixMaskedSum(packed []uint64, n int, w uint, zz bool, x int64, masks []uint64) (sum, last int64, err error) {
	if err := checkFusedRange(packed, 0, n, w); err != nil {
		return 0, 0, err
	}
	if nb := (n + BlockLen - 1) / BlockLen; len(masks) < nb {
		return 0, 0, fmt.Errorf("bitpack: %d masks for %d blocks", len(masks), nb)
	}
	full := n / BlockLen
	for g := 0; g < full; {
		e, empty := g+1, masks[g] == 0
		for e < full && (masks[e] == 0) == empty {
			e++
		}
		words := packed[g*int(w) : e*int(w)]
		if empty {
			x += int64(sumRun(words, e-g, w, zz))
		} else {
			s, last := prefixMaskedRun(words, w, zz, x, masks[g:e])
			sum, x = sum+s, last
		}
		g = e
	}
	if full*BlockLen < n {
		var buf [BlockLen]uint64
		src, lanes := edgeBlock(packed, full*BlockLen, n, w, &buf)
		one := [1]uint64{masks[full] & lanes} // a cleared lane adds 0 and repeats the last sum
		s, last := prefixMaskedRun(src, w, zz, x, one[:])
		sum, x = sum+s, last
	}
	return sum, x, nil
}

// prefixMaskedLoop is prefixMaskedRun's loop, one value at a time.
func prefixMaskedLoop(words []uint64, w uint, zz bool, x int64, masks []uint64) (sum, last int64) {
	for b, m := range masks {
		for j := range BlockLen {
			x += valueAt(words, b*BlockLen+j, w, zz)
			sum += x & (int64(m<<(63-j)) >> 63)
		}
	}
	return sum, x
}

// valueAt is ValueAt, zigzag-decoded when zz.
func valueAt(packed []uint64, i int, w uint, zz bool) int64 {
	u := ValueAt(packed, i, w)
	if zz {
		return Unzigzag(u)
	}
	return int64(u)
}
