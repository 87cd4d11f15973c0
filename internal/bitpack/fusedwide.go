package bitpack

import (
	"fmt"
	"math/bits"
)

// This file exposes the wide kernels emitted for the dict/RLE/RPE/
// model scheme family (DESIGN.md §1.12): fused sums, fused
// filter+sum, sums under a mask, dictionary gathers, and the zigzag
// variants of the range scans in fused.go. Like the range scans, every
// entry point processes full 64-value blocks through generated kernels
// and the unaligned head and tail bit-granularly, allocating nothing.
// Up to 16 bits the sums under a mask and over a range are lane
// parallel, like the range scans: a sum over a range is the select
// kernel's mask, then the masked sum of the lanes it keeps.
//
// Sums are wrapping (mod 2^64); callers accumulate into int64 with
// two's-complement wrap, matching the documented Column.Sum
// semantics. The ZZ entry points take signed bounds and compare in
// the signed domain — the zigzag mapping does not preserve unsigned
// order, so these payloads need their own kernels rather than a
// range translation.

// SumU sums the values at positions [start, start+count) of the
// packed width-w payload, wrapping mod 2^64.
func SumU(packed []uint64, start, count int, w uint) (uint64, error) {
	if err := checkFusedRange(packed, start, count, w); err != nil {
		return 0, err
	}
	if count == 0 || w == 0 {
		return 0, nil
	}
	end := start + count
	p := start
	var total uint64
	if head := headLen(p, end); head > 0 {
		total += scalarSum(packed, p, head, w, false)
		p += head
	}
	kernel := sumFuncs[w]
	for ; p+BlockLen <= end; p += BlockLen {
		b := p >> 6
		total += kernel(packed[b*int(w) : (b+1)*int(w)])
	}
	if p < end {
		total += scalarSum(packed, p, end-p, w, false)
	}
	return total, nil
}

// SumZZ sums the zigzag-decoded signed values at positions
// [start, start+count) of the packed width-w payload, wrapping.
func SumZZ(packed []uint64, start, count int, w uint) (int64, error) {
	if err := checkFusedRange(packed, start, count, w); err != nil {
		return 0, err
	}
	if count == 0 || w == 0 {
		return 0, nil
	}
	end := start + count
	p := start
	var total uint64
	if head := headLen(p, end); head > 0 {
		total += scalarSum(packed, p, head, w, true)
		p += head
	}
	kernel := sumZZFuncs[w]
	for ; p+BlockLen <= end; p += BlockLen {
		b := p >> 6
		total += kernel(packed[b*int(w) : (b+1)*int(w)])
	}
	if p < end {
		total += scalarSum(packed, p, end-p, w, true)
	}
	return int64(total), nil
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
// [start, start+count) that lie in [lo, hi] (unsigned). Up to
// MaxMaskedWidth a full block is its match mask and then the masked
// sum of what it keeps; wider, one pass compares and adds each value.
func SumRangeU(packed []uint64, start, count int, w uint, lo, hi uint64) (sum uint64, n int64, err error) {
	if err := checkFusedRange(packed, start, count, w); err != nil {
		return 0, 0, err
	}
	if count == 0 || hi < lo {
		return 0, 0, nil
	}
	span := hi - lo
	end := start + count
	p := start
	if head := headLen(p, end); head > 0 {
		s, c := scalarSumRange(packed, p, head, w, lo, span, false)
		sum += s
		n += int64(c)
		p += head
	}
	kernel := sumInRangeFuncs[w]
	for ; p+BlockLen <= end; p += BlockLen {
		b := p >> 6
		s, c := kernel(packed[b*int(w):(b+1)*int(w)], lo, span)
		sum += s
		n += int64(c)
	}
	if p < end {
		s, c := scalarSumRange(packed, p, end-p, w, lo, span, false)
		sum += s
		n += int64(c)
	}
	return sum, n, nil
}

// SumRangeZZ is SumRangeU for zigzag payloads: bounds are signed and
// the returned sum is the wrapping int64 sum of the decoded values
// inside [lo, hi].
func SumRangeZZ(packed []uint64, start, count int, w uint, lo, hi int64) (sum int64, n int64, err error) {
	if err := checkFusedRange(packed, start, count, w); err != nil {
		return 0, 0, err
	}
	if count == 0 || hi < lo {
		return 0, 0, nil
	}
	ulo := uint64(lo)
	span := uint64(hi) - uint64(lo)
	end := start + count
	p := start
	var total uint64
	if head := headLen(p, end); head > 0 {
		s, c := scalarSumRange(packed, p, head, w, ulo, span, true)
		total += s
		n += int64(c)
		p += head
	}
	kernel := sumInRangeZZFuncs[w]
	for ; p+BlockLen <= end; p += BlockLen {
		b := p >> 6
		s, c := kernel(packed[b*int(w):(b+1)*int(w)], ulo, span)
		total += s
		n += int64(c)
	}
	if p < end {
		s, c := scalarSumRange(packed, p, end-p, w, ulo, span, true)
		total += s
		n += int64(c)
	}
	return int64(total), n, nil
}

// CountRangeZZ counts the zigzag-decoded values at positions
// [start, start+count) that lie in the signed range [lo, hi].
func CountRangeZZ(packed []uint64, start, count int, w uint, lo, hi int64) (int64, error) {
	if err := checkFusedRange(packed, start, count, w); err != nil {
		return 0, err
	}
	if count == 0 || hi < lo {
		return 0, nil
	}
	ulo := uint64(lo)
	span := uint64(hi) - uint64(lo)
	end := start + count
	p := start
	var total int64
	if head := headLen(p, end); head > 0 {
		total += int64(bits.OnesCount64(scalarRangeMaskZZ(packed, p, head, w, ulo, span)))
		p += head
	}
	kernel := countInRangeZZFuncs[w]
	for ; p+BlockLen <= end; p += BlockLen {
		b := p >> 6
		total += int64(kernel(packed[b*int(w):(b+1)*int(w)], ulo, span))
	}
	if p < end {
		total += int64(bits.OnesCount64(scalarRangeMaskZZ(packed, p, end-p, w, ulo, span)))
	}
	return total, nil
}

// SelectRangeZZ is SelectRangeU for zigzag payloads: signed bounds,
// same emit contract (ascending, non-overlapping, non-zero masks).
func SelectRangeZZ(packed []uint64, start, count int, w uint, lo, hi int64, emit func(pos int, mask uint64)) error {
	if err := checkFusedRange(packed, start, count, w); err != nil {
		return err
	}
	if count == 0 || hi < lo {
		return nil
	}
	ulo := uint64(lo)
	span := uint64(hi) - uint64(lo)
	end := start + count
	p := start
	if head := headLen(p, end); head > 0 {
		if m := scalarRangeMaskZZ(packed, p, head, w, ulo, span); m != 0 {
			emit(p, m)
		}
		p += head
	}
	kernel := selectInRangeZZFuncs[w]
	for ; p+BlockLen <= end; p += BlockLen {
		b := p >> 6
		if m := kernel(packed[b*int(w):(b+1)*int(w)], ulo, span); m != 0 {
			emit(p, m)
		}
	}
	if p < end {
		if m := scalarRangeMaskZZ(packed, p, end-p, w, ulo, span); m != 0 {
			emit(p, m)
		}
	}
	return nil
}

// GatherU decodes the codes at positions [start, start+count) of the
// packed width-w payload and gathers tab through them into
// dst[0:count] — the dict decode loop fused into the unpack. A code
// outside tab reports ErrCorrupt. Gather kernels exist for widths up
// to 32 (a dictionary is at most block-sized); wider widths report
// ErrWidth.
func GatherU(packed []uint64, start, count int, w uint, tab, dst []int64) error {
	if w > 32 {
		return fmt.Errorf("%w: gather width %d exceeds 32", ErrWidth, w)
	}
	if err := checkFusedRange(packed, start, count, w); err != nil {
		return err
	}
	if count == 0 {
		return nil
	}
	if len(dst) < count {
		return fmt.Errorf("%w: gather dst holds %d of %d values", ErrCorrupt, len(dst), count)
	}
	if w == 0 {
		if len(tab) == 0 {
			return fmt.Errorf("%w: dict code 0 outside table of 0 entries", ErrCorrupt)
		}
		v := tab[0]
		for i := 0; i < count; i++ {
			dst[i] = v
		}
		return nil
	}
	end := start + count
	p := start
	if head := headLen(p, end); head > 0 {
		if !scalarGather(packed, p, head, w, tab, dst[:head]) {
			return fmt.Errorf("%w: dict code outside table of %d entries", ErrCorrupt, len(tab))
		}
		p += head
	}
	kernel := gatherFuncs[w]
	for ; p+BlockLen <= end; p += BlockLen {
		b := p >> 6
		if !kernel(packed[b*int(w):(b+1)*int(w)], tab, dst[p-start:]) {
			return fmt.Errorf("%w: dict code outside table of %d entries", ErrCorrupt, len(tab))
		}
	}
	if p < end {
		if !scalarGather(packed, p, end-p, w, tab, dst[p-start:]) {
			return fmt.Errorf("%w: dict code outside table of %d entries", ErrCorrupt, len(tab))
		}
	}
	return nil
}

// zigzag decodes one zigzag word into the unsigned image of its
// signed value.
func zigzag(x uint64) uint64 {
	return uint64(int64(x>>1) ^ -int64(x&1))
}

// scalarSum is the unaligned-edge companion of sumBlockW/sumZZBlockW:
// a bit-granular wrapping sum of count (<= 64) values at position
// start, zigzag-decoded first when zz is set. Width 0 is handled by
// the callers (the sum is zero).
func scalarSum(src []uint64, start, count int, w uint, zz bool) uint64 {
	var s uint64
	vmask := Mask(w)
	bitPos := uint64(start) * uint64(w)
	for j := 0; j < count; j++ {
		word := bitPos >> 6
		off := uint(bitPos & 63)
		v := src[word] >> off
		if off+w > 64 {
			v |= src[word+1] << (64 - off)
		}
		v &= vmask
		if zz {
			v = zigzag(v)
		}
		s += v
		bitPos += uint64(w)
	}
	return s
}

// scalarSumRange is the unaligned-edge companion of the fused
// filter+sum kernels.
func scalarSumRange(src []uint64, start, count int, w uint, lo, span uint64, zz bool) (uint64, int) {
	if w == 0 {
		var v uint64
		if zz {
			v = zigzag(0)
		}
		if v-lo <= span {
			return 0, count
		}
		return 0, 0
	}
	var s uint64
	n := 0
	vmask := Mask(w)
	bitPos := uint64(start) * uint64(w)
	for j := 0; j < count; j++ {
		word := bitPos >> 6
		off := uint(bitPos & 63)
		v := src[word] >> off
		if off+w > 64 {
			v |= src[word+1] << (64 - off)
		}
		v &= vmask
		if zz {
			v = zigzag(v)
		}
		if v-lo <= span {
			s += v
			n++
		}
		bitPos += uint64(w)
	}
	return s, n
}

// scalarRangeMaskZZ is scalarRangeMask with the zigzag decode
// inlined: the unaligned-edge companion of selectInRangeZZBlockW.
func scalarRangeMaskZZ(src []uint64, start, count int, w uint, lo, span uint64) uint64 {
	if w == 0 {
		if 0-lo <= span {
			return Mask(uint(count))
		}
		return 0
	}
	var m uint64
	vmask := Mask(w)
	bitPos := uint64(start) * uint64(w)
	for j := 0; j < count; j++ {
		word := bitPos >> 6
		off := uint(bitPos & 63)
		v := src[word] >> off
		if off+w > 64 {
			v |= src[word+1] << (64 - off)
		}
		if zigzag(v&vmask)-lo <= span {
			m |= 1 << uint(j)
		}
		bitPos += uint64(w)
	}
	return m
}

// scalarGather is the unaligned-edge companion of gatherBlockW:
// decode+gather count (<= 64) codes at position start into dst.
func scalarGather(src []uint64, start, count int, w uint, tab, dst []int64) bool {
	t := uint64(len(tab))
	vmask := Mask(w)
	bitPos := uint64(start) * uint64(w)
	for j := 0; j < count; j++ {
		word := bitPos >> 6
		off := uint(bitPos & 63)
		v := src[word] >> off
		if off+w > 64 {
			v |= src[word+1] << (64 - off)
		}
		c := v & vmask
		if c >= t {
			return false
		}
		dst[j] = tab[c]
		bitPos += uint64(w)
	}
	return true
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
		kernel, sumKernel := prefixMaskedFuncs[w], sumFuncs[w]
		if zz {
			kernel, sumKernel = prefixMaskedZZFuncs[w], sumZZFuncs[w]
		}
		for b, m := range masks[:full] {
			src := packed[b*int(w) : (b+1)*int(w)]
			if m == 0 {
				x += int64(sumKernel(src))
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
	if w == 0 {
		clear(dst[:nb])
		return nil
	}
	kernel := sumFuncs[w]
	if zz {
		kernel = sumZZFuncs[w]
	}
	full := n / BlockLen
	for b := range dst[:full] {
		dst[b] = int64(kernel(packed[b*int(w) : (b+1)*int(w)]))
	}
	if full < nb {
		dst[full] = int64(scalarSum(packed, full*BlockLen, n-full*BlockLen, w, zz))
	}
	return nil
}
