package bitpack

import (
	"fmt"
	"math/bits"
)

// This file exposes the generated fused unpack-and-compare kernels
// (countInRangeBlockW / selectInRangeBlockW) as range scans over a
// packed payload. The kernels evaluate lo <= v <= hi directly on the
// packed words — a straddling block of an NS or FOR form is scanned
// without ever materializing the unpacked values, which is what makes
// the compressed-scan path memory-traffic-bound rather than
// decode-bound (see DESIGN.md, "Fused compressed scans"). Up to 16
// bits a kernel tests all the lanes of a word at once (laneArc below
// sets up its bounds).
//
// Both scans operate on the unsigned domain: callers translate their
// signed query range first (and fall back to decoding for zigzag
// payloads, whose value order the mapping does not preserve).

// CountRangeU counts the values at positions [start, start+count) of
// the packed width-w payload that lie in [lo, hi] (unsigned). Full
// 64-value blocks go through the fused count kernels; the unaligned
// head and tail are scanned bit-granularly. No memory is allocated.
func CountRangeU(packed []uint64, start, count int, w uint, lo, hi uint64) (int64, error) {
	if err := checkFusedRange(packed, start, count, w); err != nil {
		return 0, err
	}
	if count == 0 || hi < lo {
		return 0, nil
	}
	span := hi - lo
	end := start + count
	p := start
	var total int64
	if head := headLen(p, end); head > 0 {
		total += int64(bits.OnesCount64(scalarRangeMask(packed, p, head, w, lo, span)))
		p += head
	}
	kernel := countInRangeFuncs[w]
	for ; p+BlockLen <= end; p += BlockLen {
		b := p >> 6
		total += int64(kernel(packed[b*int(w):(b+1)*int(w)], lo, span))
	}
	if p < end {
		total += int64(bits.OnesCount64(scalarRangeMask(packed, p, end-p, w, lo, span)))
	}
	return total, nil
}

// SelectRangeU scans the values at positions [start, start+count) of
// the packed width-w payload and emits one match mask per 64-position
// chunk: emit(pos, mask) means mask bit j reports whether the value
// at position pos+j lies in [lo, hi]. Chunks are emitted in ascending
// position order, never overlap, and all-zero masks are skipped.
// Callers OR the masks into a sel.Selection (possibly at an offset).
// No memory is allocated.
func SelectRangeU(packed []uint64, start, count int, w uint, lo, hi uint64, emit func(pos int, mask uint64)) error {
	if err := checkFusedRange(packed, start, count, w); err != nil {
		return err
	}
	if count == 0 || hi < lo {
		return nil
	}
	span := hi - lo
	end := start + count
	p := start
	if head := headLen(p, end); head > 0 {
		if m := scalarRangeMask(packed, p, head, w, lo, span); m != 0 {
			emit(p, m)
		}
		p += head
	}
	kernel := selectInRangeFuncs[w]
	for ; p+BlockLen <= end; p += BlockLen {
		b := p >> 6
		if m := kernel(packed[b*int(w):(b+1)*int(w)], lo, span); m != 0 {
			emit(p, m)
		}
	}
	if p < end {
		if m := scalarRangeMask(packed, p, end-p, w, lo, span); m != 0 {
			emit(p, m)
		}
	}
	return nil
}

// checkFusedRange validates the scan arguments against the payload,
// mirroring UnpackRange's contract.
func checkFusedRange(packed []uint64, start, count int, w uint) error {
	if w > 64 {
		return fmt.Errorf("%w: %d", ErrWidth, w)
	}
	if start < 0 || count < 0 {
		return fmt.Errorf("bitpack: fused range scan: negative range [%d, +%d)", start, count)
	}
	if need := PackedWords(start+count, w); len(packed) < need {
		return fmt.Errorf("%w: have %d words, need %d for range end %d at width %d",
			ErrCorrupt, len(packed), need, start+count, w)
	}
	return nil
}

// headLen returns how many positions separate p from the next
// 64-block boundary, clamped to the scan end.
func headLen(p, end int) int {
	if p&63 == 0 {
		return 0
	}
	head := BlockLen - p&63
	if head > end-p {
		head = end - p
	}
	return head
}

// laneArc translates the kernels' window — v matches iff
// v-lo <= span, mod 2^64 — onto the w-bit value domain [0, m],
// m = 2^w-1, for the word-parallel (SWAR) kernels of packed_gen.go.
// On that domain the window is an arc of the lane ring Z/2^w, or its
// complement: v matches iff ((v-a) mod 2^w <= s) xor inv, with
// s < 2^(w-1) so that a lane compares only its low w-1 bits. When
// the window holds all of [0, m] or none of it, ok is false and every
// value matches iff inv is all ones. It is small enough to inline
// into every kernel, which calls it once per block.
func laneArc(lo, span, m uint64) (a, s, inv uint64, ok bool) {
	x, y := lo, lo+span // the matches are [x, y], complemented when inv is set
	if y < x {
		// The window wraps: it holds everything outside (y, x).
		x, y, inv = y+1, x-1, ^uint64(0)
	}
	y = min(y, m)
	if x > y {
		return 0, 0, inv, false
	}
	s = y - x
	if s > m>>1 {
		// Match the complement arc instead: it starts after y and is
		// short. If [x, y] was the whole domain, s wraps above m.
		x, s, inv = (y+1)&m, m-s-1, ^inv
	}
	return x, s, inv, s <= m
}

// scalarRangeMask evaluates the range predicate on count (<= 64)
// values starting at position start, bit-granularly, and returns the
// match mask (bit j = position start+j). It is the unaligned-edge
// companion of the block kernels.
func scalarRangeMask(src []uint64, start, count int, w uint, lo, span uint64) uint64 {
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
		if (v&vmask)-lo <= span {
			m |= 1 << uint(j)
		}
		bitPos += uint64(w)
	}
	return m
}
