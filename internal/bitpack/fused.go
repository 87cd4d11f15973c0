package bitpack

import (
	"fmt"
	"math/bits"
)

// This file exposes range scans over a packed payload, and holds the
// block walk every scan and sum of the package shares and the
// hand-written block loops.
//
// A scan walks the payload's 64-value blocks one way: a block whole
// inside the range is a slice of the payload (whole), and a head, a
// tail or the payload's short last block is a zero-padded copy with its
// lanes outside the range cleared (edgeBlock); the same per-block
// function runs on either. Up to 16 bits a plain block is counted or
// selected on its packed words, every lane of a word at once (the lane
// kernels of packed_gen.go; laneArc below sets up their bounds), so a
// straddling block of an NS or FOR form is scanned without
// materializing its values (see DESIGN.md, "Fused compressed scans").
// Every other block, wider or zigzag, is unpacked into a stack buffer
// and compared value by value (countLoop, selectLoop).
//
// The U scans take unsigned bounds. The ZZ scans take signed bounds and
// compare the zigzag-decoded values in the signed domain: the mapping
// does not preserve unsigned order, so a range cannot be translated.

// CountRangeU counts the values at positions [start, start+count) of
// the packed width-w payload that lie in [lo, hi] (unsigned). No memory
// is allocated.
func CountRangeU(packed []uint64, start, count int, w uint, lo, hi uint64) (int64, error) {
	return countRange(packed, start, count, w, lo, hi, false)
}

// CountRangeZZ counts the zigzag-decoded values at positions
// [start, start+count) that lie in the signed range [lo, hi].
func CountRangeZZ(packed []uint64, start, count int, w uint, lo, hi int64) (int64, error) {
	return countRange(packed, start, count, w, uint64(lo), uint64(hi), true)
}

// countRange counts the values at positions [start, start+count) inside
// [lo, hi], zigzag-decoded and compared as signed when zz. The entry
// points are one call to it, so that they inline into their callers.
func countRange(packed []uint64, start, count int, w uint, lo, hi uint64, zz bool) (int64, error) {
	if err := checkFusedRange(packed, start, count, w); err != nil || inverted(lo, hi, zz) {
		return 0, err
	}
	span := hi - lo
	var n int64
	for p, end := start, start+count; p < end; p = p&^63 + BlockLen {
		if src, ok := whole(packed, p, end, w); ok {
			n += int64(countInRangeBlock(src, lo, span, zz))
			continue
		}
		var buf [BlockLen]uint64
		src, lanes := edgeBlock(packed, p, end, w, &buf)
		n += int64(countInRangeBlock(src, lo, span, zz) - cleared(lanes, lo, span))
	}
	return n, nil
}

// SelectRangeU scans the values at positions [start, start+count) of
// the packed width-w payload and emits one match mask per 64-position
// chunk: emit(pos, mask) means mask bit j reports whether the value
// at position pos+j lies in [lo, hi]. Chunks are emitted in ascending
// position order, never overlap, and all-zero masks are skipped.
// Callers OR the masks into a sel.Selection (possibly at an offset).
// No memory is allocated.
func SelectRangeU(packed []uint64, start, count int, w uint, lo, hi uint64, emit func(pos int, mask uint64)) error {
	return selectRange(packed, start, count, w, lo, hi, false, emit)
}

// SelectRangeZZ is SelectRangeU for zigzag payloads: signed bounds,
// same emit contract (ascending, non-overlapping, non-zero masks).
func SelectRangeZZ(packed []uint64, start, count int, w uint, lo, hi int64, emit func(pos int, mask uint64)) error {
	return selectRange(packed, start, count, w, uint64(lo), uint64(hi), true, emit)
}

// selectRange emits the match masks of the values at positions
// [start, start+count) against [lo, hi], as countRange counts them; the
// mask of a head starts at its first position.
func selectRange(packed []uint64, start, count int, w uint, lo, hi uint64, zz bool, emit func(pos int, mask uint64)) error {
	if err := checkFusedRange(packed, start, count, w); err != nil || inverted(lo, hi, zz) {
		return err
	}
	span := hi - lo
	for p, end := start, start+count; p < end; p = p&^63 + BlockLen {
		var m uint64
		if src, ok := whole(packed, p, end, w); ok {
			m = selectInRangeBlock(src, lo, span, zz)
		} else {
			var buf [BlockLen]uint64
			src, lanes := edgeBlock(packed, p, end, w, &buf)
			m = selectInRangeBlock(src, lo, span, zz) & lanes
		}
		if m != 0 {
			emit(p, m>>(p&63))
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

// inverted reports whether the window [lo, hi] is empty, its bounds
// compared as signed when zz.
func inverted(lo, hi uint64, zz bool) bool {
	if zz {
		return int64(hi) < int64(lo)
	}
	return hi < lo
}

// whole returns the w words of the 64-value block that holds position p
// of the checked width-w payload, and true, when the block lies whole
// inside [p, end). It is small enough to inline into every walk, which
// passes the words straight to its per-block function.
func whole(packed []uint64, p, end int, w uint) ([]uint64, bool) {
	if p&63 != 0 || end-p < BlockLen {
		return nil, false
	}
	return packed[p>>6*int(w):][:w], true
}

// edgeBlock copies the block that holds position p — a head, a tail or
// the payload's short last block, not whole inside [p, end) — into buf
// with its lanes outside the range cleared to 0, and with 0 for the
// words past the payload's end. It returns the copy's w words and the
// mask of the lanes it kept. A walk declares buf only on its edge
// branch, so that a block read whole never pays to zero it.
func edgeBlock(packed []uint64, p, end int, w uint, buf *[BlockLen]uint64) ([]uint64, uint64) {
	words := packed[p>>6*int(w):]
	h, t := p&63, min(end-p+p&63, BlockLen) // the lanes kept, [h, t)
	for i := range buf[:w] {
		var x uint64
		if i < len(words) {
			x = words[i]
		}
		// Word i holds the block's bits [64i, 64i+64); keep [hw, tw).
		buf[i] = x & Mask(uint(max(t*int(w)-64*i, 0))) &^ Mask(uint(max(h*int(w)-64*i, 0)))
	}
	return buf[:w], Mask(uint(t)) &^ Mask(uint(h))
}

// cleared is how many lanes of a block edgeBlock cleared, those outside
// lanes, when 0 lies in the window [lo, lo+span], and 0 otherwise: how
// many matches a count over the block takes back. A cleared lane reads
// 0, and a zigzag 0 decodes to 0.
func cleared(lanes, lo, span uint64) int {
	if 0-lo <= span {
		return BlockLen - bits.OnesCount64(lanes)
	}
	return 0
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

// The loops below are the block operators without a lane kernel: every
// width above 16 bits, the zigzag compares at every width, and the
// dictionary gather. Each unpacks its block, w = len(src) bits a value,
// into a stack buffer through unpack64, then compares or adds in a
// second loop. That loop comes twice, plain and zigzag: a decode whose
// shift is a variable measured up to a third slower than either.

// countLoop counts the values of one block inside [lo, lo+span],
// zigzag-decoded when zz.
func countLoop(src []uint64, lo, span uint64, zz bool) int {
	var u [BlockLen]uint64
	unpack64(src, &u)
	n := 0
	if zz {
		for _, x := range &u {
			if uint64(Unzigzag(x))-lo <= span {
				n++
			}
		}
		return n
	}
	for _, v := range &u {
		if v-lo <= span {
			n++
		}
	}
	return n
}

// selectLoop returns the match mask of one block against [lo, lo+span],
// zigzag-decoded when zz.
func selectLoop(src []uint64, lo, span uint64, zz bool) uint64 {
	var u [BlockLen]uint64
	unpack64(src, &u)
	var m uint64
	if zz {
		for i, x := range &u {
			if uint64(Unzigzag(x))-lo <= span {
				m |= 1 << uint(i)
			}
		}
		return m
	}
	for i, v := range &u {
		if v-lo <= span {
			m |= 1 << uint(i)
		}
	}
	return m
}

// sumInRangeLoop sums and counts the values of one block inside
// [lo, lo+span], zigzag-decoded when zz.
func sumInRangeLoop(src []uint64, lo, span uint64, zz bool) (uint64, int) {
	var u [BlockLen]uint64
	unpack64(src, &u)
	var s uint64
	n := 0
	if zz {
		for _, x := range &u {
			if v := uint64(Unzigzag(x)); v-lo <= span {
				s += v
				n++
			}
		}
		return s, n
	}
	for _, v := range &u {
		if v-lo <= span {
			s += v
			n++
		}
	}
	return s, n
}

// sumLoop sums the 64 values of one block, zigzag-decoded when zz,
// wrapping mod 2^64.
func sumLoop(src []uint64, zz bool) uint64 {
	var u [BlockLen]uint64
	unpack64(src, &u)
	var s uint64
	if zz {
		for _, x := range &u {
			s += uint64(Unzigzag(x))
		}
		return s
	}
	for _, v := range &u {
		s += v
	}
	return s
}

// gatherBlock decodes the 64 codes of one block and gathers tab through
// them into dst[0:64]; false reports a code outside tab.
func gatherBlock(src []uint64, tab, dst []int64) bool {
	var u [BlockLen]uint64
	unpack64(src, &u)
	_ = dst[63]
	t := uint64(len(tab))
	for i, c := range &u {
		if c >= t {
			return false
		}
		dst[i] = tab[c]
	}
	return true
}
