package bitpack

import (
	"fmt"
	"math/bits"
)

// This file exposes range scans over a packed payload, and holds the
// payload walk every scan and sum of the package shares, the selection
// words the select kernels write, and the hand-written block loops.
//
// A scan walks the payload in runs: every whole 64-value block of the
// range goes to one call of a payload kernel (run), and a head, a tail
// or the payload's short last block is a zero-padded copy with its
// lanes outside the range cleared (edgeBlock), which the same kernel
// takes as a run of one block. Up to 16 bits a plain run is counted or
// selected on its packed words, every lane of a word at once (the lane
// kernels of packed_gen.go; laneArc below sets up their bounds once a
// call), so a straddling block of an NS or FOR form is scanned without
// materializing its values (see DESIGN.md, "Fused compressed scans").
// Every other run, wider or zigzag, has each block unpacked into a
// stack buffer and compared value by value (matches).
//
// A select writes the selection's own words: bit off+j of dst stands
// for position start+j, and a run's block b for bits o+64b on of the
// words from its first block's. Select ORs the matches in; keep clears
// the bits whose values fail and reads only the rows dst holds (DESIGN
// §1.14). The package does not know the selection type: callers hand
// it the words.
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
	for p, end := start, start+count; p < end; {
		if words, nb := run(packed, p, end, w); nb > 0 {
			n += int64(countRun(words, nb, w, lo, span, zz))
			p += nb * BlockLen
			continue
		}
		var buf [BlockLen]uint64
		src, lanes := edgeBlock(packed, p, end, w, &buf)
		n += int64(countRun(src, 1, w, lo, span, zz) - cleared(lanes, lo, span))
		p = p&^63 + BlockLen
	}
	return n, nil
}

// SelectRangeU sets bit off+j of dst for each position start+j of
// [start, start+count) of the packed width-w payload whose value lies
// in [lo, hi] (unsigned); bits dst already holds stay set, and no other
// bit is touched. dst must hold bits [off, off+count). No memory is
// allocated.
func SelectRangeU(packed []uint64, start, count int, w uint, lo, hi uint64, dst []uint64, off int) error {
	return selectRange(packed, start, count, w, lo, hi, false, false, dst, off)
}

// SelectRangeZZ is SelectRangeU for zigzag payloads: signed bounds over
// the zigzag-decoded values.
func SelectRangeZZ(packed []uint64, start, count int, w uint, lo, hi int64, dst []uint64, off int) error {
	return selectRange(packed, start, count, w, uint64(lo), uint64(hi), true, false, dst, off)
}

// KeepRangeU clears bit off+j of dst for each position start+j of
// [start, start+count) whose value lies outside [lo, hi] (unsigned),
// and touches no other bit: the conjunction of dst with the range. Only
// the values of positions whose bit is set are read where that saves
// work. No memory is allocated.
func KeepRangeU(packed []uint64, start, count int, w uint, lo, hi uint64, dst []uint64, off int) error {
	return selectRange(packed, start, count, w, lo, hi, false, true, dst, off)
}

// KeepRangeZZ is KeepRangeU for zigzag payloads: signed bounds over the
// zigzag-decoded values.
func KeepRangeZZ(packed []uint64, start, count int, w uint, lo, hi int64, dst []uint64, off int) error {
	return selectRange(packed, start, count, w, uint64(lo), uint64(hi), true, true, dst, off)
}

// selectRange selects, or keeps, the values at positions
// [start, start+count) against [lo, hi] into dst at bit off, as
// countRange counts them. An edge block runs its kernel on a word of
// its own: its lanes of dst moved to the block's lanes (keep), and its
// matches moved back.
func selectRange(packed []uint64, start, count int, w uint, lo, hi uint64, zz, keep bool, dst []uint64, off int) error {
	if err := checkFusedRange(packed, start, count, w); err != nil {
		return err
	}
	if off < 0 || len(dst)*64-off < count {
		return fmt.Errorf("bitpack: fused select: %d selection words hold no bits [%d, +%d)", len(dst), off, count)
	}
	if inverted(lo, hi, zz) {
		if keep {
			for ; count > 0; off, count = off+BlockLen, count-BlockLen {
				clearBits(dst, off, Mask(uint(min(count, BlockLen))))
			}
		}
		return nil
	}
	span := hi - lo
	for p, end := start, start+count; p < end; {
		bit := off + p - start
		if words, nb := run(packed, p, end, w); nb > 0 {
			selectRun(words, nb, w, lo, span, zz, keep, dst[bit>>6:], uint(bit&63))
			p += nb * BlockLen
			continue
		}
		var buf [BlockLen]uint64
		src, lanes := edgeBlock(packed, p, end, w, &buf)
		h := uint(p & 63)
		var one [1]uint64
		if keep {
			one[0] = bitsAt(dst, bit, bits.OnesCount64(lanes)) << h
		}
		in := one[0]
		selectRun(src, 1, w, lo, span, zz, keep, one[:], 0)
		if keep {
			clearBits(dst, bit, (in&^one[0])>>h)
		} else {
			orBits(dst, bit, (one[0]&lanes)>>h)
		}
		p = p&^63 + BlockLen
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

// run returns the words of the whole 64-value blocks of the checked
// width-w payload that lie inside [p, end) from position p on, and how
// many there are: none when p is not a block start. It is small enough
// to inline into every walk, which passes the run straight to its
// payload kernel.
func run(packed []uint64, p, end int, w uint) ([]uint64, int) {
	if p&63 != 0 {
		return nil, 0
	}
	nb := (end - p) / BlockLen
	return packed[p>>6*int(w):][:nb*int(w)], nb
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
// into every kernel, which calls it once per run.
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

// The selection words a select writes: a run's block b is bits o+64b
// on of dst, and bits beyond the selection's domain are never set.

// setBlock writes block b's match mask m into dst: select ORs it in,
// and keep clears the bits of in, the block's bits as they were, that
// m does not keep.
func setBlock(dst []uint64, o uint, b int, m, in uint64, keep bool) {
	if keep {
		clearBits(dst, b<<6+int(o), in&^m)
		return
	}
	orBits(dst, b<<6+int(o), m)
}

// keepMask is all ones under keep and 0 under select: the lane kernels
// clear (in&^m)&keepMask and set m&^keepMask.
func keepMask(keep bool) uint64 {
	if keep {
		return ^uint64(0)
	}
	return 0
}

// orBits ORs m into dst at bit: bit j of m is bit bit+j of dst.
func orBits(dst []uint64, bit int, m uint64) {
	i, s := bit>>6, uint(bit&63)
	dst[i] |= m << s
	if hi := m >> (64 - s); hi != 0 {
		dst[i+1] |= hi
	}
}

// clearBits clears m's bits in dst at bit, as orBits sets them.
func clearBits(dst []uint64, bit int, m uint64) {
	i, s := bit>>6, uint(bit&63)
	dst[i] &^= m << s
	if hi := m >> (64 - s); hi != 0 {
		dst[i+1] &^= hi
	}
}

// bitsAt returns the n <= 64 bits of dst from bit on.
func bitsAt(dst []uint64, bit, n int) uint64 {
	i, s := bit>>6, uint(bit&63)
	x := dst[i] >> s
	if s != 0 && int(64-s) < n {
		x |= dst[i+1] << (64 - s)
	}
	return x & Mask(uint(n))
}

// fillRun writes m, all ones or none, as the match mask of each of the
// nb blocks of a run: a window that holds every value or none of them.
func fillRun(dst []uint64, o uint, nb int, m uint64, keep bool) {
	for b := range nb {
		var in uint64
		if keep {
			in = bitsAt(dst, b<<6+int(o), BlockLen)
		}
		setBlock(dst, o, b, m, in, keep)
	}
}

// sparseKeep sets how many rows a block's selection word may hold for a
// lane kernel's keep (w <= 16, not zigzag) to read just those rows'
// values rather than run the block's SWAR compare: at most min(w,
// sparseKeep), halved where a value can straddle two words. A sparse
// read costs about 1.5 ns a row where a value sits in one word and
// twice that where it can straddle two, and the block's lane kernel
// 20-35 ns whatever the selection holds, so they meet near 12 rows and
// near 6: BenchmarkKeepKernels (DESIGN.md §1.14).
const sparseKeep = 12

// The loops below are the block operators without a lane kernel: every
// width above 16 bits, the zigzag compares at every width, and the
// dictionary gather. Each unpacks a block, w bits a value, into a stack
// buffer through unpack64, then compares or adds in a second loop. The
// compare comes twice, plain and zigzag: a decode whose shift is a
// variable measured up to a third slower than either.

// matches returns the match mask of the 64 unpacked values u against
// [lo, lo+span], zigzag-decoded when zz.
func matches(u *[BlockLen]uint64, lo, span uint64, zz bool) uint64 {
	var m uint64
	if zz {
		for i, x := range u {
			if uint64(Unzigzag(x))-lo <= span {
				m |= 1 << uint(i)
			}
		}
		return m
	}
	for i, v := range u {
		if v-lo <= span {
			m |= 1 << uint(i)
		}
	}
	return m
}

// countLoop is countRun's loop: it counts each block's matches.
func countLoop(words []uint64, nb int, w uint, lo, span uint64, zz bool) int {
	var u [BlockLen]uint64
	n := 0
	for b := range nb {
		unpack64(words[b*int(w):][:w], &u)
		n += bits.OnesCount64(matches(&u, lo, span, zz))
	}
	return n
}

// selectLoop is selectRun's loop; keep passes over a block whose
// selection word is empty.
func selectLoop(words []uint64, nb int, w uint, lo, span uint64, zz, keep bool, dst []uint64, o uint) {
	var u [BlockLen]uint64
	for b := range nb {
		var in uint64
		if keep {
			if in = bitsAt(dst, b<<6+int(o), BlockLen); in == 0 {
				continue
			}
		}
		unpack64(words[b*int(w):][:w], &u)
		setBlock(dst, o, b, matches(&u, lo, span, zz), in, keep)
	}
}

// sumInRangeLoop sums and counts the values of the nb whole blocks of
// words inside [lo, lo+span], zigzag-decoded when zz.
func sumInRangeLoop(words []uint64, nb int, w uint, lo, span uint64, zz bool) (uint64, int) {
	var u [BlockLen]uint64
	var s uint64
	n := 0
	for b := range nb {
		unpack64(words[b*int(w):][:w], &u)
		if zz {
			for _, x := range &u {
				if v := uint64(Unzigzag(x)); v-lo <= span {
					s += v
					n++
				}
			}
			continue
		}
		for _, v := range &u {
			if v-lo <= span {
				s += v
				n++
			}
		}
	}
	return s, n
}

// sumLoop is sumRun's loop: each block's wrapping sum, zigzag-decoded
// when zz, stored in dst when dst is not nil.
func sumLoop(words []uint64, nb int, w uint, zz bool, dst []int64) uint64 {
	var u [BlockLen]uint64
	var s uint64
	for b := range nb {
		unpack64(words[b*int(w):][:w], &u)
		var v uint64
		if zz {
			for _, x := range &u {
				v += uint64(Unzigzag(x))
			}
		} else {
			for _, x := range &u {
				v += x
			}
		}
		s += v
		if dst != nil {
			dst[b] = int64(v)
		}
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
