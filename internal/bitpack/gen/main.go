// Command gen emits packed_gen.go: fully unrolled, branch-free pack
// and unpack kernels for 64-value blocks at every bit width 1..64, and
// the lane-parallel (SWAR) kernels of widths up to swarMaxWidth, which
// compute on the packed words without unpacking them.
//
// The pack and unpack kernels are the scalar stand-in for the SIMD
// bit-packing routines used by the systems the paper builds on (see
// DESIGN.md): straight-line code, one or two shift/or terms per value.
// The lane kernels test or add all ⌊64/w⌋ lanes of a word in a few
// word operations: count and select against a range (emitRangeSWAR),
// the masked sum (emitSumMasked), the zigzag sum (emitSumZZSWAR), and
// the running sums of a delta form (emitPrefixRange,
// emitPrefixMasked). Beside them those widths keep an unrolled plain
// sum (emitSum).
//
// The lane kernels are written as the cases of six payload functions
// that switch on the width — countRun, selectRun, sumRun, sumMaskedRun,
// prefixRangeRun and prefixMaskedRun — and each case loops over every
// whole 64-value block of the run it is given, so the switch, laneArc
// and the broadcast constants are paid once a call, not once a block.
// A call through a table of functions would cost as much as the
// switch, but it would move a stack buffer passed to it to the heap.
//
// Nothing else is generated. Every other block operator — any width
// above swarMaxWidth, the zigzag compares at every width, the
// dictionary gather — is one hand-written loop (internal/bitpack's
// fused.go) that unpacks each block into a stack [64]uint64 through
// unpack64, the generated switch over the unpack kernels, and then
// compares or adds; the payload functions fall back to it. Per-value
// kernels of their own paid only at widths no workload scans
// (DESIGN.md §1.7).
//
// Regenerate with:
//
//	go run ./internal/bitpack/gen > internal/bitpack/packed_gen.go
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
	"strings"
)

// swarMaxWidth is the widest bit width that has lane kernels; wider
// blocks go through the hand-written loops. BenchmarkRangeKernels is
// the matrix behind it (DESIGN.md §1.7): lanes win through width 21
// (three lanes a word) and lose from 22 (two). No benchmark workload
// stores widths 17-21, so those take the loops until a raised cut is
// measured end to end. BenchmarkSumKernels is the sums' matrix.
const swarMaxWidth = 16

func main() {
	var b bytes.Buffer
	fmt.Fprintln(&b, "// Code generated by internal/bitpack/gen. DO NOT EDIT.")
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "package bitpack")
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, `import "math/bits"`)
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "// swarMaxWidth is the widest bit width with lane kernels.")
	fmt.Fprintf(&b, "const swarMaxWidth = %d\n", swarMaxWidth)
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "// blockFunc packs one 64-value block.")
	fmt.Fprintln(&b, "type blockFunc func(src, dst []uint64)")
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "func blockWidth0(src, dst []uint64) {")
	fmt.Fprintln(&b, "\tpanic(\"bitpack: width-0 blocks are handled before kernel dispatch\")")
	fmt.Fprintln(&b, "}")
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "// borrow is 1 when a < s and 0 otherwise: the borrow out of a − s.")
	fmt.Fprintln(&b, "func borrow(a, s uint64) uint64 {")
	fmt.Fprintln(&b, "\t_, c := bits.Sub64(a, s, 0)")
	fmt.Fprintln(&b, "\treturn c")
	fmt.Fprintln(&b, "}")
	fmt.Fprintln(&b)
	for w := 1; w <= 64; w++ {
		emitPack(&b, w)
		emitUnpack(&b, w)
	}

	fmt.Fprintln(&b, "var packFuncs = [65]blockFunc{")
	fmt.Fprintln(&b, "\tblockWidth0,")
	for w := 1; w <= 64; w++ {
		fmt.Fprintf(&b, "\tpackBlock%d,\n", w)
	}
	fmt.Fprintln(&b, "}")
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "// unpack64 unpacks the 64 values of one block, w = len(src) bits")
	fmt.Fprintln(&b, "// each (0..64), into dst. It switches to the width's kernel rather")
	fmt.Fprintln(&b, "// than indexing a table of them, so a dst on the caller's stack stays")
	fmt.Fprintln(&b, "// there.")
	fmt.Fprintln(&b, "func unpack64(src []uint64, dst *[64]uint64) {")
	fmt.Fprintln(&b, "\tswitch len(src) {")
	fmt.Fprintln(&b, "\tcase 0:")
	fmt.Fprintln(&b, "\t\t*dst = [64]uint64{}")
	for w := 1; w <= 64; w++ {
		fmt.Fprintf(&b, "\tcase %d:\n\t\tunpackBlock%d(src, dst)\n", w, w)
	}
	fmt.Fprintln(&b, "\t}")
	fmt.Fprintln(&b, "}")
	fmt.Fprintln(&b)
	emitDispatch(&b, []string{
		"// countRun counts the values of the nb whole 64-value blocks of words,",
		"// w bits each, inside [lo, lo+span] (unsigned, or the signed window",
		"// over the zigzag-decoded values when zz). Every width evaluates the",
		"// same predicate, v-lo <= span mod 2^64, so a wrapping window gets the",
		"// same answer at every width too.",
	}, "countRun(words []uint64, nb int, w uint, lo, span uint64, zz bool) int", "!zz",
		func(w int) { fmt.Fprintf(&b, "if 0-lo <= span {\nreturn 64 * nb\n}\nreturn 0\n") },
		func(w int) { emitRangeSWAR(&b, w, false) }, nil,
		"return countLoop(words, nb, w, lo, span, zz)")
	emitDispatch(&b, []string{
		"// selectRun writes the matches of the nb whole blocks of words against",
		"// [lo, lo+span], as countRun counts them, into the bits of dst: block",
		"// b's value i is bit o+64b+i. Select (keep false) ORs each block's",
		"// match mask in. Keep clears the bits of the values that fail and",
		"// reads only the rows dst holds: a block whose bits are all clear is",
		"// passed over, and at a lane kernel's width one with at most",
		"// min(w, sparseKeep) set, halved where a value can straddle two words,",
		"// has just those values read.",
	}, "selectRun(words []uint64, nb int, w uint, lo, span uint64, zz, keep bool, dst []uint64, o uint)", "!zz",
		func(w int) {
			fmt.Fprintln(&b, "fill := uint64(0)\nif 0-lo <= span {\nfill = ^fill\n}")
			fmt.Fprintln(&b, "fillRun(dst, o, nb, fill, keep)\nreturn")
		},
		func(w int) { emitRangeSWAR(&b, w, true) }, nil,
		"selectLoop(words, nb, w, lo, span, zz, keep, dst, o)")
	emitDispatch(&b, []string{
		"// sumRun returns the wrapping sum of the values of the nb whole blocks",
		"// of words, w bits each, zigzag-decoded when zz.",
	}, "sumRun(words []uint64, nb int, w uint, zz bool) uint64", "",
		func(w int) { fmt.Fprintln(&b, "return 0") },
		func(w int) { emitSum(&b, w) }, func(w int) { emitSumZZSWAR(&b, w) },
		"return sumLoop(words, nb, w, zz)")
	emitDispatch(&b, []string{
		"// sumMaskedRun returns the wrapping sum of the values of the whole",
		"// blocks of words, w <= swarMaxWidth bits each, whose bit is set in",
		"// their mask: bit i of masks[b] is value i of block b. A block with an",
		"// empty mask is not read, and one with at most sparseMasked bits set",
		"// has just those values read.",
	}, "sumMaskedRun(words []uint64, w uint, masks []uint64) uint64", "-",
		nil, func(w int) { emitSumMasked(&b, w) }, nil, "return 0")
	emitDispatch(&b, []string{
		"// prefixRangeRun writes into masks[b] which of the running sums of x",
		"// and the values of the nb whole blocks of words, w bits each and",
		"// zigzag-decoded when zz, lie inside [lo, lo+span] (bit i for value i",
		"// of block b), wrapping, and returns the last of them.",
	}, "prefixRangeRun(words []uint64, nb int, w uint, zz bool, x int64, lo, span uint64, masks []uint64) int64", "",
		nil, func(w int) { emitPrefixRange(&b, w, false) }, func(w int) { emitPrefixRange(&b, w, true) },
		"return prefixRangeLoop(words, nb, w, zz, x, lo, span, masks)")
	emitDispatch(&b, []string{
		"// prefixMaskedRun returns the wrapping sum of the running sums of x",
		"// and the values of the whole blocks of words, w bits each and",
		"// zigzag-decoded when zz, at the values whose bit is set in their",
		"// block's mask (bit i of masks[b] for value i of block b), and the last",
		"// running sum.",
	}, "prefixMaskedRun(words []uint64, w uint, zz bool, x int64, masks []uint64) (int64, int64)", "",
		nil, func(w int) { emitPrefixMasked(&b, w, false) }, func(w int) { emitPrefixMasked(&b, w, true) },
		"return prefixMaskedLoop(words, w, zz, x, masks)")

	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatalf("gen: generated code does not parse: %v", err)
	}
	os.Stdout.Write(src)
}

// emitDispatch writes a payload function, sig, that switches on the
// width w: a width up to swarMaxWidth runs its lane kernel, written in
// its case of the switch by lane (zero at width 0, when not nil) — or
// by zzLane for a zigzag payload when zzLane is not nil — and every
// other payload runs fallback. Under cond "!zz" only plain payloads
// have lane kernels, and under "-" the function takes no zz. The
// kernels are cases, not functions of their own, so that a payload
// costs one call and a stack buffer passed down never escapes.
func emitDispatch(b *bytes.Buffer, doc []string, sig, cond string, zero, lane, zzLane func(w int), fallback string) {
	cases := func(lane func(w int)) {
		fmt.Fprintln(b, "switch w {")
		if zero != nil {
			fmt.Fprintln(b, "case 0:")
			zero(0)
		}
		for w := 1; w <= swarMaxWidth; w++ {
			fmt.Fprintf(b, "case %d:\n", w)
			lane(w)
		}
		fmt.Fprintln(b, "}")
	}
	fmt.Fprintln(b, strings.Join(doc, "\n"))
	fmt.Fprintf(b, "func %s {\n", sig)
	switch {
	case cond == "-":
		cases(lane)
	case zzLane == nil:
		fmt.Fprintln(b, "if !zz {")
		cases(lane)
		fmt.Fprintln(b, "}")
	default:
		fmt.Fprintln(b, "if zz {")
		cases(zzLane)
		fmt.Fprintln(b, "} else {")
		cases(lane)
		fmt.Fprintln(b, "}")
	}
	fmt.Fprintln(b, fallback)
	fmt.Fprintln(b, "}")
	fmt.Fprintln(b)
}

// blockLoop opens the loop of a payload kernel over its whole blocks,
// each of them src, w words; a masked kernel takes block b's mask as m.
func blockLoop(b *bytes.Buffer, w int, masked bool) {
	if masked {
		fmt.Fprintln(b, "for b, m := range masks {")
	} else {
		fmt.Fprintln(b, "for b := range nb {")
	}
	fmt.Fprintf(b, "src := words[b*%d:][:%d]\n", w, w)
}

// emitPack writes packBlockW: dst[0:w] must be zeroed by the caller;
// src holds exactly 64 values already masked to w bits.
func emitPack(b *bytes.Buffer, w int) {
	fmt.Fprintf(b, "// packBlock%d packs 64 %d-bit values into dst[0:%d].\n", w, w, w)
	fmt.Fprintf(b, "func packBlock%d(src, dst []uint64) {\n", w)
	fmt.Fprintf(b, "\t_ = src[63]\n")
	fmt.Fprintf(b, "\t_ = dst[%d]\n", w-1)
	for i := 0; i < 64; i++ {
		p := i * w
		word := p / 64
		off := p % 64
		if off == 0 {
			fmt.Fprintf(b, "\tdst[%d] |= src[%d]\n", word, i)
		} else {
			fmt.Fprintf(b, "\tdst[%d] |= src[%d] << %d\n", word, i, off)
		}
		if off+w > 64 {
			fmt.Fprintf(b, "\tdst[%d] |= src[%d] >> %d\n", word+1, i, 64-off)
		}
	}
	fmt.Fprintln(b, "}")
	fmt.Fprintln(b)
}

// emitUnpack writes unpackBlockW: expands src[0:w] into 64 values.
func emitUnpack(b *bytes.Buffer, w int) {
	fmt.Fprintf(b, "// unpackBlock%d unpacks 64 %d-bit values from src[0:%d].\n", w, w, w)
	fmt.Fprintf(b, "func unpackBlock%d(src []uint64, dst *[64]uint64) {\n", w)
	fmt.Fprintf(b, "\t_ = src[%d]\n", w-1)
	if w < 64 {
		fmt.Fprintf(b, "\tconst mask = uint64(1)<<%d - 1\n", w)
	}
	for i := 0; i < 64; i++ {
		fmt.Fprintf(b, "\tdst[%d] = %s\n", i, valueExpr(w, i))
	}
	fmt.Fprintln(b, "}")
	fmt.Fprintln(b)
}

// valueExpr returns the expression extracting value i of a width-w
// block from src, masked to w bits. Width < 64 expressions reference
// a function-local `const mask`.
func valueExpr(w, i int) string {
	p := i * w
	word := p / 64
	off := p % 64
	switch {
	case w == 64:
		return fmt.Sprintf("src[%d]", word)
	case off+w < 64:
		if off == 0 {
			return fmt.Sprintf("src[%d] & mask", word)
		}
		return fmt.Sprintf("(src[%d] >> %d) & mask", word, off)
	case off+w == 64:
		return fmt.Sprintf("src[%d] >> %d", word, off)
	default:
		return fmt.Sprintf("(src[%d]>>%d | src[%d]<<%d) & mask",
			word, off, word+1, 64-off)
	}
}

// emitRangeSWAR writes the count or select case of width w, up to
// swarMaxWidth, of countRun or selectRun: a word-parallel (SWAR) kernel
// looping over the payload's blocks, in which each 64-bit window holds
// k = ⌊64/w⌋ whole lanes, funnel-shifted across word boundaries, and
// all k lanes are compared at once.
//
// laneArc (fused.go) first turns [lo, lo+span] into an arc of the
// lane ring, once a call: v matches iff ((v-a) mod 2^w <= s) xor inv,
// s < 2^(w-1). Per window, with h the lane tops and every constant
// broadcast to all lanes:
//
//	d = (x | h) - al               al: a's low w-1 bits
//	f = (sh - d&^h) &^ (x^d^an) & h
//
// Forcing each lane's top bit to 1 before the subtract keeps borrows
// inside the lane: the low w-1 bits of d are those of (v-a) mod 2^w,
// and d's top bit says whether the low bits borrowed, so x^d^an (an:
// a's top bit complemented) is the difference's real top bit.
// sh = s | 2^(w-1), so sh - d&^h keeps a lane's top bit iff
// s >= the difference's low bits; the difference is <= s iff, in
// addition, its real top bit is clear. f holds one flag per lane, at
// the lane's top bit.
//
// count popcounts each window's flags. select gathers them into
// consecutive mask bits. From w = 8 up one multiply does it: flag i,
// at bit (i+1)w-1, times the multiplier's term 2^((k-1-i)(w-1)) lands
// on bit k(w-1)+i, and carryFree checks that no two partial products
// share a bit, so the product is an OR and those k bits are exactly
// the flags (for w >= 9 it holds because w-1 >= k). Below w = 8 a
// compress network with a constant mask does it (Hacker's Delight
// 7-4, steps whose mask is zero left out); at w = 1 the flags are the
// mask. In keep mode select first reads the block's bits of dst: an
// empty word skips the block and a sparse one reads just its rows.
func emitRangeSWAR(b *bytes.Buffer, w int, sel bool) {
	k := 64 / w
	windows := (64 + k - 1) / k
	tops := func(n int) uint64 { return lanes(w, n) << (w - 1) }
	half := uint64(1) << (w - 1)
	multiply := carryFree(w, k, func(i int) int { return (i+1)*w - 1 }) // else gather with a compress network

	fmt.Fprintf(b, "\t// %d lanes per word.\n", k)
	fmt.Fprintf(b, "\ta, s, inv, ok := laneArc(lo, span, %#x)\n", uint64(1)<<w-1)
	fmt.Fprintln(b, "\tif !ok {")
	if sel {
		fmt.Fprintln(b, "\t\tfillRun(dst, o, nb, inv, keep)\nreturn")
	} else {
		// inv is 0 or all ones here: no value matches, or all 64 do.
		fmt.Fprintln(b, "\t\treturn int(inv&64) * nb")
	}
	fmt.Fprintln(b, "\t}")
	fmt.Fprintf(b, "\tconst h = %#x\n", tops(k))
	dx := "x | h" // at w = 1 a lane has no low bits to subtract
	if w > 1 {
		fmt.Fprintf(b, "\tal := (a & %#x) * %#x\n", half-1, lanes(w, k))
		dx = "(x | h) - al"
	}
	fmt.Fprintf(b, "\tan := (^a & %#x) * %#x\n", half, lanes(w, k))
	fmt.Fprintf(b, "\tsh := (s | %#x) * %#x\n", half, lanes(w, k))
	if !sel {
		fmt.Fprintln(b, "\tn := 0")
	} else {
		fmt.Fprintln(b, "\tkm := keepMask(keep)")
	}
	blockLoop(b, w, false)
	if sel {
		// The block's bits of dst are read and written here, not through
		// bitsAt and setBlock: a function this large inlines only the
		// smallest calls.
		fmt.Fprintln(b, "\tvar in uint64")
		fmt.Fprintln(b, "\tif keep {")
		fmt.Fprintln(b, "\t\tif in = dst[b] >> o; o != 0 {\nin |= dst[b+1] << (64 - o)\n}")
		fmt.Fprintln(b, "\t\tif in == 0 {\ncontinue\n}")
		// A value that can straddle two words costs two word reads, so
		// such widths read half as many rows one at a time.
		rows := "sparseKeep"
		if 64%w != 0 {
			rows = "sparseKeep/2"
		}
		fmt.Fprintf(b, "\t\tif bits.OnesCount64(in) <= min(%d, %s) {\n", w, rows)
		emitKeepSparse(b, w)
		fmt.Fprintln(b, "\t\t}")
		fmt.Fprintln(b, "\t}")
		fmt.Fprintln(b, "\tvar m uint64")
		if w > 1 && !multiply {
			fmt.Fprintln(b, "\tvar t uint64")
		}
	}
	for j := 0; j < windows; j++ {
		n := min(k, 64-j*k)
		x := window(w, k, j, n)
		hj := "h"
		if n < k {
			hj = fmt.Sprintf("%#x", tops(n))
		}
		decl := "="
		if j == 0 {
			decl = ":="
		}
		fmt.Fprintf(b, "\tx%s %s\n", decl, x)
		fmt.Fprintf(b, "\td%s %s\n", decl, dx)
		fmt.Fprintf(b, "\tf%s (sh - d&^h) &^ (x ^ d ^ an) & %s\n", decl, hj)
		if !sel {
			fmt.Fprintln(b, "\tn += bits.OnesCount64(f)")
			continue
		}
		if multiply {
			// The product's result bits start at k(w-1); bits above the
			// window's k are cut unless they fall off the word anyway.
			g := fmt.Sprintf("f * %#x >> %d", lanes(w-1, k), k*(w-1))
			if k*w < 64 && j < windows-1 {
				g = fmt.Sprintf("(%s) & %#x", g, uint64(1)<<k-1)
			}
			fmt.Fprintf(b, "\tm |= %s\n", shiftExpr(g, j*k))
			continue
		}
		for i, mv := range compressSteps(tops(n)) {
			if mv != 0 {
				fmt.Fprintf(b, "\tt = f & %#x\n", mv)
				fmt.Fprintf(b, "\tf = f ^ t | t>>%d\n", 1<<i)
			}
		}
		fmt.Fprintf(b, "\tm |= %s\n", shiftExpr("f", j*k))
	}
	if sel {
		// Select ORs m in and keep clears in's bits outside it: with km
		// all ones under keep and zero otherwise, one expression does both.
		fmt.Fprintln(b, "\tm ^= inv")
		fmt.Fprintln(b, "\tclr, set := (in&^m)&km, m&^km")
		fmt.Fprintln(b, "\tdst[b] = dst[b]&^(clr<<o) | set<<o")
		fmt.Fprintln(b, "\tif o != 0 {\ndst[b+1] = dst[b+1]&^(clr>>(64-o)) | set>>(64-o)\n}")
		fmt.Fprintln(b, "}")
		fmt.Fprintln(b, "return")
	} else {
		fmt.Fprintln(b, "}")
		fmt.Fprintln(b, "\tif inv != 0 {")
		fmt.Fprintln(b, "\t\treturn 64*nb - n")
		fmt.Fprintln(b, "\t}")
		fmt.Fprintln(b, "\treturn n")
	}
}

// emitKeepSparse writes keep's sparse path in the select case of width
// w: only the values of the rows in holds are read, each straight from
// its word (and the next, when it straddles two) at the case's constant
// width, compared without a branch, and the bits of those that fail
// cleared. A call of its own per block would cost as much as the rows.
func emitKeepSparse(b *bytes.Buffer, w int) {
	fmt.Fprintln(b, "\t\t\tclr := uint64(0)")
	fmt.Fprintln(b, "\t\t\tfor r := in; r != 0; r &= r - 1 {")
	fmt.Fprintln(b, "\t\t\t\ti := uint(bits.TrailingZeros64(r))")
	mask := uint64(1)<<w - 1
	if 64%w == 0 {
		k := 64 / w
		fmt.Fprintf(b, "\t\t\t\tv := src[i/%d&%d] >> (i %% %d * %d) & %#x\n", k, w-1, k, w, mask)
	} else {
		// The value's first and last bits lie in words p>>6 and
		// (p+w-1)>>6, the same word unless it straddles two; shifting
		// by 1 and then 63-(p&63) keeps every shift below 64.
		fmt.Fprintf(b, "\t\t\t\tp := i * %d\n", w)
		fmt.Fprintf(b, "\t\t\t\tv := (src[p>>6]>>(p&63) | src[(p+%d)>>6]<<1<<(63-p&63)) & %#x\n", w-1, mask)
	}
	fmt.Fprintln(b, "\t\t\t\tvar fail uint64")
	fmt.Fprintln(b, "\t\t\t\tif v-lo > span {\nfail = 1\n}")
	fmt.Fprintln(b, "\t\t\t\tclr |= r & -r & -fail")
	fmt.Fprintln(b, "\t\t\t}")
	fmt.Fprintln(b, "\t\t\tif dst[b] &^= clr << o; o != 0 {\ndst[b+1] &^= clr >> (64 - o)\n}")
	fmt.Fprintln(b, "\t\t\tcontinue")
}

// carryFree reports whether multiplying a word whose set bits lie at
// bit(i), i < k, by lanes(w-1, k) is exact: every partial product of
// such a bit and a multiplier term (bit m(w-1)) that stays inside the
// word lands on a bit of its own, so the product is an OR and carries
// nothing. The select gather (bits at the lane tops, (i+1)w-1) has it
// whenever w-1 >= k, and at w = 8; the masked sum's spread (bits i)
// whenever w-1 >= k.
func carryFree(w, k int, bit func(i int) int) bool {
	var seen uint64
	for i := 0; i < k; i++ {
		for m := 0; m < k; m++ {
			p := bit(i) + m*(w-1)
			if p >= 64 {
				continue
			}
			if seen&(1<<p) != 0 {
				return false
			}
			seen |= 1 << p
		}
	}
	return true
}

// shiftExpr returns e << by, or e itself when by is 0.
func shiftExpr(e string, by int) string {
	if by == 0 {
		return e
	}
	if strings.Contains(e, " ") {
		e = "(" + e + ")"
	}
	return fmt.Sprintf("%s << %d", e, by)
}

// lanes returns the word with bit 0 of each of the n low w-bit lanes
// set: the multiplier that broadcasts a lane value to n lanes.
func lanes(w, n int) uint64 {
	var r uint64
	for i := 0; i < n; i++ {
		r |= 1 << (i * w)
	}
	return r
}

// compressSteps returns the six move masks of Hacker's Delight's
// compress (7-4) for a constant mask: step i moves the bits under
// mv[i] right by 2^i, so that applying the steps in order packs the
// bits of x&mask into the low bits, order kept.
func compressSteps(mask uint64) (mv [6]uint64) {
	mk := ^mask << 1 // counts the zeros to a bit's right
	for i := range mv {
		mp := mk ^ mk<<1 // parallel suffix
		mp ^= mp << 2
		mp ^= mp << 4
		mp ^= mp << 8
		mp ^= mp << 16
		mp ^= mp << 32
		mv[i] = mp & mask
		mask = mask ^ mv[i] | mv[i]>>(1<<i)
		mk &^= mp
	}
	return mv
}

// window returns the expression for window j of a lane kernel with k
// w-bit lanes a window: src's bits from lane jk on, funnel-shifted
// across a word boundary when the window's n lanes straddle one. Bits
// above the n lanes are the next window's; each kernel masks them.
func window(w, k, j, n int) string {
	p := j * k * w
	word, off := p/64, p%64
	if off == 0 {
		return fmt.Sprintf("src[%d]", word)
	}
	x := fmt.Sprintf("src[%d]>>%d", word, off)
	if off+n*w > 64 {
		x += fmt.Sprintf(" | src[%d]<<%d", word+1, 64-off)
	}
	return x
}

// emitSumMasked writes the case of width w, up to swarMaxWidth, of
// sumMaskedRun: per block, the wrapping sum of the values whose bit is
// set in the block's mask m, computed on the packed words without
// unpacking them.
//
// Each window holds k lanes (sumLayout). Its k bits of m are spread
// onto the lanes' low bits (spreadSteps), the spread word times
// Mask(w) fills every chosen lane with ones, and that ANDed with the
// window leaves the kept lanes and zeros. Halving folds (folds) then
// add neighbouring fields: a field that sums j lanes of w bits needs
// w + log2(j) bits and has jw of them. Each window folds once before
// it is added into one accumulator, and the accumulator takes the
// remaining folds once, at the end. At w = 1 the kept lanes are
// single bits, and their sum is a popcount.
func emitSumMasked(b *bytes.Buffer, w int) {
	fmt.Fprintln(b, "\tvar s uint64")
	if w == 1 {
		fmt.Fprintln(b, "for b, m := range masks {")
		fmt.Fprintln(b, "\ts += uint64(bits.OnesCount64(words[b] & m))")
		fmt.Fprintln(b, "}")
		fmt.Fprintln(b, "\treturn s")
		return
	}
	k := sumLayout(w)
	fs := folds(w, k)
	fmt.Fprintln(b, "for b, m := range masks {")
	fmt.Fprintln(b, "\tif m == 0 {\ncontinue\n}")
	fmt.Fprintf(b, "src := words[b*%d:][:%d]\n", w, w)
	fmt.Fprintln(b, "\tif bits.OnesCount64(m) <= sparseMasked {")
	fmt.Fprintf(b, "\t\ts += sumSparse(src, %d, m)\ncontinue\n", w)
	fmt.Fprintln(b, "\t}")
	for j, decl := 0, ":="; j*k < 64; j, decl = j+1, "=" {
		n := min(k, 64-j*k)
		e := "m"
		if j > 0 {
			e = fmt.Sprintf("m >> %d", j*k)
		}
		if j*k+n < 64 {
			e += fmt.Sprintf(" & %#x", uint64(1)<<n-1)
		}
		steps := spreadSteps(w, n)
		if steps == nil {
			e += fmt.Sprintf(" * %#x", lanes(w-1, n))
		}
		fmt.Fprintf(b, "\te%s %s\n", decl, e)
		for i := len(steps) - 1; i >= 0; i-- {
			if mv := steps[i]; mv != 0 {
				fmt.Fprintf(b, "\te = e&^%#x | e<<%d&%#x\n", mv, 1<<i, mv)
			}
		}
		x := window(w, k, j, n)
		if strings.Contains(x, " ") {
			x = "(" + x + ")"
		}
		fmt.Fprintf(b, "\tv%s %s & (e & %#x * %#x)\n", decl, x, lanes(w, n), uint64(1)<<w-1)
		acc := "acc += "
		if j == 0 {
			acc = "acc := "
		}
		fmt.Fprintf(b, "\t%s%s\n", acc, fs[0].expr("v"))
	}
	for _, fo := range fs[1:] {
		fmt.Fprintf(b, "\tacc = %s\n", fo.expr("acc"))
	}
	fmt.Fprintln(b, "\ts += acc")
	fmt.Fprintln(b, "}")
	fmt.Fprintln(b, "\treturn s")
}

// spreadSteps returns how the masked sum moves bit i of a window's
// mask bits onto bit iw, the start of lane i, for every i < n. A nil
// result means one multiply by lanes(w-1, n) does it: bit i times the
// term 2^(i(w-1)) lands on bit iw, and when the product is carry-free
// (w-1 >= n) no other partial product lands on a lane start. Otherwise
// it returns the expand network of Hacker's Delight 7-5, which is
// compressSteps(lanes(w, n)) run backwards: for i from 5 down to 0,
// e = e&^mv[i] | e<<2^i&mv[i]. Either way stray bits may be left
// between the lane starts; the kernel's lane mask clears them.
// spreadSteps checks its answer on every single bit, which covers every
// mask: both spreads are linear over GF(2), the multiply because it
// is carry-free.
func spreadSteps(w, n int) []uint64 {
	var steps []uint64
	if !carryFree(w, n, func(i int) int { return i }) {
		mv := compressSteps(lanes(w, n))
		steps = mv[:]
	}
	for i := 0; i < n; i++ {
		e := uint64(1) << i
		if steps == nil {
			e *= lanes(w-1, n)
		}
		for s := len(steps) - 1; s >= 0; s-- {
			e = e&^steps[s] | e<<(1<<s)&steps[s]
		}
		if e&lanes(w, n) != 1<<(i*w) {
			log.Fatalf("gen: the spread of bit %d at width %d, %d lanes, is %#x", i, w, n, e)
		}
	}
	return steps
}

// fold is one halving fold, v&e + v>>l&o, of a word of l-bit fields:
// e keeps the even fields where they are and o takes the odd ones,
// shifted down onto them.
type fold struct {
	l    int
	e, o uint64
}

// expr returns the fold applied to v. When the odd fields are all of
// v above the lowest, the shift alone takes them.
func (fo fold) expr(v string) string {
	if fo.o == ^uint64(0)>>fo.l {
		return fmt.Sprintf("%s&%#x + %s>>%d", v, fo.e, v, fo.l)
	}
	return fmt.Sprintf("%s&%#x + %s>>%d&%#x", v, fo.e, v, fo.l, fo.o)
}

// folds returns the halving folds that add k lanes of w bits into one
// field. At each level the fields are l bits wide: field i runs from
// bit il to the next field's start, and the last one to bit 63, so a
// top field holding fewer lanes than the others keeps the spare bits
// above them.
func folds(w, k int) []fold {
	var fs []fold
	for l, n := w, k; n > 1; l, n = 2*l, (n+1)/2 {
		var e, o uint64
		for i := 0; i < n; i++ {
			end := 64
			if i+1 < n {
				end = (i + 1) * l
			}
			field := ^uint64(0) >> (64 - end + i*l) << (i * l)
			if i%2 == 0 {
				e |= field
			} else {
				o |= field >> l
			}
		}
		fs = append(fs, fold{l, e, o})
	}
	return fs
}

// foldsFit reports whether the masked sum can add its windows of k
// w-bit lanes together once each has folded once: whether, with every
// value at its largest, 2^w-1, every field of the accumulator, and of
// each fold that finishes it, stays below its neighbour. A window's
// own fold always fits: two lanes of w bits sum to at most w+1 bits.
func foldsFit(w, k int) bool {
	field := make([]uint64, (k+1)/2) // the largest value each field can hold
	for j := 0; j*k < 64; j++ {
		for i := range min(k, 64-j*k) {
			field[i/2] += 1<<w - 1
		}
	}
	for l := 2 * w; ; l *= 2 {
		for i, v := range field {
			end := 64
			if i+1 < len(field) {
				end = (i + 1) * l
			}
			if end-i*l < 64 && v>>(end-i*l) != 0 {
				return false
			}
		}
		if len(field) == 1 {
			return true
		}
		next := make([]uint64, (len(field)+1)/2)
		for i, v := range field {
			next[i/2] += v
		}
		field = next
	}
}

// sumLayout returns the lanes per window k of the masked sum at width
// w: among k from ⌊64/w⌋ down to half of it whose accumulator fits
// (foldsFit), the one with the fewest word operations by a rough
// count. A full word of lanes is not always best: at w = 7, nine lanes
// leave the top lane one spare bit, so no accumulator fits, and eight
// spread through an expand network, where six spread with one
// multiply. Widths 3 and 6 to 9 take the narrower windows.
func sumLayout(w int) (k int) {
	best := -1
	for kk := 64 / w; 2*kk >= 64/w; kk-- {
		if !foldsFit(w, kk) {
			continue
		}
		cost := 4 * (len(folds(w, kk)) - 1) // the accumulator's folds
		for j := 0; j*kk < 64; j++ {
			n := min(kk, 64-j*kk)
			cost += 9 // mask bits, lane mask, fill, keep, fold, accumulate
			if strings.Contains(window(w, kk, j, n), "|") {
				cost += 2
			}
			steps := spreadSteps(w, n)
			if steps == nil {
				cost++
			}
			for _, mv := range steps {
				if mv != 0 {
					cost += 4
				}
			}
		}
		if best < 0 || cost < best {
			best, k = cost, kk
		}
	}
	if best < 0 {
		log.Fatalf("gen: no window of %d-bit lanes leaves the masked sum room", w)
	}
	return k
}

// emitSum writes the plain case of width w, up to swarMaxWidth, of
// sumRun: per block the fully unrolled wrapping sum of its 64 values —
// straight-line adds with no branches, so the compiler is free to
// schedule them for ILP.
func emitSum(b *bytes.Buffer, w int) {
	fmt.Fprintln(b, "\tvar s uint64")
	blockLoop(b, w, false)
	fmt.Fprintf(b, "\tconst mask = uint64(1)<<%d - 1\n", w)
	for i := 0; i < 64; i++ {
		op := "+="
		if i == 0 {
			op = ":="
		}
		fmt.Fprintf(b, "\tv %s %s\n", op, valueExpr(w, i))
	}
	sumBlockEnd(b)
}

// sumBlockEnd closes a sumRun case's block loop: the block's sum v is
// added to the run's.
func sumBlockEnd(b *bytes.Buffer) {
	fmt.Fprintln(b, "\ts += v")
	fmt.Fprintln(b, "}")
	fmt.Fprintln(b, "\treturn s")
}

// emitSumZZSWAR writes the zigzag case of width w, up to swarMaxWidth,
// of sumRun, lane by lane on the packed words, in the windows of the
// masked sum (sumLayout). A zigzag lane u decodes to h = u>>1 when its
// low bit o is 0 and to −h−1 = h − u when it is 1, so the block sums to
// Σh − Σ{u : o = 1} = (Σu − #odd)/2 − Σ{u : o = 1}. Per window the odd
// lanes' low bits, times Mask(w), select the odd lanes; the window and
// its odd lanes fold into two accumulators and the low bits are
// popcounted, and the accumulators take the remaining folds at the
// end. At w = 1 every set bit is a −1.
func emitSumZZSWAR(b *bytes.Buffer, w int) {
	fmt.Fprintln(b, "\tvar s uint64")
	blockLoop(b, w, false)
	if w == 1 {
		fmt.Fprintln(b, "\tv := -uint64(bits.OnesCount64(src[0]))")
		sumBlockEnd(b)
		return
	}
	k := sumLayout(w)
	fs := folds(w, k)
	for j, decl := 0, ":="; j*k < 64; j, decl = j+1, "=" {
		n := min(k, 64-j*k)
		x := window(w, k, j, n)
		if strings.Contains(x, " ") {
			x = "(" + x + ")"
		}
		fmt.Fprintf(b, "\tx%s %s & %#x\n", decl, x, lanes(w, n)*(uint64(1)<<w-1))
		fmt.Fprintf(b, "\to%s x & %#x\n", decl, lanes(w, n))
		fmt.Fprintf(b, "\tv%s x & (o * %#x)\n", decl, uint64(1)<<w-1)
		if j == 0 {
			fmt.Fprintln(b, "\tc := bits.OnesCount64(o)")
			fmt.Fprintf(b, "\tacc := %s\n", fs[0].expr("x"))
			fmt.Fprintf(b, "\todd := %s\n", fs[0].expr("v"))
			continue
		}
		fmt.Fprintln(b, "\tc += bits.OnesCount64(o)")
		fmt.Fprintf(b, "\tacc += %s\n", fs[0].expr("x"))
		fmt.Fprintf(b, "\todd += %s\n", fs[0].expr("v"))
	}
	for _, fo := range fs[1:] {
		fmt.Fprintf(b, "\tacc = %s\n", fo.expr("acc"))
		fmt.Fprintf(b, "\todd = %s\n", fo.expr("odd"))
	}
	fmt.Fprintln(b, "\tv = (acc-uint64(c))>>1 - odd")
	sumBlockEnd(b)
}

// emitPrefixRange writes the case of width w, plain or zigzag, of
// prefixRangeRun: the values a delta form decodes to — the running sums
// of the blocks' values — each tested against the window as it is made,
// with no block buffer between the unpack, the sum and the test. With
// span+1 = s ≠ 0, v-lo <= span exactly when v-lo-s borrows, and the
// borrow is the match bit.
func emitPrefixRange(b *bytes.Buffer, w int, zz bool) {
	fmt.Fprintln(b, "\ts := span + 1")
	blockLoop(b, w, false)
	fmt.Fprintln(b, "\tvar m uint64")
	emitPrefixValues(b, w, zz, func(i int) {
		fmt.Fprintf(b, "\tm |= borrow(uint64(x)-lo, s) << %d\n", i)
	})
	fmt.Fprintln(b, "\tmasks[b] = m")
	fmt.Fprintln(b, "}")
	fmt.Fprintln(b, "\treturn x")
}

// emitPrefixMasked writes the case of width w, plain or zigzag, of
// prefixMaskedRun: emitPrefixRange's running sums, each added to a
// second sum when its bit of the block's mask m is set, without being
// stored. int64(m<<(63-i))>>63 is all ones exactly when bit i is set:
// no branch, and no test of a 64-bit constant.
func emitPrefixMasked(b *bytes.Buffer, w int, zz bool) {
	fmt.Fprintln(b, "\tvar s int64")
	blockLoop(b, w, true)
	emitPrefixValues(b, w, zz, func(i int) {
		fmt.Fprintf(b, "\ts += x & (int64(m<<%d) >> 63)\n", 63-i)
	})
	fmt.Fprintln(b, "}")
	fmt.Fprintln(b, "\treturn s, x")
}

// emitPrefixValues writes the body the prefix kernels share: x
// advanced by each of the block's 64 values in turn, then use(i) on
// it. Plain values are extracted one by one. Zigzag ones are decoded
// a word of ⌊64/w⌋ lanes at a time: a lane u = 2h+o (o its low bit)
// decodes to h when o is 0 and to −h−1, which is h with its w bits
// inverted, when o is 1 — so h per lane, XORed with o times Mask(w),
// is each lane's value as a w-bit two's complement, and one shift up
// to the word's top and one arithmetic shift back sign-extend it.
func emitPrefixValues(b *bytes.Buffer, w int, zz bool, use func(i int)) {
	if !zz {
		fmt.Fprintf(b, "\tconst mask = uint64(1)<<%d - 1\n", w)
		for i := 0; i < 64; i++ {
			fmt.Fprintf(b, "\tx += int64(%s)\n", valueExpr(w, i))
			use(i)
		}
		return
	}
	k := 64 / w
	if w == 1 {
		fmt.Fprintln(b, "\tvar v uint64")
	} else {
		fmt.Fprintln(b, "\tvar v, o uint64")
	}
	for j := 0; j*k < 64; j++ {
		n := min(k, 64-j*k)
		x := window(w, k, j, n)
		low := lanes(w, n)
		if w == 1 {
			// A 1-bit lane is its own low bit: 0 decodes to 0, 1 to −1.
			fmt.Fprintf(b, "\tv = %s\n", x)
		} else {
			if strings.Contains(x, " ") {
				x = "(" + x + ")"
			}
			fmt.Fprintf(b, "\tv = %s\n", x)
			fmt.Fprintf(b, "\to = v & %#x\n", low)
			fmt.Fprintf(b, "\tv = v>>1&%#x ^ o*%#x\n", low*(uint64(1)<<(w-1)-1), uint64(1)<<w-1)
		}
		for l := 0; l < n; l++ {
			up := 64 - w - l*w
			e := "v"
			if up > 0 {
				e = fmt.Sprintf("v<<%d", up)
			}
			fmt.Fprintf(b, "\tx += int64(%s) >> %d\n", e, 64-w)
			use(j*k + l)
		}
	}
}
