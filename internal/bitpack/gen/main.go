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
// the masked sum (emitSumMasked) and the sum over a range composed of
// the two, the zigzag sum (emitSumZZSWAR), and the running sums of a
// delta form (emitPrefixRange, emitPrefixMasked). Beside them those
// widths keep an unrolled plain sum (emitSum).
//
// Nothing else is generated. Every other block operator — any width
// above swarMaxWidth, the zigzag compares at every width, the
// dictionary gather — is one hand-written loop (internal/bitpack's
// fused.go) that unpacks the block into a stack [64]uint64 through
// unpack64, the generated switch over the unpack kernels, and then
// compares or adds. Per-value kernels of their own paid only at widths
// no workload scans (DESIGN.md §1.7).
//
// The per-block functions countInRangeBlock, selectInRangeBlock,
// sumInRangeBlock and sumBlock are generated switches on the block's
// width: each lane kernel is written as its case, and every other block
// goes to its loop. A block thus costs one static call. A call through
// a table of functions would cost as much, but it would move a stack
// buffer passed to it to the heap.
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
	fmt.Fprintln(&b, "// blockFunc packs one 64-value block.")
	fmt.Fprintln(&b, "type blockFunc func(src, dst []uint64)")
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "func blockWidth0(src, dst []uint64) {")
	fmt.Fprintln(&b, "\tpanic(\"bitpack: width-0 blocks are handled before kernel dispatch\")")
	fmt.Fprintln(&b, "}")
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "// sumMaskedFunc sums the values of one 64-value block whose bit is")
	fmt.Fprintln(&b, "// set in m (bit i = value i), wrapping mod 2^64.")
	fmt.Fprintln(&b, "type sumMaskedFunc func(src []uint64, m uint64) uint64")
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "// borrow is 1 when a < s and 0 otherwise: the borrow out of a − s.")
	fmt.Fprintln(&b, "func borrow(a, s uint64) uint64 {")
	fmt.Fprintln(&b, "\t_, c := bits.Sub64(a, s, 0)")
	fmt.Fprintln(&b, "\treturn c")
	fmt.Fprintln(&b, "}")
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "// prefixRangeFunc returns the bitmap of which running sums x plus")
	fmt.Fprintln(&b, "// the first i+1 values of one block lie inside [lo, lo+span]")
	fmt.Fprintln(&b, "// (span < 2^64-1), and the last running sum.")
	fmt.Fprintln(&b, "type prefixRangeFunc func(src []uint64, x int64, lo, span uint64) (uint64, int64)")
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "// prefixMaskedFunc returns the wrapping sum of the running sums x")
	fmt.Fprintln(&b, "// plus the first i+1 values of one block for the set bits i of m,")
	fmt.Fprintln(&b, "// and the last running sum.")
	fmt.Fprintln(&b, "type prefixMaskedFunc func(src []uint64, x int64, m uint64) (int64, int64)")
	fmt.Fprintln(&b)
	for w := 1; w <= 64; w++ {
		emitPack(&b, w)
		emitUnpack(&b, w)
		if w <= swarMaxWidth {
			emitSumMasked(&b, w)
			for _, zz := range []bool{false, true} {
				emitPrefixRange(&b, w, zz)
				emitPrefixMasked(&b, w, zz)
			}
		}
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
	// Width 0 is 64 zeros: inside the window or not, all of them.
	zero := func(all, none string) func(w int) {
		return func(w int) {
			fmt.Fprintf(&b, "if 0-lo <= span {\nreturn %s\n}\nreturn %s\n", all, none)
		}
	}
	emitDispatch(&b, []string{
		"// countInRangeBlock counts the values of one block, w = len(src) bits",
		"// each, inside [lo, lo+span] (unsigned, or the signed window over the",
		"// zigzag-decoded values when zz). Every width evaluates the same",
		"// predicate, v-lo <= span mod 2^64, so a wrapping window gets the",
		"// same answer at every width too.",
	}, "countInRangeBlock(src []uint64, lo, span uint64, zz bool) int",
		zero("64", "0"), func(w int) { emitRangeSWAR(&b, w, false) }, nil, "countLoop(src, lo, span, zz)")
	emitDispatch(&b, []string{
		"// selectInRangeBlock returns the match mask of one block against",
		"// [lo, lo+span], as countInRangeBlock counts it: bit i is set iff",
		"// value i is inside.",
	}, "selectInRangeBlock(src []uint64, lo, span uint64, zz bool) uint64",
		zero("^uint64(0)", "0"), func(w int) { emitRangeSWAR(&b, w, true) }, nil, "selectLoop(src, lo, span, zz)")
	emitDispatch(&b, []string{
		"// sumInRangeBlock sums and counts the values of one block inside",
		"// [lo, lo+span], as countInRangeBlock counts them; the sum wraps",
		"// mod 2^64.",
	}, "sumInRangeBlock(src []uint64, lo, span uint64, zz bool) (uint64, int)",
		func(w int) { emitSumInRangeComposed(&b, 0) }, func(w int) { emitSumInRangeComposed(&b, w) }, nil,
		"sumInRangeLoop(src, lo, span, zz)")
	emitDispatch(&b, []string{
		"// sumBlock sums the 64 values of one block, w = len(src) bits each,",
		"// zigzag-decoded when zz, wrapping mod 2^64.",
	}, "sumBlock(src []uint64, zz bool) uint64",
		func(w int) { fmt.Fprintln(&b, "return 0") }, func(w int) { emitSum(&b, w) },
		func(w int) { emitSumZZSWAR(&b, w) }, "sumLoop(src, zz)")
	fmt.Fprintln(&b, "// sumMaskedFuncs holds the lane-parallel masked sums. Entry 0 is nil:")
	fmt.Fprintln(&b, "// a width-0 block sums to 0 under any mask.")
	fmt.Fprintf(&b, "var sumMaskedFuncs = [%d]sumMaskedFunc{\n", swarMaxWidth+1)
	fmt.Fprintln(&b, "\tnil,")
	for w := 1; w <= swarMaxWidth; w++ {
		fmt.Fprintf(&b, "\tsumMaskedBlock%d,\n", w)
	}
	fmt.Fprintln(&b, "}")
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "// The prefixRange and prefixMasked tables hold the delta kernels of")
	fmt.Fprintln(&b, "// the lane-parallel widths, plain and zigzag. Entry 0 is nil: a")
	fmt.Fprintln(&b, "// width-0 block adds nothing.")
	for _, zz := range []string{"", "ZZ"} {
		fmt.Fprintf(&b, "var prefixRange%sFuncs = [%d]prefixRangeFunc{\n", zz, swarMaxWidth+1)
		fmt.Fprintln(&b, "\tnil,")
		for w := 1; w <= swarMaxWidth; w++ {
			fmt.Fprintf(&b, "\tprefixRange%sBlock%d,\n", zz, w)
		}
		fmt.Fprintln(&b, "}")
		fmt.Fprintln(&b)
		fmt.Fprintf(&b, "var prefixMasked%sFuncs = [%d]prefixMaskedFunc{\n", zz, swarMaxWidth+1)
		fmt.Fprintln(&b, "\tnil,")
		for w := 1; w <= swarMaxWidth; w++ {
			fmt.Fprintf(&b, "\tprefixMasked%sBlock%d,\n", zz, w)
		}
		fmt.Fprintln(&b, "}")
		fmt.Fprintln(&b)
	}

	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatalf("gen: generated code does not parse: %v", err)
	}
	os.Stdout.Write(src)
}

// emitDispatch writes a per-block function, sig, whose width is
// len(src): a block of at most swarMaxWidth bits runs its lane kernel,
// written in its case of the function's switch by lane (zero at width
// 0) — or by zzLane for a zigzag block when zzLane is not nil — and
// every other block returns loop. The kernels are cases, not functions
// of their own, so that a block costs one call.
func emitDispatch(b *bytes.Buffer, doc []string, sig string, zero, lane, zzLane func(w int), loop string) {
	cases := func(lane func(w int)) {
		fmt.Fprintln(b, "switch len(src) {")
		fmt.Fprintln(b, "case 0:")
		zero(0)
		for w := 1; w <= swarMaxWidth; w++ {
			fmt.Fprintf(b, "case %d:\n", w)
			lane(w)
		}
		fmt.Fprintln(b, "}")
	}
	fmt.Fprintln(b, strings.Join(doc, "\n"))
	fmt.Fprintf(b, "func %s {\n", sig)
	if zzLane == nil {
		fmt.Fprintln(b, "if !zz {")
		cases(lane)
	} else {
		fmt.Fprintln(b, "if zz {")
		cases(zzLane)
		fmt.Fprintln(b, "} else {")
		cases(lane)
	}
	fmt.Fprintln(b, "}")
	fmt.Fprintf(b, "return %s\n", loop)
	fmt.Fprintln(b, "}")
	fmt.Fprintln(b)
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
// swarMaxWidth, of countInRangeBlock or selectInRangeBlock: a
// word-parallel (SWAR) kernel, in which each
// 64-bit window holds k = ⌊64/w⌋ whole lanes, funnel-shifted across
// word boundaries, and all k lanes are compared at once.
//
// laneArc (fused.go) first turns [lo, lo+span] into an arc of the
// lane ring: v matches iff ((v-a) mod 2^w <= s) xor inv, s < 2^(w-1).
// Per window, with h the lane tops and every constant broadcast to
// all lanes:
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
// mask.
func emitRangeSWAR(b *bytes.Buffer, w int, sel bool) {
	k := 64 / w
	windows := (64 + k - 1) / k
	tops := func(n int) uint64 { return lanes(w, n) << (w - 1) }
	half := uint64(1) << (w - 1)
	multiply := carryFree(w, k, func(i int) int { return (i+1)*w - 1 }) // else gather with a compress network

	fmt.Fprintf(b, "\t// %d lanes per word.\n", k)
	fmt.Fprintf(b, "\t_ = src[%d]\n", w-1)
	fmt.Fprintf(b, "\ta, s, inv, ok := laneArc(lo, span, %#x)\n", uint64(1)<<w-1)
	fmt.Fprintln(b, "\tif !ok {")
	if sel {
		fmt.Fprintln(b, "\t\treturn inv")
	} else {
		// inv is 0 or all ones here: no value matches, or all 64 do.
		fmt.Fprintln(b, "\t\treturn int(inv & 64)")
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
	if sel {
		fmt.Fprintln(b, "\tvar m uint64")
		if w > 1 && !multiply {
			fmt.Fprintln(b, "\tvar t uint64")
		}
	} else {
		fmt.Fprintln(b, "\tn := 0")
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
		fmt.Fprintln(b, "\treturn m ^ inv")
	} else {
		fmt.Fprintln(b, "\tif inv != 0 {")
		fmt.Fprintln(b, "\t\treturn 64 - n")
		fmt.Fprintln(b, "\t}")
		fmt.Fprintln(b, "\treturn n")
	}
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

// emitSumMasked writes sumMaskedBlockW for a width up to swarMaxWidth:
// the wrapping sum of the values of a 64-value block whose bit is set
// in m, computed on the packed words without unpacking them.
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
	fmt.Fprintf(b, "// sumMaskedBlock%d sums the %d-bit values of src[0:%d] whose bit is set in m, lane by lane on the packed words.\n", w, w, w)
	fmt.Fprintf(b, "func sumMaskedBlock%d(src []uint64, m uint64) uint64 {\n", w)
	if w == 1 {
		fmt.Fprintln(b, "\treturn uint64(bits.OnesCount64(src[0] & m))")
		fmt.Fprintln(b, "}")
		fmt.Fprintln(b)
		return
	}
	k := sumLayout(w)
	fs := folds(w, k)
	fmt.Fprintf(b, "\t_ = src[%d]\n", w-1)
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
	fmt.Fprintln(b, "\treturn acc")
	fmt.Fprintln(b, "}")
	fmt.Fprintln(b)
}

// spreadSteps returns how sumMaskedBlockW moves bit i of a window's
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

// foldsFit reports whether sumMaskedBlockW can add its windows of k
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

// sumLayout returns the lanes per window k of sumMaskedBlockW at width
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

// emitSumInRangeComposed writes the case of width w, up to
// swarMaxWidth, of sumInRangeBlock as the composition of two lane
// kernels: the block's match mask, then the masked sum of the lanes it
// keeps.
func emitSumInRangeComposed(b *bytes.Buffer, w int) {
	fmt.Fprintln(b, "\tm := selectInRangeBlock(src, lo, span, false)")
	sum := "0"
	if w > 0 {
		sum = fmt.Sprintf("sumMaskedBlock%d(src, m)", w)
	}
	fmt.Fprintf(b, "\treturn %s, bits.OnesCount64(m)\n", sum)
}

// emitSum writes the plain case of width w, up to swarMaxWidth, of
// sumBlock: the fully unrolled wrapping sum of one 64-value block —
// straight-line adds with no branches, so the compiler is free to
// schedule them for ILP.
func emitSum(b *bytes.Buffer, w int) {
	fmt.Fprintf(b, "\t_ = src[%d]\n", w-1)
	fmt.Fprintf(b, "\tconst mask = uint64(1)<<%d - 1\n", w)
	fmt.Fprintln(b, "\tvar s uint64")
	for i := 0; i < 64; i++ {
		fmt.Fprintf(b, "\ts += %s\n", valueExpr(w, i))
	}
	fmt.Fprintln(b, "\treturn s")
}

// emitSumZZSWAR writes the zigzag case of width w, up to swarMaxWidth,
// of sumBlock, lane by lane on the packed words, in the windows of
// sumMaskedBlockW (sumLayout). A zigzag lane u decodes to h = u>>1 when its low bit o
// is 0 and to −h−1 = h − u when it is 1, so the block sums to
// Σh − Σ{u : o = 1} = (Σu − #odd)/2 − Σ{u : o = 1}. Per window the odd
// lanes' low bits, times Mask(w), select the odd lanes; the window and
// its odd lanes fold into two accumulators and the low bits are
// popcounted, and the accumulators take the remaining folds at the
// end. At w = 1 every set bit is a −1.
func emitSumZZSWAR(b *bytes.Buffer, w int) {
	if w == 1 {
		fmt.Fprintln(b, "\treturn -uint64(bits.OnesCount64(src[0]))")
		return
	}
	k := sumLayout(w)
	fs := folds(w, k)
	fmt.Fprintf(b, "\t_ = src[%d]\n", w-1)
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
	fmt.Fprintln(b, "\treturn (acc-uint64(c))>>1 - odd")
}

// emitPrefixRange writes prefixRangeBlockW, or prefixRangeZZBlockW
// when zz: the values a delta form decodes to — the running sums of
// the block's values — each tested against the window as it is made,
// with no block buffer between the unpack, the sum and the test. With
// span+1 = s ≠ 0, v-lo <= span exactly when v-lo-s borrows, and the
// borrow is the match bit.
func emitPrefixRange(b *bytes.Buffer, w int, zz bool) {
	name, what := "prefixRangeBlock", ""
	if zz {
		name, what = "prefixRangeZZBlock", " zigzag"
	}
	fmt.Fprintf(b, "// %s%d returns the bitmap of which running sums of x and the 64%s %d-bit values of src[0:%d] lie inside [lo, lo+span], and the last, wrapping.\n", name, w, what, w, w)
	fmt.Fprintf(b, "func %s%d(src []uint64, x int64, lo, span uint64) (uint64, int64) {\n", name, w)
	fmt.Fprintln(b, "\ts := span + 1")
	fmt.Fprintln(b, "\tvar m uint64")
	emitPrefixValues(b, w, zz, func(i int) {
		fmt.Fprintf(b, "\tm |= borrow(uint64(x)-lo, s) << %d\n", i)
	})
	fmt.Fprintln(b, "\treturn m, x")
	fmt.Fprintln(b, "}")
	fmt.Fprintln(b)
}

// emitPrefixMasked writes prefixMaskedBlockW, or prefixMaskedZZBlockW
// when zz: emitPrefixRange's running sums, each added to a second sum
// when its bit of m is set, without being stored. int64(m<<(63-i))>>63
// is all ones exactly when bit i is set: no branch, and no test of a
// 64-bit constant.
func emitPrefixMasked(b *bytes.Buffer, w int, zz bool) {
	name, what := "prefixMaskedBlock", ""
	if zz {
		name, what = "prefixMaskedZZBlock", " zigzag"
	}
	fmt.Fprintf(b, "// %s%d returns the sum of the running sums of x and the 64%s %d-bit values of src[0:%d] whose bit is set in m, and the last running sum, wrapping.\n", name, w, what, w, w)
	fmt.Fprintf(b, "func %s%d(src []uint64, x int64, m uint64) (int64, int64) {\n", name, w)
	fmt.Fprintln(b, "\tvar s int64")
	emitPrefixValues(b, w, zz, func(i int) {
		fmt.Fprintf(b, "\ts += x & (int64(m<<%d) >> 63)\n", 63-i)
	})
	fmt.Fprintln(b, "\treturn s, x")
	fmt.Fprintln(b, "}")
	fmt.Fprintln(b)
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
	fmt.Fprintf(b, "\t_ = src[%d]\n", w-1)
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
