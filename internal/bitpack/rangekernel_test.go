package bitpack

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// refMask is the range predicate evaluated on unpacked values with the
// kernels' wrap-around convention: bit i is set iff vals[i]-lo <= span
// (mod 2^64).
func refMask(vals []uint64, lo, span uint64) uint64 {
	var m uint64
	for i, v := range vals {
		if v-lo <= span {
			m |= 1 << uint(i)
		}
	}
	return m
}

// keepWords are the incoming selection words keep is checked with on
// every block: empty, full, one row at either end, 3, 6, 7, 8,
// sparseKeep and sparseKeep+1 rows — each side of every lane width's
// sparse cut — and two dense patterns.
var keepWords = [...]uint64{
	0, ^uint64(0), 1, 1 << 63, Mask(3) << 9, Mask(6) << 40, Mask(7) << 2, Mask(8) << 30,
	Mask(sparseKeep) << 20, Mask(sparseKeep+1) << 7,
	0x5555555555555555, 0xfff0fff00f0f00ff,
}

// checkRangeKernels runs countRun and selectRun, in select and in keep
// mode, on one packed 64-value block and compares them with the
// reference predicate on vals, plain and zigzag-decoded.
func checkRangeKernels(t *testing.T, w uint, vals []uint64, lo, span uint64) {
	t.Helper()
	packed, err := Pack(vals, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, zz := range []bool{false, true} {
		want := refMask(decoded(vals, zz), lo, span)
		var got [1]uint64
		if selectRun(packed, 1, w, lo, span, zz, false, got[:], 0); got[0] != want {
			t.Fatalf("w=%d zz=%v lo=%#x span=%#x: select = %#x, want %#x (vals %v)", w, zz, lo, span, got[0], want, vals)
		}
		if got, want := countRun(packed, 1, w, lo, span, zz), bits.OnesCount64(want); got != want {
			t.Fatalf("w=%d zz=%v lo=%#x span=%#x: count = %d, want %d (vals %v)", w, zz, lo, span, got, want, vals)
		}
		for _, in := range keepWords {
			got[0] = in
			if selectRun(packed, 1, w, lo, span, zz, true, got[:], 0); got[0] != in&want {
				t.Fatalf("w=%d zz=%v lo=%#x span=%#x in=%#x: keep = %#x, want %#x (vals %v)", w, zz, lo, span, in, got[0], in&want, vals)
			}
		}
	}
}

// decoded returns vals zigzag-decoded, each as the unsigned image of its
// signed value, when zz, and vals itself otherwise.
func decoded(vals []uint64, zz bool) []uint64 {
	if !zz {
		return vals
	}
	d := make([]uint64, len(vals))
	for i, v := range vals {
		d[i] = uint64(Unzigzag(v))
	}
	return d
}

// rangeBounds returns the (lo, span) windows every width is checked
// against: lo beyond the domain, hi at MaxUint64, empty-width windows
// at 0, at the top and at a present value, windows on both sides of
// and across 2^(w-1), the full domain, and random 64-bit windows
// (which may wrap).
func rangeBounds(rng *rand.Rand, w uint, present uint64) [][2]uint64 {
	m := Mask(w)
	var half uint64
	if w > 0 {
		half = 1 << (w - 1)
	}
	bs := [][2]uint64{
		{m + 1, 0}, {m + 1, 5}, {m + 1, math.MaxUint64 - m}, // lo > Mask(w); the last wraps to 0
		{0, math.MaxUint64}, {present, math.MaxUint64 - present}, {m, math.MaxUint64 - m},
		{0, 0}, {m, 0}, {present, 0},
		{0, m}, {1, m}, {0, m - 1},
		{half - 1, 1}, {half - 1, 0}, {half, 0}, {0, half - 1}, {0, half}, {half, m - half},
		{half / 2, half}, {half - 1, half}, {half + 1, half - 2},
		{present / 2, present/2 + 1},
		{present, math.MaxUint64}, {present + 1, math.MaxUint64 - 1}, // wrap: all, all but present
	}
	for i := 0; i < 8; i++ {
		lo := rng.Uint64()
		bs = append(bs, [2]uint64{lo, rng.Uint64() >> uint(rng.Intn(64))})
		bs = append(bs, [2]uint64{lo & m, rng.Uint64() & m >> uint(rng.Intn(int(w)+1))})
	}
	return bs
}

// kernelBlocks returns the 64-value blocks every width's kernels are
// checked on: all zero, all at the width's maximum, four random ones,
// and one of three distinct values, so that narrow windows match some.
func kernelBlocks(rng *rand.Rand, w uint) [][]uint64 {
	blocks := [][]uint64{make([]uint64, BlockLen), make([]uint64, BlockLen)}
	for i := range blocks[1] {
		blocks[1][i] = Mask(w)
	}
	for i := 0; i < 4; i++ {
		blocks = append(blocks, randomValues(rng, BlockLen, w))
	}
	few := randomValues(rng, BlockLen, w)
	for i := range few {
		few[i] = few[i%3]
	}
	return append(blocks, few)
}

// TestRangeKernelsEveryWidth checks the count, select and keep of
// every width 0..64 — the lane kernels and the unpack-then-compare
// loops, plain and zigzag — bit for bit against the reference
// predicate on one block, on random, all-zero and all-max blocks, then
// drives them through CountRangeU, SelectRangeU and KeepRangeU on runs
// of blocks at non-zero word offsets, with unaligned edges, into
// selection words at an unaligned bit offset.
func TestRangeKernelsEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for w := uint(0); w <= 64; w++ {
		for _, vals := range kernelBlocks(rng, w) {
			for _, bd := range rangeBounds(rng, w, vals[rng.Intn(BlockLen)]) {
				checkRangeKernels(t, w, vals, bd[0], bd[1])
			}
		}

		// Whole blocks at word offsets w, 2w, … and unaligned edges.
		n := 4*BlockLen + 40
		vals := randomValues(rng, n, w)
		packed, err := Pack(vals, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range [][2]int{{64, 128}, {128, 64}, {192, 104}, {17, 250}} {
			start, count := r[0], r[1]
			for _, bd := range rangeBounds(rng, w, vals[start]) {
				lo, span := bd[0], bd[1]
				if lo+span < lo {
					continue // the U entry points take [lo, hi]; they never wrap
				}
				var wantN int64
				for _, v := range vals[start : start+count] {
					if v-lo <= span {
						wantN++
					}
				}
				gotN, err := CountRangeU(packed, start, count, w, lo, lo+span)
				if err != nil || gotN != wantN {
					t.Fatalf("w=%d [%d,+%d) [%#x,+%#x]: CountRangeU = %d, %v, want %d", w, start, count, lo, span, gotN, err, wantN)
				}
				match := func(i int) bool { return vals[i]-lo <= span }
				checkSelectBits(t, rng, vals, start, count, match, func(dst []uint64, off int, keep bool) error {
					if keep {
						return KeepRangeU(packed, start, count, w, lo, lo+span, dst, off)
					}
					return SelectRangeU(packed, start, count, w, lo, lo+span, dst, off)
				})
			}
		}
	}
}

// checkSelectBits runs sel, a select (keep false) or a keep of the
// positions [start, start+count) of vals into selection words at bit
// off, on words holding random bits of mixed density, at an aligned and
// an unaligned offset. Select must set bit off+j exactly where the bit
// was set or position start+j matches; keep must leave it set only
// where it was set and the position matches. No bit outside
// [off, off+count) may change.
func checkSelectBits(t *testing.T, rng *rand.Rand, vals []uint64, start, count int, match func(i int) bool, sel func(dst []uint64, off int, keep bool) error) {
	t.Helper()
	for _, off := range []int{64, 64 + rng.Intn(63) + 1} {
		in := make([]uint64, (off+count+2*BlockLen)/BlockLen)
		for i := range in {
			switch rng.Intn(5) {
			case 0:
			case 1:
				in[i] = ^uint64(0)
			case 2:
				in[i] = 1 << uint(rng.Intn(64))
			case 3:
				in[i] = rng.Uint64() & rng.Uint64() & rng.Uint64() & rng.Uint64()
			default:
				in[i] = rng.Uint64()
			}
		}
		for _, keep := range []bool{false, true} {
			dst := slices.Clone(in)
			if err := sel(dst, off, keep); err != nil {
				t.Fatalf("[%d,+%d) at bit %d, keep %v: %v", start, count, off, keep, err)
			}
			for k := range len(dst) * 64 {
				was, got := in[k/64]>>(k%64)&1 == 1, dst[k/64]>>(k%64)&1 == 1
				want := was
				if j := k - off; j >= 0 && j < count {
					if keep {
						want = was && match(start+j)
					} else {
						want = was || match(start+j)
					}
				}
				if got != want {
					t.Fatalf("[%d,+%d) at bit %d, keep %v: bit %d = %v, want %v (was %v)", start, count, off, keep, k, got, want, was)
				}
			}
		}
	}
}

// FuzzRangeKernels checks one width's select, keep and count of one block
// against the reference predicate on a seeded block whose values mix
// random words with the window's edges, then the range scans and sums
// over [start, start+count) of a payload of such values whose edges are
// padded blocks (checkEntryPoints).
func FuzzRangeKernels(f *testing.F) {
	f.Add(uint8(3), uint64(1), uint64(1), uint64(1), uint16(0), uint16(400), false)
	f.Add(uint8(16), uint64(1000), uint64(40000), uint64(2), uint16(5), uint16(54), true)
	f.Add(uint8(10), uint64(1<<9), uint64(0), uint64(3), uint16(70), uint16(287), false)
	f.Add(uint8(1), uint64(1), uint64(math.MaxUint64), uint64(4), uint16(63), uint16(2), true)
	f.Add(uint8(7), uint64(math.MaxUint64-3), uint64(70), uint64(5), uint16(129), uint16(300), true)
	f.Add(uint8(33), uint64(1)<<32, uint64(1)<<31, uint64(6), uint16(17), uint16(250), false)
	f.Fuzz(func(t *testing.T, w8 uint8, lo, span, seed uint64, start, count uint16, zz bool) {
		w := uint(w8) % 65
		rng := rand.New(rand.NewSource(int64(seed)))
		checkRangeKernels(t, w, edgeValues(rng, BlockLen, w, lo, span), lo, span)
		vals := edgeValues(rng, 5*BlockLen+37, w, lo, span)
		s := int(start) % (len(vals) + 1)
		checkEntryPoints(t, w, vals, s, int(count)%(len(vals)-s+1), lo, span, zz)
	})
}

// edgeValues returns n random w-bit values, about half of them replaced
// by the edges of the window [lo, lo+span] and of the width's domain.
func edgeValues(rng *rand.Rand, n int, w uint, lo, span uint64) []uint64 {
	vals := randomValues(rng, n, w)
	edges := [...]uint64{lo, lo - 1, lo + span, lo + span + 1, 0, Mask(w), Mask(w) >> 1, Mask(w)>>1 + 1}
	for i := range vals {
		if rng.Intn(2) == 0 {
			vals[i] = edges[rng.Intn(len(edges))] & Mask(w)
		}
	}
	return vals
}

// checkEntryPoints checks CountRange, SelectRange, KeepRange, Sum and
// SumRange — the U entry points, or the ZZ ones when zz — over
// positions [start, start+count) of vals packed at width w, against a
// plain loop over vals. The window is [lo, lo+span], cut at the top of
// its domain (unsigned, or signed when zz) when it would wrap.
func checkEntryPoints(t *testing.T, w uint, vals []uint64, start, count int, lo, span uint64, zz bool) {
	t.Helper()
	packed, err := Pack(vals, w)
	if err != nil {
		t.Fatal(err)
	}
	hi := lo + span
	switch {
	case zz && int64(hi) < int64(lo):
		hi = math.MaxInt64
	case !zz && hi < lo:
		hi = math.MaxUint64
	}
	inside := func(v uint64) bool {
		if zz {
			return int64(v) >= int64(lo) && int64(v) <= int64(hi)
		}
		return v >= lo && v <= hi
	}
	dec := decoded(vals, zz)
	var wantN int64
	var wantSum, wantRange uint64
	for _, v := range dec[start : start+count] {
		wantSum += v
		if inside(v) {
			wantN++
			wantRange += v
		}
	}
	var errs [3]error
	var n, rangeN int64
	var sum, rangeSum uint64
	if zz {
		var s, rs int64
		n, errs[0] = CountRangeZZ(packed, start, count, w, int64(lo), int64(hi))
		s, errs[1] = SumZZ(packed, start, count, w)
		rs, rangeN, errs[2] = SumRangeZZ(packed, start, count, w, int64(lo), int64(hi))
		sum, rangeSum = uint64(s), uint64(rs)
	} else {
		n, errs[0] = CountRangeU(packed, start, count, w, lo, hi)
		sum, errs[1] = SumU(packed, start, count, w)
		rangeSum, rangeN, errs[2] = SumRangeU(packed, start, count, w, lo, hi)
	}
	if err := errors.Join(errs[:]...); err != nil {
		t.Fatalf("w=%d zz=%v [%d,+%d): %v", w, zz, start, count, err)
	}
	if n != wantN || sum != wantSum || rangeSum != wantRange || rangeN != wantN {
		t.Fatalf("w=%d zz=%v [%d,+%d) [%#x, %#x]: count %d, sum %d, range sum %d over %d; want %d, %d, %d",
			w, zz, start, count, lo, hi, n, sum, rangeSum, rangeN, wantN, wantSum, wantRange)
	}
	rng := rand.New(rand.NewSource(int64(start)<<16 | int64(count)))
	checkSelectBits(t, rng, vals, start, count, func(i int) bool { return inside(dec[i]) }, func(dst []uint64, off int, keep bool) error {
		switch {
		case zz && keep:
			return KeepRangeZZ(packed, start, count, w, int64(lo), int64(hi), dst, off)
		case zz:
			return SelectRangeZZ(packed, start, count, w, int64(lo), int64(hi), dst, off)
		case keep:
			return KeepRangeU(packed, start, count, w, lo, hi, dst, off)
		}
		return SelectRangeU(packed, start, count, w, lo, hi, dst, off)
	})
}

// BenchmarkRangeKernels measures count, select and keep over a run of
// 256 random blocks at widths 1..64, plain and zigzag (the ZZ rows), in
// ns per value: one payload kernel call a run, the matrix that places
// the lane-parallel cut (swarMaxWidth in gen/main.go) and prices the
// unpack-then-compare loops. A plain window is a quarter of the domain
// from Mask(w)/4, a zigzag one a quarter centred on 0. Keep runs on a
// selection holding every row, so every block takes the kernel.
func BenchmarkRangeKernels(b *testing.B) {
	const blocks = 256
	for w := uint(1); w <= 64; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		packed, err := Pack(randomValues(rng, blocks*BlockLen, w), w)
		if err != nil {
			b.Fatal(err)
		}
		perValue := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks*BlockLen), "ns/value")
		}
		dst := make([]uint64, blocks)
		for _, zz := range []bool{false, true} {
			lo, span, row := Mask(w)/4, Mask(w)/4, ""
			if zz {
				lo, row = -(Mask(w) / 8), "ZZ"
			}
			for _, keep := range []bool{false, true} {
				name := "select"
				if keep {
					name = "keep"
				}
				b.Run(fmt.Sprintf("w=%d/%s%s", w, name, row), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						for k := range dst {
							dst[k] = ^uint64(0)
						}
						selectRun(packed, blocks, w, lo, span, zz, keep, dst, 0)
					}
					perValue(b)
					benchSink = dst[0]
				})
			}
			b.Run(fmt.Sprintf("w=%d/count%s", w, row), func(b *testing.B) {
				n := 0
				for i := 0; i < b.N; i++ {
					n += countRun(packed, blocks, w, lo, span, zz)
				}
				perValue(b)
				benchSink = uint64(n)
			})
		}
	}
}

// BenchmarkKeepKernels prices keep by how many rows a block's
// selection word holds, at widths 3, 10 and 16, in ns per block over a
// run of 256 random blocks: keep, which reads just those rows' values
// up to sparseKeep of them and runs the block's lane kernel above it,
// against lanes, the select kernel's masks ANDed into the words — what
// a conjunct cost before keep. Where the two meet places sparseKeep
// (DESIGN.md §1.14).
func BenchmarkKeepKernels(b *testing.B) {
	const blocks = 256
	for _, w := range []uint{3, 10, 16} {
		rng := rand.New(rand.NewSource(int64(w)))
		packed, err := Pack(randomValues(rng, blocks*BlockLen, w), w)
		if err != nil {
			b.Fatal(err)
		}
		lo, span := Mask(w)/4, Mask(w)/2
		for _, rows := range []int{1, 2, 4, 6, 8, 12, 16, 32} {
			in := make([]uint64, blocks)
			for k := range in {
				for bits.OnesCount64(in[k]) < rows {
					in[k] |= 1 << uint(rng.Intn(BlockLen))
				}
			}
			dst, sel := make([]uint64, blocks), make([]uint64, blocks)
			perBlock := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks), "ns/block")
			}
			b.Run(fmt.Sprintf("w=%d/rows=%d/keep", w, rows), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(dst, in)
					selectRun(packed, blocks, w, lo, span, false, true, dst, 0)
				}
				perBlock(b)
				benchSink = dst[0]
			})
			b.Run(fmt.Sprintf("w=%d/rows=%d/lanes", w, rows), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(dst, in)
					clear(sel)
					selectRun(packed, blocks, w, lo, span, false, false, sel, 0)
					for k, m := range sel {
						dst[k] &= m
					}
				}
				perBlock(b)
				benchSink = dst[0]
			})
		}
	}
}

// benchSink keeps the benchmarked kernels' results alive.
var benchSink uint64
