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

// checkRangeKernels runs selectInRangeBlock and countInRangeBlock on
// one packed 64-value block and compares them with the reference
// predicate on vals, plain and zigzag-decoded.
func checkRangeKernels(t *testing.T, w uint, vals []uint64, lo, span uint64) {
	t.Helper()
	packed, err := Pack(vals, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, zz := range []bool{false, true} {
		want := refMask(decoded(vals, zz), lo, span)
		if got := selectInRangeBlock(packed, lo, span, zz); got != want {
			t.Fatalf("w=%d zz=%v lo=%#x span=%#x: select = %#x, want %#x (vals %v)", w, zz, lo, span, got, want, vals)
		}
		if got, want := countInRangeBlock(packed, lo, span, zz), bits.OnesCount64(want); got != want {
			t.Fatalf("w=%d zz=%v lo=%#x span=%#x: count = %d, want %d (vals %v)", w, zz, lo, span, got, want, vals)
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

// TestRangeKernelsEveryWidth checks the per-block select and count of
// every width 0..64 — the lane kernels and the unpack-then-compare
// loops, plain and zigzag — bit for bit against the reference
// predicate, on random, all-zero and all-max blocks, then drives them
// through SelectRangeU and CountRangeU on blocks at non-zero word
// offsets.
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
					continue // CountRangeU takes [lo, hi]; it never wraps
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
				var selN int64
				err = SelectRangeU(packed, start, count, w, lo, lo+span, func(pos int, mask uint64) {
					// A mask covers its position up to the next block boundary.
					if want := refMask(vals[pos:min((pos|63)+1, start+count)], lo, span); mask != want {
						t.Fatalf("w=%d [%d,+%d) [%#x,+%#x]: SelectRangeU at %d = %#x, want %#x", w, start, count, lo, span, pos, mask, want)
					}
					selN += int64(bits.OnesCount64(mask))
				})
				if err != nil || selN != wantN {
					t.Fatalf("w=%d [%d,+%d) [%#x,+%#x]: SelectRangeU found %d, %v, want %d", w, start, count, lo, span, selN, err, wantN)
				}
			}
		}
	}
}

// FuzzRangeKernels checks one width's per-block select and count
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

// checkEntryPoints checks CountRange, SelectRange, Sum and SumRange —
// the U entry points, or the ZZ ones when zz — over positions
// [start, start+count) of vals packed at width w, against a plain loop
// over vals. The window is [lo, lo+span], cut at the top of its domain
// (unsigned, or signed when zz) when it would wrap.
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
	want := make([]bool, len(vals))
	var wantN int64
	var wantSum, wantRange uint64
	for i, v := range decoded(vals, zz)[start : start+count] {
		wantSum += v
		if inside(v) {
			want[start+i] = true
			wantN++
			wantRange += v
		}
	}
	got := make([]bool, len(vals))
	emit := func(pos int, m uint64) {
		for ; m != 0; m &= m - 1 {
			got[pos+bits.TrailingZeros64(m)] = true
		}
	}
	var errs [4]error
	var n, rangeN int64
	var sum, rangeSum uint64
	if zz {
		var s, rs int64
		n, errs[0] = CountRangeZZ(packed, start, count, w, int64(lo), int64(hi))
		errs[1] = SelectRangeZZ(packed, start, count, w, int64(lo), int64(hi), emit)
		s, errs[2] = SumZZ(packed, start, count, w)
		rs, rangeN, errs[3] = SumRangeZZ(packed, start, count, w, int64(lo), int64(hi))
		sum, rangeSum = uint64(s), uint64(rs)
	} else {
		n, errs[0] = CountRangeU(packed, start, count, w, lo, hi)
		errs[1] = SelectRangeU(packed, start, count, w, lo, hi, emit)
		sum, errs[2] = SumU(packed, start, count, w)
		rangeSum, rangeN, errs[3] = SumRangeU(packed, start, count, w, lo, hi)
	}
	if err := errors.Join(errs[:]...); err != nil {
		t.Fatalf("w=%d zz=%v [%d,+%d): %v", w, zz, start, count, err)
	}
	if n != wantN || !slices.Equal(got, want) || sum != wantSum || rangeSum != wantRange || rangeN != wantN {
		t.Fatalf("w=%d zz=%v [%d,+%d) [%#x, %#x]: count %d, sum %d, range sum %d over %d, select %v; want %d, %d, %d, %v",
			w, zz, start, count, lo, hi, n, sum, rangeSum, rangeN, got, wantN, wantSum, wantRange, want)
	}
}

// BenchmarkRangeKernels measures the per-block select and count at
// widths 1..64, plain and zigzag (the ZZ rows), over 256 random blocks
// in ns per value: the matrix that places the lane-parallel cut
// (swarMaxWidth in gen/main.go) and prices the unpack-then-compare
// loops. A plain window is a quarter of the domain from Mask(w)/4, a
// zigzag one a quarter centred on 0.
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
		for _, zz := range []bool{false, true} {
			lo, span, row := Mask(w)/4, Mask(w)/4, ""
			if zz {
				lo, row = -(Mask(w) / 8), "ZZ"
			}
			b.Run(fmt.Sprintf("w=%d/select%s", w, row), func(b *testing.B) {
				var sink uint64
				for i := 0; i < b.N; i++ {
					for k := 0; k < blocks; k++ {
						sink ^= selectInRangeBlock(packed[k*int(w):(k+1)*int(w)], lo, span, zz)
					}
				}
				perValue(b)
				benchSink = sink
			})
			b.Run(fmt.Sprintf("w=%d/count%s", w, row), func(b *testing.B) {
				n := 0
				for i := 0; i < b.N; i++ {
					for k := 0; k < blocks; k++ {
						n += countInRangeBlock(packed[k*int(w):(k+1)*int(w)], lo, span, zz)
					}
				}
				perValue(b)
				benchSink = uint64(n)
			})
		}
	}
}

// benchSink keeps the benchmarked kernels' results alive.
var benchSink uint64
