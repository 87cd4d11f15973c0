package bitpack

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
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

// checkRangeKernels runs selectInRangeFuncs[w] and countInRangeFuncs[w]
// on one packed 64-value block and compares them with the reference
// predicate on vals and with scalarRangeMask.
func checkRangeKernels(t *testing.T, w uint, vals []uint64, lo, span uint64) {
	t.Helper()
	packed, err := Pack(vals, w)
	if err != nil {
		t.Fatal(err)
	}
	want := refMask(vals, lo, span)
	if got := scalarRangeMask(packed, 0, BlockLen, w, lo, span); got != want {
		t.Fatalf("w=%d lo=%#x span=%#x: scalarRangeMask = %#x, want %#x", w, lo, span, got, want)
	}
	if got := selectInRangeFuncs[w](packed, lo, span); got != want {
		t.Fatalf("w=%d lo=%#x span=%#x: select = %#x, want %#x (vals %v)", w, lo, span, got, want, vals)
	}
	if got, want := countInRangeFuncs[w](packed, lo, span), bits.OnesCount64(want); got != want {
		t.Fatalf("w=%d lo=%#x span=%#x: count = %d, want %d (vals %v)", w, lo, span, got, want, vals)
	}
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

// TestRangeKernelsEveryWidth checks the select and count kernels of
// every width 0..64 — the lane-parallel ones and the per-value ones —
// bit for bit against the reference predicate, on random, all-zero
// and all-max blocks, then drives them through SelectRangeU and
// CountRangeU on blocks at non-zero word offsets.
func TestRangeKernelsEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for w := uint(0); w <= 64; w++ {
		blocks := [][]uint64{make([]uint64, BlockLen), make([]uint64, BlockLen)}
		for i := range blocks[1] {
			blocks[1][i] = Mask(w)
		}
		for i := 0; i < 4; i++ {
			blocks = append(blocks, randomValues(rng, BlockLen, w))
		}
		// Few distinct values, so that narrow windows match some.
		few := randomValues(rng, BlockLen, w)
		for i := range few {
			few[i] = few[i%3]
		}
		blocks = append(blocks, few)
		for _, vals := range blocks {
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

// FuzzRangeKernels checks one width's select and count kernels
// against the reference predicate on a seeded block whose values mix
// random words with the window's edges.
func FuzzRangeKernels(f *testing.F) {
	f.Add(uint8(3), uint64(1), uint64(1), uint64(1))
	f.Add(uint8(16), uint64(1000), uint64(40000), uint64(2))
	f.Add(uint8(10), uint64(1<<9), uint64(0), uint64(3))
	f.Add(uint8(1), uint64(1), uint64(math.MaxUint64), uint64(4))
	f.Add(uint8(7), uint64(math.MaxUint64-3), uint64(70), uint64(5))
	f.Add(uint8(33), uint64(1)<<32, uint64(1)<<31, uint64(6))
	f.Fuzz(func(t *testing.T, w8 uint8, lo, span, seed uint64) {
		w := uint(w8) % 65
		rng := rand.New(rand.NewSource(int64(seed)))
		vals := randomValues(rng, BlockLen, w)
		edges := [...]uint64{lo, lo - 1, lo + span, lo + span + 1, 0, Mask(w), Mask(w) >> 1, Mask(w)>>1 + 1}
		for i := range vals {
			if rng.Intn(2) == 0 {
				vals[i] = edges[rng.Intn(len(edges))] & Mask(w)
			}
		}
		checkRangeKernels(t, w, vals, lo, span)
	})
}

// BenchmarkRangeKernels measures the select and count kernels at
// widths 1..24 over 256 random blocks, in ns per value: the matrix
// that places the lane-parallel cut (swarMaxWidth in gen/main.go).
func BenchmarkRangeKernels(b *testing.B) {
	const blocks = 256
	for w := uint(1); w <= 24; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		packed, err := Pack(randomValues(rng, blocks*BlockLen, w), w)
		if err != nil {
			b.Fatal(err)
		}
		lo, span := Mask(w)/4, Mask(w)/4
		perValue := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks*BlockLen), "ns/value")
		}
		b.Run(fmt.Sprintf("w=%d/select", w), func(b *testing.B) {
			kernel := selectInRangeFuncs[w]
			var sink uint64
			for i := 0; i < b.N; i++ {
				for k := 0; k < blocks; k++ {
					sink ^= kernel(packed[k*int(w):(k+1)*int(w)], lo, span)
				}
			}
			perValue(b)
			benchSink = sink
		})
		b.Run(fmt.Sprintf("w=%d/count", w), func(b *testing.B) {
			kernel := countInRangeFuncs[w]
			n := 0
			for i := 0; i < b.N; i++ {
				for k := 0; k < blocks; k++ {
					n += kernel(packed[k*int(w):(k+1)*int(w)], lo, span)
				}
			}
			perValue(b)
			benchSink = uint64(n)
		})
	}
}

// benchSink keeps the benchmarked kernels' results alive.
var benchSink uint64
