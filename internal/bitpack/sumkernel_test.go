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

// refSum is the reference masked sum: the wrapping sum of vals[i] for
// every set bit i of m.
func refSum(vals []uint64, m uint64) uint64 {
	var s uint64
	for i, v := range vals {
		if m&(1<<uint(i)) != 0 {
			s += v
		}
	}
	return s
}

// checkSumInRange runs sumRangeRun on one packed 64-value block and
// compares it with the reference sum and count of the values inside
// the window, plain and zigzag-decoded.
func checkSumInRange(t *testing.T, w uint, packed, vals []uint64, lo, span uint64) {
	t.Helper()
	for _, zz := range []bool{false, true} {
		d := decoded(vals, zz)
		m := refMask(d, lo, span)
		want, wantN := refSum(d, m), bits.OnesCount64(m)
		if s, n := sumRangeRun(packed, 1, w, lo, span, zz); s != want || n != wantN {
			t.Fatalf("w=%d zz=%v lo=%#x span=%#x: sumInRange = (%d, %d), want (%d, %d) (vals %v)", w, zz, lo, span, s, n, want, wantN, vals)
		}
	}
}

// checkSumMasked runs sumMaskedRun on one packed 64-value block and
// compares it with the reference masked sum.
func checkSumMasked(t *testing.T, w uint, packed, vals []uint64, m uint64) {
	t.Helper()
	if got, want := sumMaskedRun(packed, w, []uint64{m}), refSum(vals, m); got != want {
		t.Fatalf("w=%d m=%#x: sumMasked = %d, want %d (vals %v)", w, m, got, want, vals)
	}
}

// randomMask returns a mask whose bits are each set with probability p.
func randomMask(rng *rand.Rand, p float64) uint64 {
	var m uint64
	for i := 0; i < BlockLen; i++ {
		if rng.Float64() < p {
			m |= 1 << uint(i)
		}
	}
	return m
}

// sumMasks returns the masks every masked-sum width is checked with:
// none, all, the first and the last bit alone, alternating bits, and
// random masks at 1 %, 50 % and 99 % density.
func sumMasks(rng *rand.Rand) []uint64 {
	return []uint64{
		0, math.MaxUint64, 1, 1 << 63, 0x5555555555555555, 0xaaaaaaaaaaaaaaaa,
		randomMask(rng, 0.01), randomMask(rng, 0.5), randomMask(rng, 0.99),
	}
}

// TestSumKernelsEveryWidth checks the sums of one block at every width
// 0..64 — over a range, plain and zigzag, and of all 64 values, plain
// and zigzag: the lane kernels up to MaxMaskedWidth and the
// unpack-then-add loops beside and above them — and the masked sums of
// every width 1..MaxMaskedWidth against the reference sums on the
// kernelBlocks of each width. It then drives them through SumRangeU,
// with unaligned heads and tails, and through SumMaskedU over a run of
// masks from non-zero word offsets.
func TestSumKernelsEveryWidth(t *testing.T) {
	// A window that wraps over 0 holds every width-0 value.
	if s, n := sumRangeRun(nil, 1, 0, 5, math.MaxUint64-4, false); s != 0 || n != BlockLen {
		t.Fatalf("width 0, window [5, 2^64+0]: sumInRange = (%d, %d), want (0, 64)", s, n)
	}
	rng := rand.New(rand.NewSource(32))
	for w := uint(0); w <= 64; w++ {
		for _, vals := range kernelBlocks(rng, w) {
			packed, err := Pack(vals, w)
			if err != nil {
				t.Fatal(err)
			}
			for _, bd := range rangeBounds(rng, w, vals[rng.Intn(BlockLen)]) {
				checkSumInRange(t, w, packed, vals, bd[0], bd[1])
			}
			if w >= 1 && w <= MaxMaskedWidth {
				for _, m := range sumMasks(rng) {
					checkSumMasked(t, w, packed, vals, m)
				}
			}
			for _, zz := range []bool{false, true} {
				if got, want := sumRun(packed, 1, w, zz), refSum(decoded(vals, zz), math.MaxUint64); got != want {
					t.Fatalf("w=%d zz=%v: sum = %d, want %d (vals %v)", w, zz, int64(got), int64(want), vals)
				}
			}
			checkPrefixKernels(t, w, packed, vals, rng)
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
					continue // SumRangeU takes [lo, hi]; it never wraps
				}
				var want uint64
				var wantN int64
				for _, v := range vals[start : start+count] {
					if v-lo <= span {
						want += v
						wantN++
					}
				}
				s, c, err := SumRangeU(packed, start, count, w, lo, lo+span)
				if err != nil || s != want || c != wantN {
					t.Fatalf("w=%d [%d,+%d) [%#x,+%#x]: SumRangeU = (%d, %d), %v, want (%d, %d)", w, start, count, lo, span, s, c, err, want, wantN)
				}
			}
		}
		if w > MaxMaskedWidth {
			if _, err := SumMaskedU(packed, 0, w, []uint64{1}); !errors.Is(err, ErrWidth) {
				t.Fatalf("w=%d: SumMaskedU = %v, want ErrWidth", w, err)
			}
			continue
		}
		for _, start := range []int{64, 128, 192} {
			masks := sumMasks(rng)[:(n-start)/BlockLen]
			var want uint64
			for i, m := range masks {
				want += refSum(vals[start+i*BlockLen:start+(i+1)*BlockLen], m)
			}
			if got, err := SumMaskedU(packed, start, w, masks); err != nil || got != want {
				t.Fatalf("w=%d blocks from %d masks %#x: SumMaskedU = %d, %v, want %d", w, start, masks, got, err, want)
			}
		}
		// Only whole blocks whose words the payload holds are summed; at
		// width 0 a block has no words.
		bad := []int{17, -BlockLen}
		if w > 0 {
			bad = append(bad, 5*BlockLen)
		}
		for _, start := range bad {
			if _, err := SumMaskedU(packed, start, w, []uint64{1}); err == nil {
				t.Fatalf("w=%d: SumMaskedU at %d of %d values: no error", w, start, n)
			}
		}
	}
}

// FuzzSumKernels checks one width's sum of one block over a range, and up
// to MaxMaskedWidth its masked sum, against the reference sums on a
// seeded block whose values mix random words with the window's edges,
// then the range scans and sums over [start, start+count) of a payload
// of such values whose edges are padded blocks (checkEntryPoints).
func FuzzSumKernels(f *testing.F) {
	f.Add(uint8(3), uint64(1), uint64(1), uint64(0x5555555555555555), uint64(1), uint16(0), uint16(400), false)
	f.Add(uint8(16), uint64(1000), uint64(40000), uint64(math.MaxUint64), uint64(2), uint16(5), uint16(54), true)
	f.Add(uint8(10), uint64(1<<9), uint64(0), uint64(1<<63), uint64(3), uint16(70), uint16(287), false)
	f.Add(uint8(9), uint64(5), uint64(math.MaxUint64-4), uint64(0xf0f0f0f0f0f0f0f0), uint64(4), uint16(63), uint16(2), true)
	f.Add(uint8(7), uint64(math.MaxUint64-3), uint64(70), uint64(1), uint64(5), uint16(129), uint16(300), true)
	f.Add(uint8(0), uint64(5), uint64(math.MaxUint64-4), uint64(0), uint64(6), uint16(1), uint16(356), false)
	f.Add(uint8(33), uint64(1)<<32, uint64(1)<<31, uint64(0), uint64(7), uint16(17), uint16(250), true)
	f.Fuzz(func(t *testing.T, w8 uint8, lo, span, mask, seed uint64, start, count uint16, zz bool) {
		w := uint(w8) % 65
		rng := rand.New(rand.NewSource(int64(seed)))
		vals := edgeValues(rng, BlockLen, w, lo, span)
		packed, err := Pack(vals, w)
		if err != nil {
			t.Fatal(err)
		}
		checkSumInRange(t, w, packed, vals, lo, span)
		if w >= 1 && w <= MaxMaskedWidth {
			checkSumMasked(t, w, packed, vals, mask)
		}
		vals = edgeValues(rng, 5*BlockLen+37, w, lo, span)
		s := int(start) % (len(vals) + 1)
		checkEntryPoints(t, w, vals, s, int(count)%(len(vals)-s+1), lo, span, zz)
	})
}

// BenchmarkSumKernels measures, at widths 1..64 over a run of 256
// random blocks in ns per value, the sum over a range (range, and
// rangeZZ over the zigzag-decoded values, with BenchmarkRangeKernels'
// windows), the zigzag sum of all values (sumZZ), and the sum under a
// random selection of 1 %, 50 % and 99 % of the rows, the way a
// selection sum over a plain packed leaf adds up its whole groups: up
// to MaxMaskedWidth one SumMaskedU call over the run's masks; wider, a
// group is passed over when empty, summed whole when full, has its
// selected values read one at a time when at most 16 are selected, and
// is otherwise unpacked and its selected values added. It is the
// matrix that places the masked kernels' cut.
func BenchmarkSumKernels(b *testing.B) {
	const blocks = 256
	perValue := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks*BlockLen), "ns/value")
	}
	for w := uint(1); w <= 64; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		packed, err := Pack(randomValues(rng, blocks*BlockLen, w), w)
		if err != nil {
			b.Fatal(err)
		}
		for _, zz := range []bool{false, true} {
			lo, span, row := Mask(w)/4, Mask(w)/4, ""
			if zz {
				lo, row = -(Mask(w) / 8), "ZZ"
			}
			b.Run(fmt.Sprintf("w=%d/range%s", w, row), func(b *testing.B) {
				var sink uint64
				for i := 0; i < b.N; i++ {
					s, n := sumRangeRun(packed, blocks, w, lo, span, zz)
					sink += s + uint64(n)
				}
				perValue(b)
				benchSink = sink
			})
		}
		b.Run(fmt.Sprintf("w=%d/sumZZ", w), func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += sumRun(packed, blocks, w, true)
			}
			perValue(b)
			benchSink = sink
		})
		for _, pct := range []int{1, 50, 99} {
			masks := make([]uint64, blocks)
			for k := range masks {
				masks[k] = randomMask(rng, float64(pct)/100)
			}
			b.Run(fmt.Sprintf("w=%d/sel%d", w, pct), func(b *testing.B) {
				var buf [BlockLen]uint64
				var sink uint64
				for i := 0; i < b.N; i++ {
					if w <= MaxMaskedWidth {
						s, _ := SumMaskedU(packed, 0, w, masks)
						sink += s
						continue
					}
					for k, m := range masks {
						blk := packed[k*int(w) : (k+1)*int(w)]
						switch {
						case m == 0:
						case m == math.MaxUint64:
							sink += sumRun(blk, 1, w, false)
						case bits.OnesCount64(m) <= 16:
							sink += sumSparse(blk, w, m)
						default:
							unpack64(blk, &buf)
							for ; m != 0; m &= m - 1 {
								sink += buf[bits.TrailingZeros64(m)]
							}
						}
					}
				}
				perValue(b)
				benchSink = sink
			})
		}
	}
}

// checkPrefixKernels checks the delta kernels of width w on one packed
// block against the running sums of its values — plain and zigzag,
// from a random start — PrefixRange's match masks and PrefixMaskedSum's
// masked sums.
func checkPrefixKernels(t *testing.T, w uint, packed, vals []uint64, rng *rand.Rand) {
	t.Helper()
	for _, zz := range []bool{false, true} {
		x0 := int64(rng.Uint64())
		run := make([]int64, BlockLen)
		x := x0
		for i, v := range vals {
			if zz {
				x += Unzigzag(v)
			} else {
				x += int64(v)
			}
			run[i] = x
		}
		lo := run[rng.Intn(BlockLen)]
		for _, r := range [][2]int64{{lo - 3, lo + 3}, {lo, lo}, {math.MinInt64, math.MaxInt64}, {lo, lo - 1}, {math.MinInt64, lo}} {
			var want uint64
			for i, v := range run {
				if v >= r[0] && v <= r[1] {
					want |= 1 << uint(i)
				}
			}
			if r[0] > r[1] {
				want = 0
			}
			var m [1]uint64
			last, err := PrefixRange(packed, 0, BlockLen, w, zz, x0, r[0], r[1], m[:])
			if r[0] <= r[1] && (err != nil || m[0] != want || last != x) {
				t.Fatalf("w=%d zz=%v [%d, %d]: PrefixRange = %#x, %d, %v; want %#x, %d", w, zz, r[0], r[1], m[0], last, err, want, x)
			}
			// The block twice, its second copy cut after 20 values.
			two := append(slices.Clone(packed[:w]), packed[:w]...)
			var ms [2]uint64
			last, err = PrefixRange(two, 0, BlockLen+20, w, zz, x0, r[0], r[1], ms[:])
			want2 := uint64(0)
			for i, v := range run[:20] {
				if v += x - x0; v >= r[0] && v <= r[1] {
					want2 |= 1 << uint(i)
				}
			}
			if r[0] <= r[1] && (err != nil || ms != [2]uint64{want, want2} || last != run[19]+x-x0) {
				t.Fatalf("w=%d zz=%v [%d, %d]: PrefixRange over 84 = %#x, %d, %v; want %#x, %d", w, zz, r[0], r[1], ms, last, err, [2]uint64{want, want2}, run[19]+x-x0)
			}
		}
		for _, m := range sumMasks(rng) {
			var want int64
			for i, v := range run {
				if m&(1<<uint(i)) != 0 {
					want += v
				}
			}
			masks := []uint64{m, m >> 3}
			for i, v := range run[:20] {
				if masks[1]&(1<<uint(i)) != 0 {
					want += v + x - x0
				}
			}
			two := append(slices.Clone(packed[:w]), packed[:w]...) // the block twice
			sum, last, err := PrefixMaskedSum(two, BlockLen+20, w, zz, x0, masks)
			if err != nil || sum != want || last != run[19]+x-x0 {
				t.Fatalf("w=%d zz=%v m=%#x: PrefixMaskedSum = %d, %d, %v; want %d, %d", w, zz, m, sum, last, err, want, run[19]+x-x0)
			}
		}
	}
}
