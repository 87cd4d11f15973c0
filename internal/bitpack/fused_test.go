package bitpack

import (
	"math/rand"
	"testing"
)

// refCount is the reference predicate evaluation on unpacked values.
func refCount(vals []uint64, start, count int, lo, hi uint64) int64 {
	var n int64
	for _, v := range vals[start : start+count] {
		if v >= lo && v <= hi {
			n++
		}
	}
	return n
}

// fusedRanges are the [start, +count) ranges of a 500-value payload the
// entry points are checked over: whole, whole blocks, unaligned heads
// and tails, a head and a tail alone, a range inside one block, ranges
// ending inside the payload's short last block, and an empty one.
var fusedRanges = [][2]int{{0, 500}, {0, 64}, {64, 128}, {17, 300}, {63, 66}, {499, 1}, {100, 0}, {5, 59}, {70, 430}}

// TestFusedRangeAgainstUnpack cross-checks CountRangeU and
// SelectRangeU against unpack-then-compare at every width, over
// aligned and unaligned ranges and boundary-heavy value ranges.
func TestFusedRangeAgainstUnpack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for w := uint(0); w <= 64; w++ {
		n := 500
		vals := randomValues(rng, n, w)
		packed, err := Pack(vals, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range fusedRanges {
			start, count := r[0], r[1]
			var lo, hi uint64
			if w > 0 {
				lo = vals[start%n] / 2
				hi = lo + Mask(w)/3 + 1
			}
			for _, bounds := range [][2]uint64{{lo, hi}, {0, Mask(w)}, {1, 0}, {Mask(w), Mask(w)}} {
				lo, hi := bounds[0], bounds[1]
				want := int64(0)
				if hi >= lo {
					want = refCount(vals, start, count, lo, hi)
				}
				got, err := CountRangeU(packed, start, count, w, lo, hi)
				if err != nil {
					t.Fatalf("w=%d [%d,+%d) [%d,%d]: %v", w, start, count, lo, hi, err)
				}
				if got != want {
					t.Fatalf("w=%d [%d,+%d) [%d,%d]: CountRangeU = %d, want %d", w, start, count, lo, hi, got, want)
				}
				// Select must agree bit-for-bit with the predicate.
				matched := make([]bool, n)
				lastPos := -1
				err = SelectRangeU(packed, start, count, w, lo, hi, func(pos int, mask uint64) {
					if pos <= lastPos {
						t.Fatalf("w=%d: emit positions not ascending: %d after %d", w, pos, lastPos)
					}
					lastPos = pos
					for b := 0; b < 64; b++ {
						if mask&(1<<b) != 0 {
							matched[pos+b] = true
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				var selCount int64
				for i, m := range matched {
					inRange := hi >= lo && i >= start && i < start+count && vals[i] >= lo && vals[i] <= hi
					if m != inRange {
						t.Fatalf("w=%d [%d,+%d) [%d,%d]: position %d matched=%v want %v",
							w, start, count, lo, hi, i, m, inRange)
					}
					if m {
						selCount++
					}
				}
				if selCount != got {
					t.Fatalf("w=%d: select found %d, count found %d", w, selCount, got)
				}
			}
		}
	}
}

// TestFusedRangeErrors covers argument validation.
func TestFusedRangeErrors(t *testing.T) {
	if _, err := CountRangeU(nil, 0, 1, 65, 0, 1); err == nil {
		t.Fatal("width 65 must error")
	}
	if _, err := CountRangeU(nil, -1, 1, 4, 0, 1); err == nil {
		t.Fatal("negative start must error")
	}
	if _, err := CountRangeU([]uint64{0}, 0, 100, 8, 0, 1); err == nil {
		t.Fatal("short payload must error")
	}
	if err := SelectRangeU([]uint64{0}, 0, 100, 8, 0, 1, func(int, uint64) {}); err == nil {
		t.Fatal("short payload must error")
	}
	// Empty and inverted ranges are fine and find nothing.
	if got, err := CountRangeU(nil, 0, 0, 8, 0, 1); err != nil || got != 0 {
		t.Fatalf("empty range: %d, %v", got, err)
	}
}

// BenchmarkFusedCount measures the fused count kernel against
// unpack-then-compare at representative widths.
func BenchmarkFusedCount(b *testing.B) {
	const n = 1 << 16
	for _, w := range []uint{8, 20} {
		rng := rand.New(rand.NewSource(3))
		vals := randomValues(rng, n, w)
		packed, _ := Pack(vals, w)
		lo, hi := Mask(w)/4, Mask(w)/2
		b.Run("fused-w"+string(rune('0'+w/10))+string(rune('0'+w%10)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CountRangeU(packed, 0, n, w, lo, hi); err != nil {
					b.Fatal(err)
				}
			}
		})
		dst := make([]uint64, n)
		b.Run("unpack-compare-w"+string(rune('0'+w/10))+string(rune('0'+w%10)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := UnpackInto(dst, packed, w); err != nil {
					b.Fatal(err)
				}
				var c int64
				for _, v := range dst {
					if v >= lo && v <= hi {
						c++
					}
				}
			}
		})
	}
}
