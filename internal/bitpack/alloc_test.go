package bitpack

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestEntryPointsAllocs pins every entry point that reads a packed
// payload to zero allocations, plain and zigzag, over aligned ranges and
// over ranges whose head and tail are padded copies of their blocks,
// the selects and keeps into selection words at an aligned and an
// unaligned bit offset, and the masked sum over a run of masks.
// The copies and the unpacked blocks live on the stack only while every
// call that takes them is static: one call through a table of kernels
// moves them to the heap, and this test fails.
func TestEntryPointsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation may allocate")
	}
	rng := rand.New(rand.NewSource(41))
	const n = 500
	for _, w := range []uint{0, 7, 16, 17, 33, 64} {
		packed, err := Pack(randomValues(rng, n, w), w)
		if err != nil {
			t.Fatal(err)
		}
		tab := make([]int64, 1<<min(w, 12))
		codes := randomValues(rng, n, min(w, 12))
		packedCodes, err := Pack(codes, w)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]int64, n)
		udst := make([]uint64, n)
		masks := make([]uint64, (n+BlockLen-1)/BlockLen)
		for i := range masks {
			masks[i] = rng.Uint64()
		}
		bitsOut := make([]uint64, n/BlockLen+3)
		lo, hi := Mask(w)/4, Mask(w)/2
		for _, r := range [][2]int{{0, n}, {64, 384}, {5, 59}, {70, 430}} {
			start, count := r[0], r[1]
			for _, zz := range []bool{false, true} {
				calls := map[string]func() error{
					"BlockSums": func() error { return BlockSums(packed, n, w, zz, dst) },
					"PrefixRange": func() error {
						_, err := PrefixRange(packed, start&^63, count, w, zz, 3, -5, 1000, masks)
						return err
					},
					"PrefixMaskedSum": func() error {
						_, _, err := PrefixMaskedSum(packed, start+count, w, zz, 3, masks)
						return err
					},
				}
				if zz {
					calls["CountRangeZZ"] = func() error {
						_, err := CountRangeZZ(packed, start, count, w, -int64(lo), int64(lo))
						return err
					}
					for _, off := range []int{0, 5} {
						calls[fmt.Sprint("SelectRangeZZ@", off)] = func() error {
							return SelectRangeZZ(packed, start, count, w, -int64(lo), int64(lo), bitsOut, off)
						}
						calls[fmt.Sprint("KeepRangeZZ@", off)] = func() error {
							return KeepRangeZZ(packed, start, count, w, -int64(lo), int64(lo), bitsOut, off)
						}
					}
					calls["SumZZ"] = func() error { _, err := SumZZ(packed, start, count, w); return err }
					calls["SumRangeZZ"] = func() error {
						_, _, err := SumRangeZZ(packed, start, count, w, -int64(lo), int64(lo))
						return err
					}
				} else {
					calls["CountRangeU"] = func() error { _, err := CountRangeU(packed, start, count, w, lo, hi); return err }
					for _, off := range []int{0, 5} {
						calls[fmt.Sprint("SelectRangeU@", off)] = func() error { return SelectRangeU(packed, start, count, w, lo, hi, bitsOut, off) }
						calls[fmt.Sprint("KeepRangeU@", off)] = func() error { return KeepRangeU(packed, start, count, w, lo, hi, bitsOut, off) }
					}
					calls["SumU"] = func() error { _, err := SumU(packed, start, count, w); return err }
					calls["SumRangeU"] = func() error { _, _, err := SumRangeU(packed, start, count, w, lo, hi); return err }
					calls["GatherU"] = func() error { return GatherU(packedCodes, start, count, w, tab, dst) }
					calls["UnpackInto"] = func() error { return UnpackInto(udst[:start+count], packed, w) }
					if w <= MaxMaskedWidth {
						calls["SumMaskedU"] = func() error {
							_, err := SumMaskedU(packed, start&^63, w, masks[start/BlockLen:(start+count)/BlockLen])
							return err
						}
					}
				}
				for name, call := range calls {
					if err := call(); err != nil {
						t.Fatalf("w=%d zz=%v [%d,+%d): %s: %v", w, zz, start, count, name, err)
					}
					if a := testing.AllocsPerRun(10, func() { _ = call() }); a != 0 {
						t.Errorf("w=%d zz=%v [%d,+%d): %s allocates %v times a call", w, zz, start, count, name, a)
					}
				}
			}
		}
	}
}
