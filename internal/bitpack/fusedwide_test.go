package bitpack

import (
	"errors"
	"math/rand"
	"testing"
)

// zz decodes one zigzag word for the reference paths.
func zz(x uint64) int64 { return int64(x>>1) ^ -int64(x&1) }

// TestWideKernelsAgainstUnpack cross-checks SumU, SumZZ, SumRangeU,
// SumRangeZZ, CountRangeZZ and SelectRangeZZ against unpack-then-operate
// at every width, over aligned and unaligned ranges and boundary-heavy
// signed windows.
func TestWideKernelsAgainstUnpack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for w := uint(0); w <= 64; w++ {
		n := 500
		vals := randomValues(rng, n, w)
		packed, err := Pack(vals, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range fusedRanges {
			start, count := r[0], r[1]

			// Plain and zigzag sums against the reference fold.
			var wantU uint64
			var wantZ int64
			for _, v := range vals[start : start+count] {
				wantU += v
				wantZ += zz(v)
			}
			gotU, err := SumU(packed, start, count, w)
			if err != nil {
				t.Fatalf("w=%d [%d,+%d): SumU: %v", w, start, count, err)
			}
			if gotU != wantU {
				t.Fatalf("w=%d [%d,+%d): SumU = %d, want %d", w, start, count, gotU, wantU)
			}
			gotZ, err := SumZZ(packed, start, count, w)
			if err != nil {
				t.Fatalf("w=%d [%d,+%d): SumZZ: %v", w, start, count, err)
			}
			if gotZ != wantZ {
				t.Fatalf("w=%d [%d,+%d): SumZZ = %d, want %d", w, start, count, gotZ, wantZ)
			}

			// Unsigned filter+sum.
			var lo, hi uint64
			if w > 0 {
				lo = vals[start%n] / 2
				hi = lo + Mask(w)/3 + 1
			}
			for _, bounds := range [][2]uint64{{lo, hi}, {0, Mask(w)}, {1, 0}, {Mask(w), Mask(w)}} {
				lo, hi := bounds[0], bounds[1]
				var wantSum uint64
				var wantN int64
				if hi >= lo {
					for _, v := range vals[start : start+count] {
						if v >= lo && v <= hi {
							wantSum += v
							wantN++
						}
					}
				}
				s, c, err := SumRangeU(packed, start, count, w, lo, hi)
				if err != nil {
					t.Fatalf("w=%d: SumRangeU: %v", w, err)
				}
				if s != wantSum || c != wantN {
					t.Fatalf("w=%d [%d,+%d) [%d,%d]: SumRangeU = (%d, %d), want (%d, %d)",
						w, start, count, lo, hi, s, c, wantSum, wantN)
				}
			}

			// Signed windows over the zigzag view, including extremes.
			sLo, sHi := zz(vals[start%n])-3, zz(vals[start%n])+3
			windows := [][2]int64{
				{sLo, sHi}, {0, 0}, {-1 << 62, 1 << 62}, {1, -1},
				{-(1 << 63), 1<<63 - 1},
			}
			for _, win := range windows {
				lo, hi := win[0], win[1]
				var wantN, wantSum int64
				if hi >= lo {
					for _, v := range vals[start : start+count] {
						d := zz(v)
						if d >= lo && d <= hi {
							wantN++
							wantSum += d
						}
					}
				}
				gotN, err := CountRangeZZ(packed, start, count, w, lo, hi)
				if err != nil {
					t.Fatalf("w=%d: CountRangeZZ: %v", w, err)
				}
				if gotN != wantN {
					t.Fatalf("w=%d [%d,+%d) signed [%d,%d]: CountRangeZZ = %d, want %d",
						w, start, count, lo, hi, gotN, wantN)
				}
				gotSum, gotC, err := SumRangeZZ(packed, start, count, w, lo, hi)
				if err != nil {
					t.Fatalf("w=%d: SumRangeZZ: %v", w, err)
				}
				if gotSum != wantSum || gotC != wantN {
					t.Fatalf("w=%d [%d,+%d) signed [%d,%d]: SumRangeZZ = (%d, %d), want (%d, %d)",
						w, start, count, lo, hi, gotSum, gotC, wantSum, wantN)
				}
				sel := make([]uint64, n/64+1)
				if err := SelectRangeZZ(packed, start, count, w, lo, hi, sel, start); err != nil {
					t.Fatal(err)
				}
				var selN int64
				for i := range n {
					if sel[i/64]>>(i%64)&1 == 0 {
						continue
					}
					selN++
					if d := zz(vals[i]); d < lo || d > hi || i < start || i >= start+count {
						t.Fatalf("w=%d: SelectRangeZZ matched %d at %d outside [%d,%d]", w, d, i, lo, hi)
					}
				}
				if selN != wantN {
					t.Fatalf("w=%d signed [%d,%d]: select found %d, want %d", w, lo, hi, selN, wantN)
				}
			}
		}
	}
}

// TestGatherAgainstUnpack cross-checks GatherU against
// unpack-then-index at every width, and its rejection of out-of-table
// codes. Above 12 bits the table holds 4096 entries and the codes are
// spread over the width: the ones below 4096 index it, and each block
// keeps one code at the width's top bit, out of the table, outside the
// range gathered, which must not fail the gather.
func TestGatherAgainstUnpack(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for w := uint(0); w <= 64; w++ {
		n := 500
		tabLen := min(1<<min(w, 12), 4096)
		tab := make([]int64, tabLen)
		for i := range tab {
			tab[i] = rng.Int63() - rng.Int63()
		}
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(rng.Intn(tabLen))
			if w > 12 && i%64 == 40 {
				vals[i] = 1 << (w - 1)
			}
		}
		packed, err := Pack(vals, w)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]int64, n)
		for _, r := range [][2]int{{0, 40}, {41, 63}, {104, 0}, {5, 35}, {169, 7}, {489, 11}, {497, 3}} {
			start, count := r[0], r[1]
			for i := range dst {
				dst[i] = -999
			}
			if err := GatherU(packed, start, count, w, tab, dst); err != nil {
				t.Fatalf("w=%d [%d,+%d): GatherU: %v", w, start, count, err)
			}
			for j := 0; j < count; j++ {
				if want := tab[vals[start+j]]; dst[j] != want {
					t.Fatalf("w=%d [%d,+%d): dst[%d] = %d, want %d", w, start, count, j, dst[j], want)
				}
			}
			for j := count; j < n; j++ {
				if dst[j] != -999 {
					t.Fatalf("w=%d [%d,+%d): dst[%d] = %d, written past the count", w, start, count, j, dst[j])
				}
			}
		}
		if w > 12 {
			if err := GatherU(packed, 0, n, w, tab, dst); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("w=%d: a code of %d bits through a table of %d: %v, want ErrCorrupt", w, w, tabLen, err)
			}
			vals = vals[:0]
			for i := 0; i < n; i++ {
				vals = append(vals, uint64(rng.Intn(tabLen)))
			}
			if packed, err = Pack(vals, w); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range fusedRanges {
			start, count := r[0], r[1]
			if err := GatherU(packed, start, count, w, tab, dst); err != nil {
				t.Fatalf("w=%d [%d,+%d): GatherU: %v", w, start, count, err)
			}
			for j := 0; j < count; j++ {
				if want := tab[vals[start+j]]; dst[j] != want {
					t.Fatalf("w=%d [%d,+%d): dst[%d] = %d, want %d", w, start, count, j, dst[j], want)
				}
			}
		}
		// A truncated table turns some code out-of-range.
		if w > 0 {
			var mx uint64
			for _, v := range vals {
				if v > mx {
					mx = v
				}
			}
			if mx > 0 {
				if err := GatherU(packed, 0, n, w, tab[:mx], dst); err == nil {
					t.Fatalf("w=%d: out-of-table code must error", w)
				}
			}
		}
	}
	if err := GatherU(nil, 0, 1, 65, nil, make([]int64, 1)); !errors.Is(err, ErrWidth) {
		t.Fatalf("gather width 65: %v, want ErrWidth", err)
	}
	if err := GatherU(nil, 0, 64, 0, nil, make([]int64, 64)); err == nil {
		t.Fatal("width-0 gather through an empty table must error")
	}
	if err := GatherU([]uint64{0}, 0, 8, 8, make([]int64, 256), make([]int64, 4)); err == nil {
		t.Fatal("short dst must error")
	}
}
