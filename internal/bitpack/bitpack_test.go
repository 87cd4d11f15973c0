package bitpack

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomValues returns n values uniformly drawn from [0, 2^w).
func randomValues(rng *rand.Rand, n int, w uint) []uint64 {
	out := make([]uint64, n)
	mask := Mask(w)
	for i := range out {
		out[i] = (rng.Uint64()) & mask
	}
	return out
}

func TestWidth(t *testing.T) {
	cases := []struct {
		v uint64
		w uint
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9},
		{math.MaxUint64, 64},
	}
	for _, tc := range cases {
		if got := Width(tc.v); got != tc.w {
			t.Errorf("Width(%d) = %d, want %d", tc.v, got, tc.w)
		}
	}
}

func TestMask(t *testing.T) {
	if Mask(0) != 0 {
		t.Fatalf("Mask(0) = %x", Mask(0))
	}
	if Mask(1) != 1 {
		t.Fatalf("Mask(1) = %x", Mask(1))
	}
	if Mask(64) != ^uint64(0) {
		t.Fatalf("Mask(64) = %x", Mask(64))
	}
	if Mask(65) != ^uint64(0) {
		t.Fatalf("Mask(65) = %x", Mask(65))
	}
}

func TestPackedWords(t *testing.T) {
	if PackedWords(64, 7) != 7 {
		t.Fatalf("PackedWords(64,7) = %d", PackedWords(64, 7))
	}
	if PackedWords(65, 7) != 8 {
		t.Fatalf("PackedWords(65,7) = %d", PackedWords(65, 7))
	}
	if PackedWords(0, 7) != 0 || PackedWords(10, 0) != 0 {
		t.Fatal("degenerate PackedWords wrong")
	}
}

// TestPackUnpackAllWidths round-trips every width at lengths that
// exercise full blocks, tails, and the empty column.
func TestPackUnpackAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for w := uint(0); w <= 64; w++ {
		for _, n := range []int{0, 1, 63, 64, 65, 128, 200} {
			src := randomValues(rng, n, w)
			packed, err := Pack(src, w)
			if err != nil {
				t.Fatalf("w=%d n=%d: Pack: %v", w, n, err)
			}
			if len(packed) != PackedWords(n, w) {
				t.Fatalf("w=%d n=%d: packed %d words, want %d", w, n, len(packed), PackedWords(n, w))
			}
			got := make([]uint64, n)
			if err := UnpackInto(got, packed, w); err != nil {
				t.Fatalf("w=%d n=%d: UnpackInto: %v", w, n, err)
			}
			for i := range src {
				if got[i] != src[i] {
					t.Fatalf("w=%d n=%d: element %d = %d, want %d", w, n, i, got[i], src[i])
				}
			}
		}
	}
}

// TestPackBoundaryValues packs the extreme representable values at
// every width.
func TestPackBoundaryValues(t *testing.T) {
	for w := uint(1); w <= 64; w++ {
		src := make([]uint64, 70)
		for i := range src {
			if i%2 == 0 {
				src[i] = Mask(w)
			}
		}
		packed, err := Pack(src, w)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		got := make([]uint64, len(src))
		if err := UnpackInto(got, packed, w); err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		for i := range src {
			if got[i] != src[i] {
				t.Fatalf("w=%d element %d: %d != %d", w, i, got[i], src[i])
			}
		}
	}
}

func TestPackOverflowRejected(t *testing.T) {
	if _, err := Pack([]uint64{4}, 2); !errors.Is(err, ErrOverflow) {
		t.Fatalf("overflow err = %v", err)
	}
	if _, err := Pack([]uint64{1}, 0); !errors.Is(err, ErrOverflow) {
		t.Fatalf("width-0 overflow err = %v", err)
	}
	if _, err := Pack(nil, 65); !errors.Is(err, ErrWidth) {
		t.Fatalf("width err = %v", err)
	}
}

func TestUnpackCorruptRejected(t *testing.T) {
	if err := UnpackInto(make([]uint64, 64), []uint64{}, 3); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short payload err = %v", err)
	}
	if err := UnpackInto(make([]uint64, 10), nil, 65); !errors.Is(err, ErrWidth) {
		t.Fatalf("width err = %v", err)
	}
	// Width 0 needs no payload, and overwrites what the destination held.
	got := []uint64{1, 2, 3, 4, 5}
	if err := UnpackInto(got, nil, 0); err != nil {
		t.Fatalf("width-0 unpack: %v", err)
	}
	for _, v := range got {
		if v != 0 {
			t.Fatal("width-0 unpack non-zero")
		}
	}
}

// TestGenericMatchesKernels verifies the generated unrolled kernels
// against the generic bit-granular path on identical data.
func TestGenericMatchesKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for w := uint(1); w <= 64; w++ {
		src := randomValues(rng, BlockLen, w)
		// Kernel path.
		kernel := make([]uint64, int(w))
		packBlock(src, w, kernel)
		// Generic path.
		generic := make([]uint64, PackedWords(BlockLen, w))
		packGeneric(src, w, generic, 0)
		for i := range kernel {
			if kernel[i] != generic[i] {
				t.Fatalf("w=%d: packed word %d differs: kernel %x generic %x", w, i, kernel[i], generic[i])
			}
		}
		var kOut [BlockLen]uint64
		unpack64(kernel, &kOut)
		gOut := make([]uint64, BlockLen)
		unpackGeneric(gOut, generic, w, 0)
		for i := range kOut {
			if kOut[i] != gOut[i] || kOut[i] != src[i] {
				t.Fatalf("w=%d: element %d: kernel %d generic %d src %d", w, i, kOut[i], gOut[i], src[i])
			}
		}
	}
}

func TestZigzag(t *testing.T) {
	cases := []struct {
		v int64
		u uint64
	}{
		{0, 0}, {-1, 1}, {1, 2}, {-2, 3}, {2, 4},
		{math.MaxInt64, math.MaxUint64 - 1}, {math.MinInt64, math.MaxUint64},
	}
	for _, tc := range cases {
		if got := Zigzag(tc.v); got != tc.u {
			t.Errorf("Zigzag(%d) = %d, want %d", tc.v, got, tc.u)
		}
		if got := Unzigzag(tc.u); got != tc.v {
			t.Errorf("Unzigzag(%d) = %d, want %d", tc.u, got, tc.v)
		}
	}
}

func TestZigzagRoundTripProperty(t *testing.T) {
	check := func(v int64) bool { return Unzigzag(Zigzag(v)) == v }
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	checkSlice := func(src []int64) bool {
		zz := make([]uint64, len(src))
		for i, v := range src {
			zz[i] = Zigzag(v)
		}
		back := make([]int64, len(src))
		UnzigzagInto(back, zz)
		for i := range src {
			if back[i] != src[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(checkSlice, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSignedUnsignedSlices(t *testing.T) {
	src := []int64{-1, 0, 5}
	u := []uint64{math.MaxUint64, 0, 5}
	back := make([]int64, len(u))
	SignedInto(back, u)
	for i := range src {
		if back[i] != src[i] {
			t.Fatalf("SignedInto(%d) = %d, want %d", u[i], back[i], src[i])
		}
	}
}
