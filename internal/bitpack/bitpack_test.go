package bitpack

import (
	"errors"
	"fmt"
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

// checkPackSigned packs a signed column through SignedShape and
// PackSigned and requires what Pack makes of the column mapped into
// null suppression's domain — zigzagged when a value is negative — at
// the widest mapped value's width, word for word.
func checkPackSigned(t *testing.T, what string, src []int64) {
	t.Helper()
	u := make([]uint64, len(src))
	zigzag := false
	for _, v := range src {
		zigzag = zigzag || v < 0
	}
	for i, v := range src {
		u[i] = uint64(v)
		if zigzag {
			u[i] = Zigzag(v)
		}
	}
	w := MaxWidth(u)
	want, err := Pack(u, w)
	if err != nil {
		t.Fatalf("%s: Pack: %v", what, err)
	}
	gotW, gotZ := SignedShape(src)
	if gotW != w || gotZ != zigzag {
		t.Fatalf("%s: SignedShape = %d, %v; want %d, %v", what, gotW, gotZ, w, zigzag)
	}
	stage := make([]uint64, BlockLen)
	for i := range stage {
		stage[i] = ^uint64(0) // a stage's old contents must not leak
	}
	got := make([]uint64, PackedWords(len(src), w))
	PackSigned(got, src, w, zigzag, stage)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: word %d = %#x, Pack %#x", what, i, got[i], want[i])
		}
	}
}

// TestPackUnpackAllWidths round-trips every width at lengths that
// exercise full blocks, tails, and the empty column, and packs the
// signed columns of each width — without negatives (raw) and with
// (zigzagged) — through PackSigned against Pack.
func TestPackUnpackAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for w := uint(0); w <= 64; w++ {
		for _, n := range []int{0, 1, 63, 64, 65, 128, 200, 4097} {
			if w < 64 {
				raw := make([]int64, n)
				for i, v := range randomValues(rng, n, w) {
					raw[i] = int64(v)
				}
				if n > 0 {
					raw[n-1] = int64(Mask(w)) // the width is exactly w
				}
				checkPackSigned(t, fmt.Sprintf("raw w=%d n=%d", w, n), raw)
			}
			if w > 0 {
				zz := make([]int64, n)
				for i, v := range randomValues(rng, n, w) {
					zz[i] = Unzigzag(v)
				}
				if n > 0 {
					zz[n-1] = Unzigzag(Mask(w)) // negative, zigzag width exactly w
				}
				checkPackSigned(t, fmt.Sprintf("zigzag w=%d n=%d", w, n), zz)
			}
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

// TestPackSignedExtremes packs columns holding MinInt64 — whose
// zigzag is all ones, width 64 — and MaxInt64, the widest raw value.
func TestPackSignedExtremes(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 4097} {
		lo := make([]int64, n)
		hi := make([]int64, n)
		for i := range lo {
			lo[i] = int64(i) - 3
			hi[i] = int64(i)
		}
		lo[n/2] = math.MinInt64
		hi[n-1] = math.MaxInt64
		checkPackSigned(t, fmt.Sprintf("MinInt64 n=%d", n), lo)
		checkPackSigned(t, fmt.Sprintf("MaxInt64 n=%d", n), hi)
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
		packFuncs[w](src, kernel)
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
