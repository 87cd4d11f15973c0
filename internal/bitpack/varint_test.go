package bitpack

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVarintRoundTrip(t *testing.T) {
	src := []int64{0, 1, -1, 127, -128, math.MaxInt64, math.MinInt64}
	data := VarintEncode(src)
	got := make([]int64, len(src))
	if err := VarintDecode(got, data); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("element %d: %d != %d", i, got[i], src[i])
		}
	}
}

func TestVarintRoundTripProperty(t *testing.T) {
	check := func(src []int64) bool {
		data := VarintEncode(src)
		got := make([]int64, len(src))
		if err := VarintDecode(got, data); err != nil {
			return false
		}
		for i := range src {
			if got[i] != src[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVarintTruncated(t *testing.T) {
	data := VarintEncode([]int64{1, 2, 3})
	if err := VarintDecode(make([]int64, 3), data[:len(data)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated err = %v", err)
	}
	if err := VarintDecode(make([]int64, 1), nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty err = %v", err)
	}
}

func TestVarintUnsigned(t *testing.T) {
	src := []int64{0, 1, 300, math.MaxInt64}
	data, err := VarintEncodeUnsigned(src)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got := make([]int64, len(src))
	if err := VarintDecodeUnsigned(got, data); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("element %d differs", i)
		}
	}
	if _, err := VarintEncodeUnsigned([]int64{-1}); err == nil {
		t.Fatal("negative accepted by unsigned encoder")
	}
}

func TestVarintUnsignedSmallerForNonNegative(t *testing.T) {
	// Unsigned encoding of small non-negative values must never be
	// larger than the zigzag encoding.
	rng := rand.New(rand.NewSource(3))
	src := make([]int64, 500)
	for i := range src {
		src[i] = rng.Int63n(1 << 20)
	}
	unsigned, err := VarintEncodeUnsigned(src)
	if err != nil {
		t.Fatal(err)
	}
	zigzag := VarintEncode(src)
	if len(unsigned) > len(zigzag) {
		t.Fatalf("unsigned %d bytes > zigzag %d bytes", len(unsigned), len(zigzag))
	}
}
