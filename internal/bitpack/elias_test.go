package bitpack

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitWriterReader(t *testing.T) {
	bw := NewBitWriter(0)
	bw.WriteBits(0b101, 3)
	bw.WriteBits(0xFFFF, 16)
	bw.WriteBits(1, 64)
	bw.WriteUnary(70) // spans the 63-bit chunking path
	if n := len(bw.Words()); n != (3+16+64+71+63)/64 {
		t.Fatalf("%d words for %d bits", n, 3+16+64+71)
	}
	br := NewBitReader(bw.Words())
	if v, err := br.ReadBits(3); err != nil || v != 0b101 {
		t.Fatalf("ReadBits(3) = %d, %v", v, err)
	}
	if v, err := br.ReadBits(16); err != nil || v != 0xFFFF {
		t.Fatalf("ReadBits(16) = %d, %v", v, err)
	}
	if v, err := br.ReadBits(64); err != nil || v != 1 {
		t.Fatalf("ReadBits(64) = %d, %v", v, err)
	}
	if q, err := br.ReadUnary(); err != nil || q != 70 {
		t.Fatalf("ReadUnary = %d, %v", q, err)
	}
	if _, err := br.ReadBits(64); err == nil {
		t.Fatal("read past end accepted")
	}
}

func TestEliasDeltaRoundTrip(t *testing.T) {
	src := []int64{0, 1, 2, 3, 100, 1 << 30, (1 << 62) - 1}
	words, err := EliasDeltaEncode(src)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got := make([]int64, len(src))
	if err := EliasDeltaDecode(got, words); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("element %d: %d != %d", i, got[i], src[i])
		}
	}
}

func TestEliasRoundTripProperty(t *testing.T) {
	check := func(raw []uint32) bool {
		src := make([]int64, len(raw))
		for i, r := range raw {
			src[i] = int64(r)
		}
		d, err := EliasDeltaEncode(src)
		if err != nil {
			return false
		}
		dd := make([]int64, len(src))
		if err := EliasDeltaDecode(dd, d); err != nil {
			return false
		}
		for i := range src {
			if dd[i] != src[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// eliasBits is the length in bits of the Elias delta code of each
// v+1, and of the gamma code when gamma is set: the reference the
// encoder's output is measured against.
func eliasBits(src []int64, gamma bool) uint64 {
	var total uint64
	for _, v := range src {
		nb := uint64(bits.Len64(uint64(v) + 1))
		if gamma {
			total += 2*nb - 1
		} else {
			total += 2*uint64(bits.Len64(nb)) - 1 + nb - 1
		}
	}
	return total
}

// TestEliasSizesMatchEncoding: the delta encoder spends exactly the
// code's bits, rounded up to whole words.
func TestEliasSizesMatchEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := make([]int64, 300)
	for i := range src {
		src[i] = rng.Int63n(1 << uint(rng.Intn(40)))
	}
	words, err := EliasDeltaEncode(src)
	if err != nil {
		t.Fatal(err)
	}
	if want := (eliasBits(src, false) + 63) / 64; uint64(len(words)) != want {
		t.Fatalf("delta: %d words, the code's length predicts %d", len(words), want)
	}
}

// TestEliasDeltaBeatsGammaOnLargeValues: on wide values the delta
// encoder's output is shorter than the gamma code of the same values.
func TestEliasDeltaBeatsGammaOnLargeValues(t *testing.T) {
	src := make([]int64, 200)
	for i := range src {
		src[i] = (1 << 40) + int64(i)
	}
	words, err := EliasDeltaEncode(src)
	if err != nil {
		t.Fatal(err)
	}
	if d, g := uint64(len(words))*64, eliasBits(src, true); d >= g {
		t.Fatalf("delta %d bits should beat gamma %d bits on wide values", d, g)
	}
}

func TestEliasDecodeCorrupt(t *testing.T) {
	if err := EliasDeltaDecode(make([]int64, 1), []uint64{0}); err == nil {
		t.Fatal("all-zero delta stream accepted")
	}
	if err := EliasDeltaDecode(make([]int64, 1), nil); err == nil {
		t.Fatal("empty delta stream accepted")
	}
}
