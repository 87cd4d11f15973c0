package bitpack

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMaxWidth(t *testing.T) {
	if w := MaxWidth(nil); w != 0 {
		t.Fatalf("MaxWidth(nil) = %d", w)
	}
	if w := MaxWidth([]uint64{0, 0}); w != 0 {
		t.Fatalf("MaxWidth(zeros) = %d", w)
	}
	if w := MaxWidth([]uint64{1, 255, 3}); w != 8 {
		t.Fatalf("MaxWidth = %d, want 8", w)
	}
	if w := MaxWidth([]uint64{^uint64(0)}); w != 64 {
		t.Fatalf("MaxWidth(max) = %d", w)
	}
}

func TestUnpackRange(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, w := range []uint{0, 1, 5, 13, 31, 64} {
		src := randomValues(rng, 300, w)
		packed, err := Pack(src, w)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		for _, span := range [][2]int{{0, 0}, {0, 1}, {0, 300}, {17, 64}, {63, 66}, {299, 1}} {
			start, count := span[0], span[1]
			got, err := UnpackRange(packed, start, count, w)
			if err != nil {
				t.Fatalf("w=%d [%d,+%d): %v", w, start, count, err)
			}
			for i := 0; i < count; i++ {
				if got[i] != src[start+i] {
					t.Fatalf("w=%d [%d,+%d): element %d = %d, want %d",
						w, start, count, i, got[i], src[start+i])
				}
				if v := ValueAt(packed, start+i, w); v != src[start+i] {
					t.Fatalf("w=%d: ValueAt(%d) = %d, want %d", w, start+i, v, src[start+i])
				}
			}
		}
	}
}

func TestUnpackRangeErrors(t *testing.T) {
	packed, err := Pack([]uint64{1, 2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnpackRange(packed, -1, 1, 4); err == nil {
		t.Fatal("negative start accepted")
	}
	if _, err := UnpackRange(packed, 0, -1, 4); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err := UnpackRange(packed, 0, 1, 65); !errors.Is(err, ErrWidth) {
		t.Fatalf("width err = %v", err)
	}
	if _, err := UnpackRange(packed, 2, 50, 4); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overrun err = %v", err)
	}
}

func TestUnpackRangeMatchesFullUnpackProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	check := func(rawW uint8, rawStart, rawCount uint16) bool {
		w := uint(rawW % 65)
		src := randomValues(rng, 200, w)
		packed, err := Pack(src, w)
		if err != nil {
			return false
		}
		start := int(rawStart) % 200
		count := int(rawCount) % (200 - start)
		full := make([]uint64, 200)
		if err := UnpackInto(full, packed, w); err != nil {
			return false
		}
		part, err := UnpackRange(packed, start, count, w)
		if err != nil {
			return false
		}
		for i := 0; i < count; i++ {
			if part[i] != full[start+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestBitReaderPos(t *testing.T) {
	bw := NewBitWriter(0)
	bw.WriteBits(0b11, 2)
	br := NewBitReader(bw.Words())
	if br.Pos() != 0 {
		t.Fatalf("initial pos = %d", br.Pos())
	}
	if _, err := br.ReadBits(2); err != nil {
		t.Fatal(err)
	}
	if br.Pos() != 2 {
		t.Fatalf("pos after read = %d", br.Pos())
	}
}
