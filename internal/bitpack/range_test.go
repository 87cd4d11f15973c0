package bitpack

import (
	"math/rand"
	"testing"
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

// TestValueAt reads every value of a packed payload one at a time,
// across word and 64-value block edges, against the values packed.
func TestValueAt(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, w := range []uint{0, 1, 5, 13, 31, 64} {
		src := randomValues(rng, 300, w)
		packed, err := Pack(src, w)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		for i, want := range src {
			if v := ValueAt(packed, i, w); v != want {
				t.Fatalf("w=%d: ValueAt(%d) = %d, want %d", w, i, v, want)
			}
		}
	}
}
