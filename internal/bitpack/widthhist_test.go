package bitpack

import (
	"testing"
	"testing/quick"
)

func TestHistogramOf(t *testing.T) {
	h := HistogramOf([]uint64{0, 1, 1, 3, 8})
	if h.N != 5 {
		t.Fatalf("N = %d", h.N)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 || h.Counts[2] != 1 || h.Counts[4] != 1 {
		t.Fatalf("counts = %v", h.Counts[:5])
	}
	if h.MaxWidth() != 4 {
		t.Fatalf("MaxWidth = %d", h.MaxWidth())
	}
}

func TestWidthCovering(t *testing.T) {
	// 90 narrow values (width ≤ 4), 10 wide (width 20).
	src := make([]uint64, 100)
	for i := 0; i < 90; i++ {
		src[i] = 10
	}
	for i := 90; i < 100; i++ {
		src[i] = 1 << 19
	}
	h := HistogramOf(src)
	if w := h.WidthCovering(0.9); w != 4 {
		t.Fatalf("WidthCovering(0.9) = %d", w)
	}
	if w := h.WidthCovering(1.0); w != 20 {
		t.Fatalf("WidthCovering(1.0) = %d", w)
	}
	if w := h.WidthCovering(-1); w != 0 {
		t.Fatalf("WidthCovering(-1) = %d", w)
	}
	var empty WidthHistogram
	if w := empty.WidthCovering(0.5); w != 0 {
		t.Fatalf("empty WidthCovering = %d", w)
	}
}

func TestExceptionsAt(t *testing.T) {
	h := HistogramOf([]uint64{1, 3, 8, 1 << 30})
	if e := h.ExceptionsAt(4); e != 1 {
		t.Fatalf("ExceptionsAt(4) = %d", e)
	}
	if e := h.ExceptionsAt(64); e != 0 {
		t.Fatalf("ExceptionsAt(64) = %d", e)
	}
	if e := h.ExceptionsAt(0); e != 4 {
		t.Fatalf("ExceptionsAt(0) = %d", e)
	}
}

func TestBestPatchWidthSkewed(t *testing.T) {
	// 990 values of width ≤ 8, 10 outliers of width 40: patching at 8
	// costs 1000·8 + 10·96 < packing everything at 40.
	src := make([]uint64, 1000)
	for i := range src {
		src[i] = uint64(i % 200)
	}
	for i := 0; i < 10; i++ {
		src[i*100] = 1 << 39
	}
	h := HistogramOf(src)
	w, exc := h.BestPatchWidth(96)
	if w >= 40 {
		t.Fatalf("BestPatchWidth chose %d, wanted narrow", w)
	}
	if exc < 10 {
		t.Fatalf("exceptions = %d, want at least the 10 outliers", exc)
	}
	if got := patchCost(h, w, 96); got >= patchCost(h, 40, 96) {
		t.Fatalf("patched cost %d not below unpatched %d", got, patchCost(h, 40, 96))
	}
}

func TestBestPatchWidthUniform(t *testing.T) {
	// All values the same width: no patching should win.
	src := make([]uint64, 256)
	for i := range src {
		src[i] = 200 + uint64(i%50) // width 8
	}
	h := HistogramOf(src)
	w, exc := h.BestPatchWidth(96)
	if w != 8 || exc != 0 {
		t.Fatalf("uniform data: width %d exceptions %d, want 8, 0", w, exc)
	}
}

func TestBestPatchWidthIsOptimalProperty(t *testing.T) {
	check := func(raw []uint16) bool {
		src := make([]uint64, len(raw))
		for i, r := range raw {
			src[i] = uint64(r)
		}
		h := HistogramOf(src)
		w, _ := h.BestPatchWidth(96)
		best := patchCost(h, w, 96)
		for cand := uint(0); cand <= h.MaxWidth(); cand++ {
			if patchCost(h, cand, 96) < best {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBestPatchWidthEmpty(t *testing.T) {
	var h WidthHistogram
	w, exc := h.BestPatchWidth(96)
	if w != 0 || exc != 0 {
		t.Fatalf("empty = %d, %d", w, exc)
	}
}

// patchCost is the cost BestPatchWidth minimises, in bits: every value
// packed at width w, and each one wider stored as an exception of
// excBits bits.
func patchCost(h WidthHistogram, w, excBits uint) uint64 {
	return uint64(h.N)*uint64(w) + uint64(h.ExceptionsAt(w))*uint64(excBits)
}
