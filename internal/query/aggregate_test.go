package query

import (
	"testing"

	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/vec"
)

func TestMinMaxMatchPlainScan(t *testing.T) {
	src := workload(11, 3000)
	wantMin, wantMax, err := vec.MinMax(src)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range compressors() {
		f, err := s.Compress(src)
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		gotMin, err := Min(f)
		if err != nil {
			t.Fatalf("%s: min: %v", name, err)
		}
		if gotMin != wantMin {
			t.Errorf("%s: Min = %d, want %d", name, gotMin, wantMin)
		}
		gotMax, err := Max(f)
		if err != nil {
			t.Fatalf("%s: max: %v", name, err)
		}
		if gotMax != wantMax {
			t.Errorf("%s: Max = %d, want %d", name, gotMax, wantMax)
		}
		// The one-call form agrees with the pair on every scheme.
		lo, hi, err := MinMax(f)
		if err != nil {
			t.Fatalf("%s: minmax: %v", name, err)
		}
		if lo != wantMin || hi != wantMax {
			t.Errorf("%s: MinMax = [%d, %d], want [%d, %d]", name, lo, hi, wantMin, wantMax)
		}
	}
}

func TestMinFORUsesRefsOnly(t *testing.T) {
	// The FOR shortcut must agree with a scan even though it touches
	// only refs.
	src := workload(12, 4096)
	f, err := scheme.FORComposite(256).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	wantMin, _, err := vec.MinMax(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Min(f)
	if err != nil || got != wantMin {
		t.Fatalf("Min = %d, want %d (%v)", got, wantMin, err)
	}
}

func TestMinMaxEmptyRejected(t *testing.T) {
	f, err := scheme.NS{}.Compress(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Min(f); err == nil {
		t.Fatal("Min of empty accepted")
	}
	if _, err := Max(f); err == nil {
		t.Fatal("Max of empty accepted")
	}
	if _, _, err := MinMax(f); err == nil {
		t.Fatal("MinMax of empty accepted")
	}
}

func TestDistinctCount(t *testing.T) {
	src := []int64{5, 5, 9, 9, 9, 5, 13}
	want := int64(3)
	for name, s := range map[string]core.Scheme{
		"dict": scheme.DictComposite(),
		"rle":  scheme.RLEComposite(),
		"rpe":  scheme.RPEComposite(),
		"ns":   scheme.NS{},
	} {
		f, err := s.Compress(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := DistinctCount(f)
		if err != nil || got != want {
			t.Errorf("%s: DistinctCount = %d, want %d (%v)", name, got, want, err)
		}
	}
	cf, err := scheme.Const{}.Compress([]int64{7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DistinctCount(cf); err != nil || got != 1 {
		t.Fatalf("const distinct = %d, %v", got, err)
	}
	ce, err := scheme.Const{}.Compress(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DistinctCount(ce); err != nil || got != 0 {
		t.Fatalf("empty const distinct = %d, %v", got, err)
	}
}

func TestDistinctCountDictIsStructural(t *testing.T) {
	// For DICT the count must come from the dictionary length — no
	// code scan. Verify against plain count.
	src := workload(14, 2000)
	f, err := scheme.DictComposite().Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	want := countDistinct(src)
	got, err := DistinctCount(f)
	if err != nil || got != want {
		t.Fatalf("dict distinct = %d, want %d (%v)", got, want, err)
	}
}
