package column

import (
	"testing"
	"testing/quick"
)

func TestAnalyzeEmpty(t *testing.T) {
	s := Analyze(nil)
	if s.N != 0 || s.Runs != 0 || !s.Monotone() {
		t.Fatalf("empty stats = %+v", s)
	}
}

func TestAnalyzeBasics(t *testing.T) {
	s := Analyze([]int64{5, 5, 5, 2, 2, 9})
	if s.N != 6 {
		t.Fatalf("N = %d", s.N)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
	if s.Runs != 3 {
		t.Fatalf("runs = %d", s.Runs)
	}
	if s.Distinct != 3 {
		t.Fatalf("distinct = %d", s.Distinct)
	}
	if s.NonDecreasing || s.NonIncreasing {
		t.Fatal("monotone flags wrong")
	}
	if got := s.AvgRunLength(); got != 2 {
		t.Fatalf("avg run length = %f", got)
	}
}

func TestAnalyzeMonotone(t *testing.T) {
	s := Analyze([]int64{1, 2, 2, 3})
	if !s.NonDecreasing || s.NonIncreasing || !s.Monotone() {
		t.Fatalf("monotone flags = %+v", s)
	}
	s = Analyze([]int64{3, 2, 2, 1})
	if s.NonDecreasing || !s.NonIncreasing {
		t.Fatalf("monotone flags = %+v", s)
	}
	s = Analyze([]int64{7, 7, 7})
	if !s.NonDecreasing || !s.NonIncreasing || s.Runs != 1 {
		t.Fatalf("constant flags = %+v", s)
	}
}

func TestAnalyzeWidths(t *testing.T) {
	// Values fit in zigzag width 4 (max |v| = 7 → zigzag ≤ 14);
	// deltas are ±1 → zigzag ≤ 2 → width 2.
	src := []int64{5, 6, 7, 6, 5}
	s := Analyze(src)
	if s.ValueWidth != 4 {
		t.Fatalf("value width = %d", s.ValueWidth)
	}
	if s.MaxDeltaWidth != 2 { // DELTA keeps the first value as a parameter
		t.Fatalf("delta width = %d", s.MaxDeltaWidth)
	}
	if s.RangeWidth != 2 { // max-min = 2
		t.Fatalf("range width = %d", s.RangeWidth)
	}
}

func TestAnalyzeNegatives(t *testing.T) {
	s := Analyze([]int64{-5, 0, 5})
	if s.Min != -5 || s.Max != 5 {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
	if s.SumAbsDelta != 10 {
		t.Fatalf("sum abs delta = %d", s.SumAbsDelta)
	}
}

func TestAnalyzeRunsInvariant(t *testing.T) {
	check := func(raw []uint8) bool {
		src := make([]int64, len(raw))
		for i, r := range raw {
			src[i] = int64(r % 3) // force runs
		}
		s := Analyze(src)
		if len(src) == 0 {
			return s.Runs == 0
		}
		// Count runs directly.
		runs := 1
		for i := 1; i < len(src); i++ {
			if src[i] != src[i-1] {
				runs++
			}
		}
		return s.Runs == runs && s.Distinct <= 3 && s.N == len(src)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctSaturation(t *testing.T) {
	src := make([]int64, distinctCap+10)
	for i := range src {
		src[i] = int64(i)
	}
	s := Analyze(src)
	if !s.DistinctSaturated() {
		t.Fatalf("distinct = %d, want saturated", s.Distinct)
	}
}
