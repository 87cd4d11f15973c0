package column

import (
	"math"
	"testing"
	"testing/quick"

	"lwcomp/internal/workload"
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

// orderReference is the plain loop Analyze's monotonicity flags and
// SumAbsDelta must match: comparisons decide the order, and each
// distance is taken exactly, whatever the int64 difference would wrap
// to.
func orderReference(src []int64) (nonDecreasing, nonIncreasing bool, sumAbsDelta uint64) {
	nonDecreasing, nonIncreasing = true, true
	for i := 1; i < len(src); i++ {
		a, b := src[i-1], src[i]
		if b < a {
			nonDecreasing = false
			sumAbsDelta += uint64(a) - uint64(b)
		}
		if b > a {
			nonIncreasing = false
			sumAbsDelta += uint64(b) - uint64(a)
		}
	}
	return nonDecreasing, nonIncreasing, sumAbsDelta
}

// orderColumns are the columns the order checks run: hand-made
// monotone and constant columns, columns whose deltas wrap at the
// int64 extremes, and the six maintenance shapes.
func orderColumns() map[string][]int64 {
	cols := map[string][]int64{
		"rising":        {1, 2, 2, 3},
		"falling":       {3, 2, 2, 1},
		"constant":      {7, 7, 7},
		"min-max":       {math.MinInt64, math.MaxInt64},
		"max-min-0":     {math.MaxInt64, math.MinInt64, 0},
		"single":        {math.MinInt64},
		"mixed":         {5, 5, 5, 2, 2, 9},
		"wrapping-rise": {math.MinInt64, -1, 0, math.MaxInt64},
	}
	for _, sh := range workload.MaintainShapes(5000, 3) {
		cols[sh.Name] = sh.Data
	}
	return cols
}

func TestAnalyzeMonotone(t *testing.T) {
	for name, src := range orderColumns() {
		s := Analyze(src)
		nd, ni, _ := orderReference(src)
		if s.NonDecreasing != nd || s.NonIncreasing != ni {
			t.Errorf("%s: non-decreasing=%v non-increasing=%v, want %v %v",
				name, s.NonDecreasing, s.NonIncreasing, nd, ni)
		}
		if s.Monotone() != (nd || ni) {
			t.Errorf("%s: Monotone() = %v", name, s.Monotone())
		}
	}
	if s := Analyze([]int64{7, 7, 7}); !s.NonDecreasing || !s.NonIncreasing || s.Runs != 1 {
		t.Fatalf("constant flags = %+v", s)
	}
	if s := Analyze([]int64{math.MaxInt64, math.MinInt64, 0}); s.NonDecreasing || s.NonIncreasing {
		t.Fatalf("wrapping column reported monotone: %+v", s)
	}
}

// TestAnalyzeSumAbsDelta checks the exact distances, modulo 2^64 over
// the sum, including steps whose int64 difference wraps.
func TestAnalyzeSumAbsDelta(t *testing.T) {
	for name, src := range orderColumns() {
		_, _, want := orderReference(src)
		if got := Analyze(src).SumAbsDelta; got != want {
			t.Errorf("%s: sum abs delta = %d, want %d", name, got, want)
		}
	}
	if got := Analyze([]int64{math.MinInt64, math.MaxInt64}).SumAbsDelta; got != math.MaxUint64 {
		t.Fatalf("sum abs delta across the int64 range = %d", got)
	}
	if got := Analyze([]int64{7, 7, 7}).SumAbsDelta; got != 0 {
		t.Fatalf("constant column sum abs delta = %d", got)
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
