package vec

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstant(t *testing.T) {
	got, err := Constant(7, 4)
	if err != nil {
		t.Fatalf("Constant: %v", err)
	}
	if !Equal(got, []int64{7, 7, 7, 7}) {
		t.Fatalf("Constant(7,4) = %v", got)
	}
	if got, err = Constant(0, 0); err != nil || len(got) != 0 {
		t.Fatalf("Constant(0,0) = %v, %v", got, err)
	}
	if _, err = Constant(1, -1); !errors.Is(err, ErrNegativeLength) {
		t.Fatalf("Constant(1,-1) err = %v, want ErrNegativeLength", err)
	}
}

func TestIota(t *testing.T) {
	got, err := Iota(5, 3)
	if err != nil {
		t.Fatalf("Iota: %v", err)
	}
	if !Equal(got, []int64{5, 6, 7}) {
		t.Fatalf("Iota(5,3) = %v", got)
	}
	if _, err = Iota(0, -2); !errors.Is(err, ErrNegativeLength) {
		t.Fatalf("Iota negative err = %v", err)
	}
}

func TestPrefixSums(t *testing.T) {
	src := []int64{3, 0, 2, -1, 4}
	inc := PrefixSumInclusive(src)
	if !Equal(inc, []int64{3, 3, 5, 4, 8}) {
		t.Fatalf("inclusive = %v", inc)
	}
	exc := PrefixSumExclusive(src)
	if !Equal(exc, []int64{0, 3, 3, 5, 4}) {
		t.Fatalf("exclusive = %v", exc)
	}
	if got := PrefixSumInclusive(nil); len(got) != 0 {
		t.Fatalf("inclusive(nil) = %v", got)
	}
}

func TestDeltaInvertsPrefixSum(t *testing.T) {
	check := func(src []int64) bool {
		return Equal(PrefixSumInclusive(Delta(src)), src) &&
			Equal(Delta(PrefixSumInclusive(src)), src)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixSumInclusiveIntoAliasing(t *testing.T) {
	src := []int64{1, 2, 3, 4}
	got, err := PrefixSumInclusiveInto(src, src)
	if err != nil {
		t.Fatalf("into: %v", err)
	}
	if !Equal(got, []int64{1, 3, 6, 10}) {
		t.Fatalf("aliased prefix sum = %v", got)
	}
	if _, err := PrefixSumInclusiveInto(make([]int64, 3), src); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("length mismatch err = %v", err)
	}
}

func TestPopBackAndLast(t *testing.T) {
	src := []int64{1, 2, 3}
	got, err := PopBack(src)
	if err != nil || !Equal(got, []int64{1, 2}) {
		t.Fatalf("PopBack = %v, %v", got, err)
	}
	last, err := Last(src)
	if err != nil || last != 3 {
		t.Fatalf("Last = %d, %v", last, err)
	}
	if _, err = PopBack(nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("PopBack(nil) err = %v", err)
	}
	if _, err = Last(nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("Last(nil) err = %v", err)
	}
}

func TestGather(t *testing.T) {
	data := []int64{10, 20, 30}
	got, err := Gather(data, []int64{2, 0, 0, 1})
	if err != nil || !Equal(got, []int64{30, 10, 10, 20}) {
		t.Fatalf("Gather = %v, %v", got, err)
	}
	if _, err = Gather(data, []int64{3}); !errors.Is(err, ErrIndexOutOfRange) {
		t.Fatalf("out-of-range err = %v", err)
	}
	if _, err = Gather(data, []int64{-1}); !errors.Is(err, ErrIndexOutOfRange) {
		t.Fatalf("negative index err = %v", err)
	}
	if got, err = Gather(nil, []int64{}); err != nil || len(got) != 0 {
		t.Fatalf("empty gather = %v, %v", got, err)
	}
}

func TestScatter(t *testing.T) {
	got, err := Scatter([]int64{5, 6}, []int64{3, 1}, 5)
	if err != nil || !Equal(got, []int64{0, 6, 0, 5, 0}) {
		t.Fatalf("Scatter = %v, %v", got, err)
	}
	if _, err = Scatter([]int64{1}, []int64{5}, 5); !errors.Is(err, ErrIndexOutOfRange) {
		t.Fatalf("scatter oob err = %v", err)
	}
	if _, err = Scatter([]int64{1}, []int64{0, 1}, 5); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("scatter mismatch err = %v", err)
	}
	if _, err = Scatter(nil, nil, -1); !errors.Is(err, ErrNegativeLength) {
		t.Fatalf("scatter negative err = %v", err)
	}
	// Later writes win on duplicate positions.
	got, err = Scatter([]int64{1, 2}, []int64{0, 0}, 1)
	if err != nil || got[0] != 2 {
		t.Fatalf("duplicate scatter = %v, %v", got, err)
	}
}

func TestScatterIntoPreservesBase(t *testing.T) {
	base := []int64{9, 9, 9}
	got, err := ScatterInto(base, []int64{1}, []int64{1})
	if err != nil || !Equal(got, []int64{9, 1, 9}) {
		t.Fatalf("ScatterInto = %v, %v", got, err)
	}
}

func TestElementwise(t *testing.T) {
	a := []int64{6, 7, 8}
	b := []int64{3, 2, 8}
	cases := []struct {
		op   BinaryOp
		want []int64
	}{
		{Add, []int64{9, 9, 16}},
		{Sub, []int64{3, 5, 0}},
		{Mul, []int64{18, 14, 64}},
		{Div, []int64{2, 3, 1}},
		{Mod, []int64{0, 1, 0}},
		{Min, []int64{3, 2, 8}},
		{Max, []int64{6, 7, 8}},
	}
	for _, tc := range cases {
		got, err := Elementwise(tc.op, a, b)
		if err != nil || !Equal(got, tc.want) {
			t.Errorf("Elementwise(%s) = %v, %v; want %v", tc.op, got, err, tc.want)
		}
	}
	if _, err := Elementwise(Div, []int64{1}, []int64{0}); !errors.Is(err, ErrDivisionByZero) {
		t.Fatalf("div by zero err = %v", err)
	}
	if _, err := Elementwise(Add, a, []int64{1}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("mismatch err = %v", err)
	}
	if _, err := Elementwise(BinaryOp(200), a, b); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestElementwiseScalarAgainstElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]int64, 100)
	for i := range a {
		a[i] = rng.Int63n(1000) - 500
	}
	for _, op := range []BinaryOp{Add, Sub, Mul, Div, Mod, Min, Max} {
		c := int64(7)
		cc, err := Constant(c, len(a))
		if err != nil {
			t.Fatal(err)
		}
		want, err := Elementwise(op, a, cc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ElementwiseScalar(op, a, c)
		if err != nil || !Equal(got, want) {
			t.Errorf("ElementwiseScalar(%s) mismatch", op)
		}
	}
	if _, err := ElementwiseScalar(Div, a, 0); !errors.Is(err, ErrDivisionByZero) {
		t.Fatalf("scalar div by zero err = %v", err)
	}
}

func TestRunExpand(t *testing.T) {
	got, err := RunExpand([]int64{4, 9}, []int64{3, 2})
	if err != nil || !Equal(got, []int64{4, 4, 4, 9, 9}) {
		t.Fatalf("RunExpand = %v, %v", got, err)
	}
	// Zero-length runs contribute nothing.
	got, err = RunExpand([]int64{1, 2, 3}, []int64{0, 2, 0})
	if err != nil || !Equal(got, []int64{2, 2}) {
		t.Fatalf("RunExpand zero runs = %v, %v", got, err)
	}
	if _, err = RunExpand([]int64{1}, []int64{-1}); err == nil {
		t.Fatal("negative run length accepted")
	}
	if _, err = RunExpand([]int64{1}, []int64{1, 2}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("mismatch err = %v", err)
	}
}

func TestRunExpandInto(t *testing.T) {
	dst := make([]int64, 5)
	got, err := RunExpandInto(dst, []int64{4, 9}, []int64{3, 2})
	if err != nil || !Equal(got, []int64{4, 4, 4, 9, 9}) {
		t.Fatalf("RunExpandInto = %v, %v", got, err)
	}
	if _, err = RunExpandInto(make([]int64, 4), []int64{4, 9}, []int64{3, 2}); err == nil {
		t.Fatal("short destination accepted")
	}
	if _, err = RunExpandInto(make([]int64, 6), []int64{4, 9}, []int64{3, 2}); err == nil {
		t.Fatal("long destination accepted")
	}
}

func TestExpandByBoundaries(t *testing.T) {
	got, err := ExpandByBoundariesInto(make([]int64, 5), []int64{4, 9}, []int64{3, 5})
	if err != nil || !Equal(got, []int64{4, 4, 4, 9, 9}) {
		t.Fatalf("ExpandByBoundariesInto = %v, %v", got, err)
	}
	got, err = ExpandByBoundariesInto(nil, []int64{}, []int64{})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty = %v, %v", got, err)
	}
	if _, err = ExpandByBoundariesInto(make([]int64, 2), []int64{1, 2}, []int64{3, 2}); err == nil {
		t.Fatal("decreasing boundaries accepted")
	}
	if _, err = ExpandByBoundariesInto(nil, []int64{1}, []int64{-1}); err == nil {
		t.Fatal("negative total accepted")
	}
	if _, err = ExpandByBoundariesInto(make([]int64, 4), []int64{4, 9}, []int64{3, 5}); err == nil {
		t.Fatal("short destination accepted")
	}
}

func TestReplicateSegments(t *testing.T) {
	got, err := ReplicateSegments([]int64{7, 8}, 3, 5)
	if err != nil || !Equal(got, []int64{7, 7, 7, 8, 8}) {
		t.Fatalf("ReplicateSegments = %v, %v", got, err)
	}
	if _, err = ReplicateSegments([]int64{7}, 3, 5); err == nil {
		t.Fatal("insufficient refs accepted")
	}
	if _, err = ReplicateSegments([]int64{7}, 0, 5); err == nil {
		t.Fatal("zero segment length accepted")
	}
	got, err = ReplicateSegments([]int64{}, 4, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty replicate = %v, %v", got, err)
	}
}

func TestSelections(t *testing.T) {
	src := []int64{5, -3, 8, 0, 5}
	idx := SelectRange(src, 0, 5)
	if !Equal(idx, []int64{0, 3, 4}) {
		t.Fatalf("SelectRange = %v", idx)
	}
	if c := CountRange(src, 0, 5); c != 3 {
		t.Fatalf("CountRange = %d", c)
	}
}

// TestCountRangeExtremes pins the single-unsigned-compare form of
// CountRange at the bounds where a signed difference would overflow.
func TestCountRangeExtremes(t *testing.T) {
	src := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for _, tc := range []struct {
		lo, hi, want int64
	}{
		{math.MinInt64, math.MaxInt64, 7},
		{math.MinInt64, math.MinInt64, 1},
		{math.MaxInt64, math.MaxInt64, 1},
		{math.MinInt64, -1, 3},
		{0, math.MaxInt64, 4},
		{-1, 1, 3},
		{math.MinInt64 + 2, math.MaxInt64 - 2, 3},
		{1, -1, 0},                        // inverted
		{math.MaxInt64, math.MinInt64, 0}, // inverted across the full span
		{math.MinInt64 + 1, math.MinInt64, 0},
	} {
		if got := CountRange(src, tc.lo, tc.hi); got != tc.want {
			t.Errorf("CountRange(%d, %d) = %d, want %d", tc.lo, tc.hi, got, tc.want)
		}
		// SumRange is the same filter with the aggregate fused in: the
		// same count, and the wrapping sum of exactly the counted values.
		var wantSum int64
		for _, v := range src {
			if v >= tc.lo && v <= tc.hi {
				wantSum += v
			}
		}
		if sum, n := SumRange(src, tc.lo, tc.hi); n != tc.want || sum != wantSum {
			t.Errorf("SumRange(%d, %d) = (%d, %d), want (%d, %d)", tc.lo, tc.hi, sum, n, wantSum, tc.want)
		}
	}
}

// TestSumRangeWraps: the sum wraps mod 2^64 like every int64 sum here,
// and the count does not care.
func TestSumRangeWraps(t *testing.T) {
	src := []int64{math.MaxInt64, math.MaxInt64, 5, math.MinInt64, -7}
	if sum, n := SumRange(src, 1, math.MaxInt64); n != 3 || sum != 3 { // 2·(2^63−1)+5 wraps to 3
		t.Fatalf("SumRange above zero = (%d, %d), want (3, 3)", sum, n)
	}
	if sum, n := SumRange(src, math.MinInt64, math.MaxInt64); n != 5 || sum != Sum(src) {
		t.Fatalf("SumRange over everything = (%d, %d), want (%d, 5)", sum, n, Sum(src))
	}
	if sum, n := SumRange(nil, 0, 10); n != 0 || sum != 0 {
		t.Fatalf("SumRange(nil) = (%d, %d)", sum, n)
	}
}

func TestAggregates(t *testing.T) {
	if s := Sum([]int64{1, -2, 3}); s != 2 {
		t.Fatalf("Sum = %d", s)
	}
	if s := Sum(nil); s != 0 {
		t.Fatalf("Sum(nil) = %d", s)
	}
	lo, hi, err := MinMax([]int64{3, -1, 7})
	if err != nil || lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %d,%d,%v", lo, hi, err)
	}
	if _, _, err = MinMax(nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("MinMax(nil) err = %v", err)
	}
}

func TestBounds(t *testing.T) {
	sorted := []int64{2, 4, 4, 9}
	if i := LowerBound(sorted, 4); i != 1 {
		t.Fatalf("LowerBound = %d", i)
	}
	if i := UpperBound(sorted, 4); i != 3 {
		t.Fatalf("UpperBound = %d", i)
	}
	if i := LowerBound(sorted, 100); i != 4 {
		t.Fatalf("LowerBound past end = %d", i)
	}
}

func TestRunExpandMatchesExpandByBoundaries(t *testing.T) {
	check := func(raw []uint8) bool {
		lengths := make([]int64, len(raw))
		values := make([]int64, len(raw))
		for i, r := range raw {
			lengths[i] = int64(r % 7)
			values[i] = int64(i)
		}
		a, err := RunExpand(values, lengths)
		if err != nil {
			return false
		}
		b, err := ExpandByBoundariesInto(make([]int64, len(a)), values, PrefixSumInclusive(lengths))
		if err != nil {
			return false
		}
		return Equal(a, b)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
