package workload

import (
	"testing"

	"lwcomp/internal/column"
)

func TestOrderShipDatesShape(t *testing.T) {
	dates := OrderShipDates(10000, 40, 730120, 1)
	st := column.Analyze(dates)
	if !st.NonDecreasing {
		t.Fatal("dates not monotone")
	}
	if avg := st.AvgRunLength(); avg < 20 || avg > 80 {
		t.Fatalf("avg run length %.1f, want ≈40", avg)
	}
	if dates[0] < 730120 {
		t.Fatalf("epoch start %d", dates[0])
	}
}

func TestDeterminism(t *testing.T) {
	a := RandomWalk(1000, 10, 0, 7)
	b := RandomWalk(1000, 10, 0, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different data")
		}
	}
	c := RandomWalk(1000, 10, 0, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestRandomWalkLocality(t *testing.T) {
	w := RandomWalk(5000, 5, 100, 2)
	for i := 1; i < len(w); i++ {
		d := w[i] - w[i-1]
		if d < -5 || d > 5 {
			t.Fatalf("step %d out of bounds at %d", d, i)
		}
	}
}

func TestOutlierWalkRate(t *testing.T) {
	base := RandomWalk(20000, 5, 1<<20, 3)
	out := OutlierWalk(20000, 5, 0.01, 1<<30, 3)
	diffs := 0
	for i := range out {
		if out[i] != base[i] {
			diffs++
		}
	}
	rate := float64(diffs) / float64(len(out))
	if rate < 0.005 || rate > 0.02 {
		t.Fatalf("outlier rate %.4f, want ≈0.01", rate)
	}
}

func TestTrendNoiseSlope(t *testing.T) {
	tr := TrendNoise(10000, 2.5, 10, 4)
	// End-to-end rise ≈ slope·n.
	rise := float64(tr[len(tr)-1] - tr[0])
	if rise < 2.0*10000 || rise > 3.0*10000 {
		t.Fatalf("rise %.0f, want ≈25000", rise)
	}
	flat := TrendNoise(100, 0, 0, 4)
	for _, v := range flat {
		if v != 0 {
			t.Fatal("zero slope zero noise should be all zeros")
		}
	}
}

func TestLowCardinality(t *testing.T) {
	lc := LowCardinality(5000, 16, 5)
	st := column.Analyze(lc)
	if st.Distinct > 16 {
		t.Fatalf("distinct = %d, want ≤ 16", st.Distinct)
	}
	if st.Distinct < 2 {
		t.Fatalf("distinct = %d, want several", st.Distinct)
	}
}

func TestStepDataIsExactStepFunction(t *testing.T) {
	sd := StepData(1000, 50, 6)
	for i, v := range sd {
		if v != sd[(i/50)*50] {
			t.Fatalf("segment %d not constant", i/50)
		}
	}
}

func TestUniformBitsWidth(t *testing.T) {
	ub := UniformBits(5000, 12, 7)
	for i, v := range ub {
		if v < 0 || v >= 1<<12 {
			t.Fatalf("value %d at %d outside 12 bits", v, i)
		}
	}
	if z := UniformBits(10, 0, 7); z[0] != 0 {
		t.Fatal("width 0 should be zeros")
	}
}

func TestSkewedMagnitudeIsSkewed(t *testing.T) {
	sm := SkewedMagnitude(20000, 40, 8)
	narrow := 0
	for _, v := range sm {
		if v < 1<<8 {
			narrow++
		}
	}
	if frac := float64(narrow) / float64(len(sm)); frac < 0.5 {
		t.Fatalf("narrow fraction %.2f, want skew toward narrow", frac)
	}
	st := column.Analyze(sm)
	if st.ValueWidth < 30 {
		t.Fatalf("max width %d, want a wide tail", st.ValueWidth)
	}
}

func TestRunsAverageLength(t *testing.T) {
	r := Runs(50000, 16, 8, 9)
	st := column.Analyze(r)
	if avg := st.AvgRunLength(); avg < 8 || avg > 32 {
		t.Fatalf("avg run length %.1f, want ≈16", avg)
	}
}

func TestSortedIsSorted(t *testing.T) {
	s := Sorted(10000, 1<<30, 10)
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestSpikedUniformRate(t *testing.T) {
	data := SpikedUniform(100000, 10, 30, 0.001, 5)
	spikes := 0
	for _, v := range data {
		if v < 0 || v >= 1<<30 {
			t.Fatalf("value %d out of range", v)
		}
		if v >= 1<<10 {
			spikes++
		}
	}
	if spikes < 50 || spikes > 200 {
		t.Fatalf("%d spikes in 100000 values, want about 100", spikes)
	}
}

func TestMaintainShapes(t *testing.T) {
	shapes := MaintainShapes(1000, 1)
	if len(shapes) != 6 {
		t.Fatalf("%d shapes", len(shapes))
	}
	for _, s := range shapes {
		if s.Name == "" || len(s.Data) != 1000 {
			t.Fatalf("shape %q has %d values", s.Name, len(s.Data))
		}
	}
}
