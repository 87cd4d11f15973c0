package workload

import (
	"math/rand"
)

// OrderShipDates generates n monotone non-decreasing "day numbers"
// with geometric run lengths averaging runLen — the shipped-orders
// date column of the paper's introduction. Day numbers start at
// epochDay (e.g. 730120 ≈ year 2000 in proleptic day counts).
func OrderShipDates(n int, runLen float64, epochDay int64, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	if runLen < 1 {
		runLen = 1
	}
	out := make([]int64, n)
	day := epochDay
	p := 1.0 / runLen
	for i := range out {
		if rng.Float64() < p {
			// Most days advance by one; occasionally a gap (weekend,
			// holiday) of a few days.
			day += 1 + int64(rng.Intn(3))
		}
		out[i] = day
	}
	return out
}

// RandomWalk generates a walk with steps uniform in
// [-maxStep, +maxStep], starting at start: locally smooth, globally
// wandering — FOR's natural domain.
func RandomWalk(n int, maxStep int64, start int64, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	v := start
	for i := range out {
		if maxStep > 0 {
			v += rng.Int63n(2*maxStep+1) - maxStep
		}
		out[i] = v
	}
	return out
}

// OutlierWalk is RandomWalk with a fraction rate of elements replaced
// by far-away spikes of the given magnitude — the L0 patch workload.
func OutlierWalk(n int, maxStep int64, rate float64, magnitude int64, seed int64) []int64 {
	out := RandomWalk(n, maxStep, 1<<20, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	for i := range out {
		if rng.Float64() < rate {
			out[i] += magnitude + rng.Int63n(magnitude/2+1)
		}
	}
	return out
}

// TrendNoise generates a rising line of the given slope with uniform
// noise of amplitude ±noise around it — the piecewise-linear model's
// workload.
func TrendNoise(n int, slope float64, noise int64, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		v := int64(float64(i) * slope)
		if noise > 0 {
			v += rng.Int63n(2*noise+1) - noise
		}
		out[i] = v
	}
	return out
}

// LowCardinality generates n values drawn Zipf-style from a domain of
// the given cardinality (scattered over a wide value range so that NS
// alone cannot exploit it) — DICT's workload.
func LowCardinality(n int, cardinality int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	if cardinality < 1 {
		cardinality = 1
	}
	domain := make([]int64, cardinality)
	for i := range domain {
		domain[i] = rng.Int63n(1 << 40)
	}
	zipf := rand.NewZipf(rng, 1.3, 1.0, uint64(cardinality-1))
	out := make([]int64, n)
	for i := range out {
		out[i] = domain[zipf.Uint64()]
	}
	return out
}

// StepData generates an exact fixed-segment step function — STEP's
// (tiny) exact domain.
func StepData(n, segLen int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	var v int64
	for i := range out {
		if i%segLen == 0 {
			v = rng.Int63n(1 << 30)
		}
		out[i] = v
	}
	return out
}

// UniformBits generates n values uniform in [0, 2^w) — the NS
// calibration workload where the compression ratio is exactly 64/w.
func UniformBits(n int, w uint, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	if w == 0 {
		return out
	}
	mask := int64(1)<<w - 1
	if w >= 63 {
		mask = int64(^uint64(0) >> 1)
	}
	for i := range out {
		out[i] = rng.Int63() & mask
	}
	return out
}

// SkewedMagnitude generates values whose bit widths are themselves
// skewed (width drawn geometrically, value uniform within the width):
// most elements are narrow, a tail is wide. The bit-metric workload —
// fixed-width NS must pay the tail's width for every element.
func SkewedMagnitude(n int, maxWidth uint, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		w := uint(1)
		for w < maxWidth && rng.Float64() < 0.65 {
			w++
		}
		out[i] = rng.Int63n(int64(1) << w)
	}
	return out
}

// Runs generates n values with geometric runs of average length
// runLen over a small value alphabet — RLE's calibration workload.
func Runs(n int, runLen float64, alphabet int64, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	if runLen < 1 {
		runLen = 1
	}
	out := make([]int64, n)
	v := rng.Int63n(alphabet)
	p := 1.0 / runLen
	for i := range out {
		if rng.Float64() < p {
			v = rng.Int63n(alphabet)
		}
		out[i] = v
	}
	return out
}

// Sorted generates a sorted column of n values uniform in [0, max) —
// the selection-pruning workload (every range query touches a
// contiguous row range).
func Sorted(n int, max int64, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	if max <= 0 {
		return out
	}
	// Draw deltas so the result is sorted without an O(n log n) sort.
	var v int64
	avg := max / int64(n+1)
	for i := range out {
		v += rng.Int63n(2*avg + 1)
		out[i] = v
	}
	return out
}

// SpikedUniform generates values uniform in [0, 2^w) with a fraction
// rate of them replaced by spikes uniform in [0, 2^spikeW) — a narrow
// column with rare wide outliers, the patched-FOR workload.
func SpikedUniform(n int, w, spikeW uint, rate float64, seed int64) []int64 {
	out := UniformBits(n, w, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	for i := range out {
		if rng.Float64() < rate {
			out[i] = rng.Int63n(int64(1) << spikeW)
		}
	}
	return out
}

// Shape is one named column of a workload mix.
type Shape struct {
	Name string
	Data []int64
}

// MaintainShapes returns the six column shapes a write-and-maintain
// lifecycle sees in rotation, n values each: sorted day numbers in
// runs, a drifting narrow walk, uniform 16-bit noise, eight scattered
// 40-bit codes, a 10-bit column with one-in-a-thousand 30-bit spikes,
// and a noisy rising line. Between them every scheme family in the
// default candidate space wins somewhere.
func MaintainShapes(n int, seed int64) []Shape {
	return []Shape{
		{"sorted-runs", OrderShipDates(n, 27, 730120, seed)},
		{"walk", RandomWalk(n, 12, 1<<30, seed+1)},
		{"uniform", UniformBits(n, 16, seed+2)},
		{"low-cardinality", LowCardinality(n, 8, seed+3)},
		{"spiked", SpikedUniform(n, 10, 30, 0.001, seed+4)},
		{"trend", TrendNoise(n, 2.9, 40, seed+5)},
	}
}
