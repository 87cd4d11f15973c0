package scheme

import (
	"cmp"
	"fmt"

	"lwcomp/internal/core"
)

// LinearName is the registry name of the piecewise-linear scheme.
const LinearName = "linear"

// DefaultFracBits is the default fixed-point fraction width for
// slopes.
const DefaultFracBits = 16

// Linear represents columns that are exactly the evaluation of a
// fixed-segment piecewise-linear function — the paper's §II-B
// enrichment of the model space: "keep an offset from a diagonal line
// at some slope rather than the offset from a horizontal step".
//
// Slopes are fixed-point integers with frac fractional bits; the
// value at offset j within segment s is
//
//	bases[s] + (slopes[s]·j) >> frac
//
// (arithmetic shift, so negative slopes round toward −∞ — the fit
// evaluates the identical formula, which is all that exactness
// requires).
//
// Like Step, Compress accepts only exactly-representable columns; the
// lossy fit is Fit, which Plus and Patch use as their model.
//
// Form layout: Params{"seglen", "frac"}; Children{"bases", "slopes"}
// of length ⌈N/ℓ⌉.
type Linear struct {
	// SegLen is the segment length used when compressing; zero means
	// DefaultSegmentLength.
	SegLen int
	// Frac is the fixed-point fraction width; zero means
	// DefaultFracBits.
	Frac uint
}

// Name implements core.Scheme.
func (Linear) Name() string { return LinearName }

// LinearPredict evaluates the fixed-point line at offset j.
func LinearPredict(base, slope int64, j int, frac uint) int64 {
	return base + (slope*int64(j))>>frac
}

// params resolves and validates the segment length and fraction width.
func (l Linear) params() (segLen int, frac uint, err error) {
	frac = cmp.Or(l.Frac, DefaultFracBits)
	if segLen, err = segLenOf(LinearName, l.SegLen); err == nil && frac > 30 {
		err = fmt.Errorf("linear: fraction width %d too large (max 30)", frac)
	}
	return segLen, frac, err
}

// Compress verifies src is exactly piecewise linear under the
// endpoint-fitted slope and stores one (base, slope) pair per
// segment.
func (l Linear) Compress(src []int64) (*core.Form, error) { return core.CompressPooled(l, src) }

// CompressParts implements core.ConstituentCompressor: the column must
// be exactly piecewise linear; its bases and slopes go to emit.
func (l Linear) CompressParts(src []int64, s *core.Scratch, emit func(name string, col []int64) (*core.Form, error)) (*core.Form, error) {
	return l.fit(src, s, emit, true)
}

// Fit implements Model: a least-squares line per segment, its base
// shifted down so every residual is non-negative (the narrowest
// unsigned NS width).
func (l Linear) Fit(src []int64, s *core.Scratch) (*core.Form, error) {
	return l.fit(src, s, core.LeafEmit, false)
}

// fit fits one line per segment — through its endpoints when the
// column must be exactly linear, by least squares otherwise — and
// either checks that every element lies on it or shifts its base down
// to the lowest residual.
func (l Linear) fit(src []int64, s *core.Scratch, emit func(string, []int64) (*core.Form, error), exact bool) (*core.Form, error) {
	segLen, frac, err := l.params()
	if err != nil {
		return nil, err
	}
	fitLine := fitLineLeastSquares
	if exact {
		fitLine = fitLineEndpoints
	}
	nseg := segments(len(src), segLen)
	bases, slopes := s.I64(nseg), s.I64(nseg)
	defer s.PutI64(bases)
	defer s.PutI64(slopes)
	for seg := range bases {
		lo := seg * segLen
		part := src[lo:min(lo+segLen, len(src))]
		base, slope := fitLine(part, frac)
		low := int64(0)
		for j, v := range part {
			r := v - LinearPredict(base, slope, j, frac)
			if exact && r != 0 {
				return nil, fmt.Errorf("%w: linear scheme: segment %d deviates at element %d",
					core.ErrNotRepresentable, seg, lo+j)
			}
			if j == 0 || r < low {
				low = r
			}
		}
		bases[seg], slopes[seg] = base+low, slope
	}
	return modelForm(LinearName, len(src), segLen, frac, emit, []string{"bases", "slopes"}, bases, slopes)
}

// shape implements Model: an ID base and slope per segment.
func (l Linear) shape(n int) (int, uint64, error) {
	segLen, _, err := l.params()
	if err != nil {
		return segLen, 0, err
	}
	return segLen, core.FormOverheadBits(2) + 2*leafBits(segments(n, segLen)), nil
}

// modelForm emits a fitted sloped model's coefficient columns, in
// order, and builds its form.
func modelForm(scheme string, n, segLen int, frac uint, emit func(string, []int64) (*core.Form, error), names []string, cols ...[]int64) (*core.Form, error) {
	f := &core.Form{
		Scheme:   scheme,
		N:        n,
		Params:   core.Params{"seglen": int64(segLen), "frac": int64(frac)},
		Children: make(map[string]*core.Form, len(cols)),
	}
	for i, col := range cols {
		c, err := emit(names[i], col)
		if err != nil {
			return nil, err
		}
		f.Children[names[i]] = c
	}
	return f, nil
}

// fitLineLeastSquares computes the ordinary-least-squares line of a
// segment in fixed point: slope = cov(j, v)/var(j).
func fitLineLeastSquares(seg []int64, frac uint) (base, slope int64) {
	n := len(seg)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return seg[0], 0
	}
	var sumJ, sumV, sumJJ, sumJV float64
	for j, v := range seg {
		fj := float64(j)
		fv := float64(v)
		sumJ += fj
		sumV += fv
		sumJJ += fj * fj
		sumJV += fj * fv
	}
	fn := float64(n)
	den := fn*sumJJ - sumJ*sumJ
	var slopeF float64
	if den != 0 {
		slopeF = (fn*sumJV - sumJ*sumV) / den
	}
	interceptF := (sumV - slopeF*sumJ) / fn
	scale := float64(int64(1) << frac)
	slope = int64(slopeF*scale + 0.5)
	if slopeF < 0 {
		slope = int64(slopeF*scale - 0.5)
	}
	return int64(interceptF + 0.5), slope
}

// fitLineEndpoints fits a fixed-point line through a segment's
// endpoints: slope = (last−first)/(len−1) in frac fixed point, base =
// first element.
func fitLineEndpoints(seg []int64, frac uint) (base, slope int64) {
	if len(seg) == 0 {
		return 0, 0
	}
	base = seg[0]
	if len(seg) == 1 {
		return base, 0
	}
	num := seg[len(seg)-1] - seg[0]
	den := int64(len(seg) - 1)
	// Round-to-nearest fixed-point division.
	scaled := num << frac
	slope = (scaled + den/2) / den
	if scaled < 0 {
		slope = (scaled - den/2) / den
	}
	return base, slope
}

// DecompressInto evaluates the piecewise-linear function into dst.
func (Linear) DecompressInto(f *core.Form, dst []int64, s *core.Scratch) error {
	if err := checkLinear(f); err != nil {
		return err
	}
	segLen := int(f.Params["seglen"])
	frac := uint(f.Params["frac"])
	bases, err := core.ChildScratch(f, "bases", s)
	if err != nil {
		return err
	}
	defer s.PutI64(bases)
	slopes, err := core.ChildScratch(f, "slopes", s)
	if err != nil {
		return err
	}
	defer s.PutI64(slopes)
	for seg := 0; seg*segLen < f.N; seg++ {
		lo := seg * segLen
		hi := lo + segLen
		if hi > f.N {
			hi = f.N
		}
		base, slope := bases[seg], slopes[seg]
		for i := lo; i < hi; i++ {
			dst[i] = LinearPredict(base, slope, i-lo, frac)
		}
	}
	return nil
}

// ValidateForm implements core.Validator.
func (Linear) ValidateForm(f *core.Form) error { return checkLinear(f) }

func checkLinear(f *core.Form) error {
	if f.Scheme != LinearName {
		return fmt.Errorf("%w: linear scheme given form %q", core.ErrCorruptForm, f.Scheme)
	}
	segLen, err := f.Params.Get(LinearName, "seglen")
	if err != nil {
		return err
	}
	if segLen < 1 {
		return fmt.Errorf("%w: linear segment length %d", core.ErrCorruptForm, segLen)
	}
	frac, err := f.Params.Get(LinearName, "frac")
	if err != nil {
		return err
	}
	if frac < 0 || frac > 30 {
		return fmt.Errorf("%w: linear fraction width %d", core.ErrCorruptForm, frac)
	}
	bases, err := f.Child("bases")
	if err != nil {
		return err
	}
	slopes, err := f.Child("slopes")
	if err != nil {
		return err
	}
	nseg := (f.N + int(segLen) - 1) / int(segLen)
	if bases.N != nseg || slopes.N != nseg {
		return fmt.Errorf("%w: linear children declare %d and %d segments, need %d",
			core.ErrCorruptForm, bases.N, slopes.N, nseg)
	}
	return nil
}
