package scheme

import (
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
// (arithmetic shift, so negative slopes round toward −∞ — the fitters
// use the identical formula, which is all that exactness requires).
//
// Like Step, Compress accepts only exactly-representable columns;
// lossy fitting is the job of the model-residual combinator.
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

// Compress verifies src is exactly piecewise linear under the
// endpoint-fitted slope and stores one (base, slope) pair per
// segment.
func (s Linear) Compress(src []int64) (*core.Form, error) {
	segLen := s.SegLen
	if segLen == 0 {
		segLen = DefaultSegmentLength
	}
	frac := s.Frac
	if frac == 0 {
		frac = DefaultFracBits
	}
	if segLen < 1 {
		return nil, fmt.Errorf("linear: invalid segment length %d", segLen)
	}
	if frac > 30 {
		return nil, fmt.Errorf("linear: fraction width %d too large (max 30)", frac)
	}
	nseg := (len(src) + segLen - 1) / segLen
	bases := make([]int64, nseg)
	slopes := make([]int64, nseg)
	for seg := 0; seg < nseg; seg++ {
		lo := seg * segLen
		hi := lo + segLen
		if hi > len(src) {
			hi = len(src)
		}
		base, slope := fitLineEndpoints(src[lo:hi], frac)
		bases[seg] = base
		slopes[seg] = slope
		for i := lo; i < hi; i++ {
			if LinearPredict(base, slope, i-lo, frac) != src[i] {
				return nil, fmt.Errorf("%w: linear scheme: segment %d deviates at element %d",
					core.ErrNotRepresentable, seg, i)
			}
		}
	}
	return NewLinearForm(bases, slopes, segLen, frac, len(src)), nil
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

// NewLinearForm builds the canonical LINEAR form.
func NewLinearForm(bases, slopes []int64, segLen int, frac uint, n int) *core.Form {
	return &core.Form{
		Scheme: LinearName,
		N:      n,
		Params: core.Params{"seglen": int64(segLen), "frac": int64(frac)},
		Children: map[string]*core.Form{
			"bases":  NewIDForm(bases),
			"slopes": NewIDForm(slopes),
		},
	}
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

// DecompressCostPerElement implements core.Coster: a multiply, shift
// and add per element.
func (Linear) DecompressCostPerElement(*core.Form) float64 { return 1.6 }

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
