package scheme

import (
	"fmt"

	"lwcomp/internal/core"
	"lwcomp/internal/exec"
	"lwcomp/internal/vec"
)

// StepName is the registry name of the step-function scheme.
const StepName = "step"

// Step represents columns that are exactly the evaluation of a
// fixed-segment-length step function: constant value refs[i] on the
// whole i-th segment (§II-B). The paper introduces it as the model
// part of FOR's decomposition — "not very useful as a stand-alone
// scheme … but quite useful conceptually": FOR ≡ STEPFUNCTION + NS.
//
// Compress reports core.ErrNotRepresentable for any column that is
// not exactly a step function; lossy fitting is the job of the
// model-residual combinator (fitters.go).
//
// Form layout: Params{"seglen"}; Children{"refs"} of length ⌈N/ℓ⌉.
type Step struct {
	// SegLen is the segment length used when compressing; zero means
	// DefaultSegmentLength.
	SegLen int
}

// Name implements core.Scheme.
func (Step) Name() string { return StepName }

// Compress verifies src is a step function and stores one value per
// segment.
func (s Step) Compress(src []int64) (*core.Form, error) {
	segLen := s.SegLen
	if segLen == 0 {
		segLen = DefaultSegmentLength
	}
	if segLen < 1 {
		return nil, fmt.Errorf("step: invalid segment length %d", segLen)
	}
	nseg := (len(src) + segLen - 1) / segLen
	refs := make([]int64, nseg)
	for seg := 0; seg < nseg; seg++ {
		lo := seg * segLen
		hi := lo + segLen
		if hi > len(src) {
			hi = len(src)
		}
		refs[seg] = src[lo]
		for i := lo + 1; i < hi; i++ {
			if src[i] != refs[seg] {
				return nil, fmt.Errorf("%w: step scheme: segment %d is not constant (element %d)",
					core.ErrNotRepresentable, seg, i)
			}
		}
	}
	return NewStepForm(refs, segLen, len(src)), nil
}

// NewStepForm builds the canonical STEP form; the FOR decomposition
// rewrite uses it directly.
func NewStepForm(refs []int64, segLen, n int) *core.Form {
	return &core.Form{
		Scheme:   StepName,
		N:        n,
		Params:   core.Params{"seglen": int64(segLen)},
		Children: map[string]*core.Form{"refs": NewIDForm(refs)},
	}
}

// DecompressInto evaluates the step function: each segment's
// reference replicated over it.
func (Step) DecompressInto(f *core.Form, dst []int64, s *core.Scratch) error {
	if err := checkStep(f); err != nil {
		return err
	}
	refs, err := core.ChildScratch(f, "refs", s)
	if err != nil {
		return err
	}
	defer s.PutI64(refs)
	vec.ConstantInto(dst, 0)
	addSegmentRefs(dst, refs, int(f.Params["seglen"]))
	return nil
}

// Plan implements core.Planner: Algorithm 2 with the final addition
// dropped — the paper's construction of STEP by keeping "the initial
// steps" of FOR decompression ("it is as though all offsets are 0").
func (Step) Plan(f *core.Form) (*exec.Plan, error) {
	if err := checkStep(f); err != nil {
		return nil, err
	}
	b := exec.NewBuilder()
	refs := b.Input("refs")
	one := b.ConstScalar(1)
	n := b.ConstScalar(int64(f.N))
	ones := b.ConstantCol(one, n)
	id := b.PrefixSumExc(ones)
	ell := b.ConstScalar(f.Params["seglen"])
	ells := b.ConstantCol(ell, n)
	refIndices := b.Elementwise(vec.Div, id, ells)
	b.Gather(refs, refIndices)
	return b.Build()
}

// ValidateForm implements core.Validator.
func (Step) ValidateForm(f *core.Form) error { return checkStep(f) }

// DecompressCostPerElement implements core.Coster: a segment-wise
// fill.
func (Step) DecompressCostPerElement(*core.Form) float64 { return 0.7 }

func checkStep(f *core.Form) error {
	if f.Scheme != StepName {
		return fmt.Errorf("%w: step scheme given form %q", core.ErrCorruptForm, f.Scheme)
	}
	segLen, err := f.Params.Get(StepName, "seglen")
	if err != nil {
		return err
	}
	if segLen < 1 {
		return fmt.Errorf("%w: step segment length %d", core.ErrCorruptForm, segLen)
	}
	refs, err := f.Child("refs")
	if err != nil {
		return err
	}
	nseg := (f.N + int(segLen) - 1) / int(segLen)
	if refs.N != nseg {
		return fmt.Errorf("%w: step refs child declares %d segments, need %d",
			core.ErrCorruptForm, refs.N, nseg)
	}
	return nil
}
