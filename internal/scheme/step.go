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
// not exactly a step function; the lossy fit is Fit, which Plus and
// Patch use as their model.
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
func (st Step) Compress(src []int64) (*core.Form, error) { return core.CompressPooled(st, src) }

// CompressParts implements core.ConstituentCompressor: the column must
// be exactly a step function; its refs go to emit.
func (st Step) CompressParts(src []int64, s *core.Scratch, emit func(name string, col []int64) (*core.Form, error)) (*core.Form, error) {
	return st.fit(src, s, emit, true)
}

// Fit implements Model: each segment's minimum is its reference — the
// L∞ fit of §II-B ("FOR captures all columns which are L∞-metric-close
// to the evaluation of a step function") whose residuals are exactly
// FOR's offsets.
func (st Step) Fit(src []int64, s *core.Scratch) (*core.Form, error) {
	return st.fit(src, s, core.LeafEmit, false)
}

// fit takes each segment's minimum as its reference and, when the
// column must be exactly a step function, checks that nothing in the
// segment lies above it.
func (st Step) fit(src []int64, s *core.Scratch, emit func(string, []int64) (*core.Form, error), exact bool) (*core.Form, error) {
	segLen, err := segLenOf(StepName, st.SegLen)
	if err != nil {
		return nil, err
	}
	refs := s.I64(segments(len(src), segLen))
	defer s.PutI64(refs)
	for seg := range refs {
		lo := seg * segLen
		part := src[lo:min(lo+segLen, len(src))]
		refs[seg] = segmentMin(part)
		if !exact {
			continue
		}
		for j, v := range part {
			if v != refs[seg] {
				return nil, fmt.Errorf("%w: step scheme: segment %d is not constant (element %d)",
					core.ErrNotRepresentable, seg, lo+j)
			}
		}
	}
	refsForm, err := emit("refs", refs)
	if err != nil {
		return nil, err
	}
	return &core.Form{
		Scheme:   StepName,
		N:        len(src),
		Params:   core.Params{"seglen": int64(segLen)},
		Children: map[string]*core.Form{"refs": refsForm},
	}, nil
}

// shape implements Model: one ID reference per segment.
func (st Step) shape(n int) (int, uint64, error) {
	segLen, err := segLenOf(StepName, st.SegLen)
	if err != nil {
		return segLen, 0, err
	}
	return segLen, core.FormOverheadBits(1) + leafBits(segments(n, segLen)), nil
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
	segLen := int(f.Params["seglen"])
	for seg, ref := range refs {
		lo := seg * segLen
		vec.ConstantInto(dst[lo:min(lo+segLen, len(dst))], ref)
	}
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
