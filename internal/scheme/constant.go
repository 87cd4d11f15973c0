package scheme

import (
	"fmt"

	"lwcomp/internal/core"
	"lwcomp/internal/vec"
)

// ConstName is the registry name of the constant scheme.
const ConstName = "const"

// Const represents columns holding a single repeated value — the
// degenerate end of the paper's model spectrum (a step function with
// one step, or RLE with one run). It exists because the analyzer
// should never spend bits on a column with no information.
//
// Form layout: Params{"value"}; no children, no payload.
type Const struct{}

// Name implements core.Scheme.
func (Const) Name() string { return ConstName }

// Compress encodes src if all of its elements are equal, and reports
// core.ErrNotRepresentable otherwise. Empty columns encode with value
// zero.
func (Const) Compress(src []int64) (*core.Form, error) {
	var v int64
	if len(src) > 0 {
		v = src[0]
		for i, x := range src {
			if x != v {
				return nil, fmt.Errorf("%w: const scheme at position %d: %d != %d",
					core.ErrNotRepresentable, i, x, v)
			}
		}
	}
	return &core.Form{Scheme: ConstName, N: len(src), Params: core.Params{"value": v}}, nil
}

// DecompressInto fills dst with the repeated value.
func (Const) DecompressInto(f *core.Form, dst []int64, _ *core.Scratch) error {
	if err := checkConst(f); err != nil {
		return err
	}
	vec.ConstantInto(dst, f.Params["value"])
	return nil
}

// ValidateForm implements core.Validator.
func (Const) ValidateForm(f *core.Form) error { return checkConst(f) }

// EstimateSize implements core.SizeEstimator, exactly: a constant
// column costs one parameter, and Min ≠ Max proves the scheme cannot
// represent the column at all.
func (Const) EstimateSize(st *core.BlockStats) (uint64, core.Bound) {
	if !st.HasMinMax {
		return 0, core.Heuristic
	}
	if st.N > 0 && st.Min != st.Max {
		return core.ImpossibleBits, core.Exact
	}
	return core.FormOverheadBits(1), core.Exact
}

func checkConst(f *core.Form) error {
	if f.Scheme != ConstName {
		return fmt.Errorf("%w: const scheme given form %q", core.ErrCorruptForm, f.Scheme)
	}
	if _, err := f.Params.Get(ConstName, "value"); err != nil {
		return err
	}
	if len(f.Children) != 0 || f.Leaf != nil || f.Packed != nil || f.Bytes != nil {
		return fmt.Errorf("%w: const form carries payload", core.ErrCorruptForm)
	}
	return nil
}
