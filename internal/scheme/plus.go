package scheme

import (
	"fmt"

	"lwcomp/internal/core"
	"lwcomp/internal/exec"
	"lwcomp/internal/vec"
)

// PlusName is the registry name of the sum-of-schemes combinator.
const PlusName = "plus"

// Plus is the "+" of the paper's identity FOR ≡ (STEPFUNCTION + NS):
// the represented column is the element-wise sum of two compressed
// columns — typically a coarse model ("a simpler, coarser, inaccurate
// representation of the data") and a residual ("finer, local,
// noise-like complementary features", Lessons 2).
//
// Plus has no free-standing Compress: splitting a column into model
// plus residual requires choosing a model, which is the job of the
// fitters (ModelResidual). Decompression, by contrast, is entirely
// generic.
//
// Form layout: Children{"model", "residual"}, both of length N.
type Plus struct{}

// Name implements core.Scheme.
func (Plus) Name() string { return PlusName }

// Compress reports that Plus needs a fitter.
func (Plus) Compress([]int64) (*core.Form, error) {
	return nil, fmt.Errorf("%w: plus scheme has no canonical split; use a ModelResidual fitter",
		core.ErrNotRepresentable)
}

// NewPlusForm builds the canonical PLUS form over two child forms.
func NewPlusForm(model, residual *core.Form) (*core.Form, error) {
	if model.N != residual.N {
		return nil, fmt.Errorf("%w: plus children differ in length: model %d, residual %d",
			core.ErrCorruptForm, model.N, residual.N)
	}
	return &core.Form{
		Scheme:   PlusName,
		N:        model.N,
		Children: map[string]*core.Form{"model": model, "residual": residual},
	}, nil
}

// DecompressInto decodes the model into dst and the residual into
// scratch, and sums them in place.
func (Plus) DecompressInto(f *core.Form, dst []int64, s *core.Scratch) error {
	if err := checkPlus(f); err != nil {
		return err
	}
	if err := core.DecompressChildInto(f, "model", dst, s); err != nil {
		return err
	}
	residual, err := core.ChildScratch(f, "residual", s)
	if err != nil {
		return err
	}
	defer s.PutI64(residual)
	for i, r := range residual {
		dst[i] += r
	}
	return nil
}

// Plan implements core.Planner: a single element-wise addition — the
// final line of Algorithm 2, isolated.
func (Plus) Plan(f *core.Form) (*exec.Plan, error) {
	if err := checkPlus(f); err != nil {
		return nil, err
	}
	b := exec.NewBuilder()
	model := b.Input("model")
	residual := b.Input("residual")
	b.Elementwise(vec.Add, model, residual)
	return b.Build()
}

// ValidateForm implements core.Validator.
func (Plus) ValidateForm(f *core.Form) error { return checkPlus(f) }

// DecompressCostPerElement implements core.Coster: one addition.
func (Plus) DecompressCostPerElement(*core.Form) float64 { return 1.0 }

func checkPlus(f *core.Form) error {
	if f.Scheme != PlusName {
		return fmt.Errorf("%w: plus scheme given form %q", core.ErrCorruptForm, f.Scheme)
	}
	m, err := f.Child("model")
	if err != nil {
		return err
	}
	r, err := f.Child("residual")
	if err != nil {
		return err
	}
	if m.N != f.N || r.N != f.N {
		return fmt.Errorf("%w: plus form declares %d values, children declare %d and %d",
			core.ErrCorruptForm, f.N, m.N, r.N)
	}
	return nil
}
