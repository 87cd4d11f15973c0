package scheme

import (
	"fmt"

	"lwcomp/internal/core"
	"lwcomp/internal/exec"
	"lwcomp/internal/vec"
)

// PatchName is the registry name of the patch combinator.
const PatchName = "patch"

// Patch is the paper's L0-metric extension (§II-B): the column is a
// base representation that is correct everywhere except at a sparse
// set of positions, plus "patches" — (position, value) pairs — for
// "the occasional divergent arbitrary-value element". Under the L0
// metric d(x,y) = |{i : xi ≠ yi}|, Patch captures all columns within
// distance |positions| of the base scheme's domain.
//
// Like Plus, Patch has no free-standing Compress (choosing which
// elements become exceptions is the fitter's job — see NewPatched in
// fitters.go); decompression is generic.
//
// Form layout: Children{"base"} (any form of length N),
// Children{"positions", "values"} (equal-length exception lists;
// positions strictly increasing in [0, N)).
type Patch struct{}

// Name implements core.Scheme.
func (Patch) Name() string { return PatchName }

// Compress reports that Patch needs a fitter.
func (Patch) Compress([]int64) (*core.Form, error) {
	return nil, fmt.Errorf("%w: patch scheme has no canonical exception choice; use NewPatched",
		core.ErrNotRepresentable)
}

// NewPatchForm builds the canonical PATCH form.
func NewPatchForm(base *core.Form, positions, values []int64) (*core.Form, error) {
	if len(positions) != len(values) {
		return nil, fmt.Errorf("%w: patch exception lists differ: %d positions, %d values",
			core.ErrCorruptForm, len(positions), len(values))
	}
	if err := checkPatchPositions(positions, base.N); err != nil {
		return nil, err
	}
	return &core.Form{
		Scheme: PatchName,
		N:      base.N,
		Children: map[string]*core.Form{
			"base":      base,
			"positions": NewIDForm(positions),
			"values":    NewIDForm(values),
		},
	}, nil
}

// DecompressInto decodes the base into dst and scatters the exception
// values over it.
func (Patch) DecompressInto(f *core.Form, dst []int64, s *core.Scratch) error {
	if err := checkPatch(f); err != nil {
		return err
	}
	if err := core.DecompressChildInto(f, "base", dst, s); err != nil {
		return err
	}
	positions, err := core.ChildScratch(f, "positions", s)
	if err != nil {
		return err
	}
	defer s.PutI64(positions)
	values, err := core.ChildScratch(f, "values", s)
	if err != nil {
		return err
	}
	defer s.PutI64(values)
	if _, err := vec.ScatterInto(dst, values, positions); err != nil {
		return fmt.Errorf("patch: %w", err)
	}
	return nil
}

// Plan implements core.Planner. Scatter in the plan vocabulary
// produces a fresh zero column, so patching is expressed as
//
//	base + Scatter(values − Gather(base, positions), positions, n)
//
// — the patch deltas scattered over zeros and added back, using only
// the paper's primitive operators.
func (Patch) Plan(f *core.Form) (*exec.Plan, error) {
	if err := checkPatch(f); err != nil {
		return nil, err
	}
	b := exec.NewBuilder()
	base := b.Input("base")
	positions := b.Input("positions")
	values := b.Input("values")
	n := b.Len(base)
	atPos := b.Gather(base, positions)
	deltas := b.Elementwise(vec.Sub, values, atPos)
	sparse := b.Scatter(deltas, positions, n)
	b.Elementwise(vec.Add, base, sparse)
	return b.Build()
}

// ValidateForm implements core.Validator.
func (Patch) ValidateForm(f *core.Form) error { return checkPatch(f) }

// DecompressCostPerElement implements core.Coster: base cost is
// counted on the child; the patch pass itself is cheap and sparse.
func (Patch) DecompressCostPerElement(*core.Form) float64 { return 0.3 }

func checkPatch(f *core.Form) error {
	if f.Scheme != PatchName {
		return fmt.Errorf("%w: patch scheme given form %q", core.ErrCorruptForm, f.Scheme)
	}
	base, err := f.Child("base")
	if err != nil {
		return err
	}
	if base.N != f.N {
		return fmt.Errorf("%w: patch base declares %d values, form declares %d",
			core.ErrCorruptForm, base.N, f.N)
	}
	p, err := f.Child("positions")
	if err != nil {
		return err
	}
	v, err := f.Child("values")
	if err != nil {
		return err
	}
	if p.N != v.N {
		return fmt.Errorf("%w: patch positions (%d) and values (%d) differ in length",
			core.ErrCorruptForm, p.N, v.N)
	}
	// Every consumer — the scatter of decode, the exception fix-ups of
	// the pushed-down verbs, PointLookup's binary search — relies on
	// the positions being a strictly increasing list inside the base,
	// so it is checked where they all check: O(exceptions), in place
	// for the ID child every encoder emits.
	positions := p.Leaf
	if p.Scheme != IDName {
		if positions, err = core.Decompress(p); err != nil {
			return err
		}
	}
	if len(positions) != p.N {
		return fmt.Errorf("%w: patch positions child declares %d values, holds %d",
			core.ErrCorruptForm, p.N, len(positions))
	}
	return checkPatchPositions(positions, f.N)
}

// checkPatchPositions reports positions that are not strictly
// increasing inside [0, n).
func checkPatchPositions(positions []int64, n int) error {
	prev := int64(-1)
	for i, p := range positions {
		if p < 0 || p >= int64(n) {
			return fmt.Errorf("%w: patch position %d out of range [0,%d)", core.ErrCorruptForm, p, n)
		}
		if p <= prev {
			return fmt.Errorf("%w: patch positions not strictly increasing at index %d", core.ErrCorruptForm, i)
		}
		prev = p
	}
	return nil
}
