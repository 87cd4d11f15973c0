package scheme

import (
	"fmt"

	"lwcomp/internal/core"
	"lwcomp/internal/vec"
)

// This file implements the paper's decomposition identities as form
// rewrites. Rewrites are structural: they rearrange the Form tree and
// share (not copy) child payloads, so both identities are zero-cost —
// which is itself part of the paper's point: the decomposed forms
// were "inside" the original scheme all along.

// DecomposeRLE rewrites an RLE form into the paper's §II-A identity
//
//	RLE ≡ (ID for values, DELTA for run_positions) ∘ RPE
//
// The resulting form is an RPE form whose positions child is a DELTA
// form whose deltas are exactly the RLE lengths: integrating run
// lengths gives run positions, so the identity holds with no payload
// changes at all.
func DecomposeRLE(f *core.Form) (*core.Form, error) {
	if f.Scheme != RLEName {
		return nil, fmt.Errorf("%w: DecomposeRLE on form %q", core.ErrCorruptForm, f.Scheme)
	}
	if err := checkRLE(f); err != nil {
		return nil, err
	}
	lengths, err := f.Child("lengths")
	if err != nil {
		return nil, err
	}
	values, err := f.Child("values")
	if err != nil {
		return nil, err
	}
	positions := &core.Form{
		Scheme:   DeltaName,
		N:        lengths.N,
		Children: map[string]*core.Form{"deltas": lengths},
	}
	return &core.Form{
		Scheme: RPEName,
		N:      f.N,
		Children: map[string]*core.Form{
			"positions": positions,
			"values":    values,
		},
	}, nil
}

// RecomposeRLE inverts DecomposeRLE: an RPE form whose positions are
// DELTA-compressed from a first value of 0 recomposes structurally
// (the deltas are the lengths); any other RPE form — delta positions
// that start elsewhere among them — recomposes numerically by
// differentiating the positions.
func RecomposeRLE(f *core.Form) (*core.Form, error) {
	if f.Scheme != RPEName {
		return nil, fmt.Errorf("%w: RecomposeRLE on form %q", core.ErrCorruptForm, f.Scheme)
	}
	if err := checkRPE(f); err != nil {
		return nil, err
	}
	positions, err := f.Child("positions")
	if err != nil {
		return nil, err
	}
	values, err := f.Child("values")
	if err != nil {
		return nil, err
	}
	var lengths *core.Form
	if positions.Scheme == DeltaName && DeltaFirst(positions) == 0 {
		lengths, err = positions.Child("deltas")
		if err != nil {
			return nil, err
		}
	} else {
		pure, err := core.Decompress(positions)
		if err != nil {
			return nil, err
		}
		lengths = NewIDForm(vec.Delta(pure))
	}
	return &core.Form{
		Scheme: RLEName,
		N:      f.N,
		Children: map[string]*core.Form{
			"lengths": lengths,
			"values":  values,
		},
	}, nil
}

// PartialDecompressRLE realizes the paper's observation that RPE *is*
// partially-decompressed RLE: it materializes run positions by
// integrating the lengths ("applying Algorithm 1, sans its first
// operation" leaves a form whose positions are already integrated).
// Unlike DecomposeRLE, the result stores positions as a pure column —
// larger, but decompressible without the prefix sum.
func PartialDecompressRLE(f *core.Form) (*core.Form, error) {
	if f.Scheme != RLEName {
		return nil, fmt.Errorf("%w: PartialDecompressRLE on form %q", core.ErrCorruptForm, f.Scheme)
	}
	if err := checkRLE(f); err != nil {
		return nil, err
	}
	lengths, err := core.DecompressChild(f, "lengths")
	if err != nil {
		return nil, err
	}
	values, err := f.Child("values")
	if err != nil {
		return nil, err
	}
	return &core.Form{
		Scheme: RPEName,
		N:      f.N,
		Children: map[string]*core.Form{
			"positions": NewIDForm(vec.PrefixSumInclusive(lengths)),
			"values":    values,
		},
	}, nil
}

// DecomposeFOR rewrites a FOR form into the paper's §II-B identity
//
//	FOR ≡ (STEPFUNCTION + NS)
//
// The result is a PLUS form whose model child is a STEP form over the
// same refs and whose residual child is the offsets child unchanged.
func DecomposeFOR(f *core.Form) (*core.Form, error) {
	if f.Scheme != FORName {
		return nil, fmt.Errorf("%w: DecomposeFOR on form %q", core.ErrCorruptForm, f.Scheme)
	}
	if err := checkFOR(f); err != nil {
		return nil, err
	}
	refs, err := f.Child("refs")
	if err != nil {
		return nil, err
	}
	offsets, err := f.Child("offsets")
	if err != nil {
		return nil, err
	}
	model := &core.Form{
		Scheme:   StepName,
		N:        f.N,
		Params:   core.Params{"seglen": f.Params["seglen"]},
		Children: map[string]*core.Form{"refs": refs},
	}
	return NewPlusForm(model, offsets)
}

// RecomposeFOR inverts DecomposeFOR: a PLUS form whose model is a
// STEP form recomposes into a FOR form over the same refs and
// residual-as-offsets.
func RecomposeFOR(f *core.Form) (*core.Form, error) {
	if f.Scheme != PlusName {
		return nil, fmt.Errorf("%w: RecomposeFOR on form %q", core.ErrCorruptForm, f.Scheme)
	}
	if err := checkPlus(f); err != nil {
		return nil, err
	}
	model, err := f.Child("model")
	if err != nil {
		return nil, err
	}
	if model.Scheme != StepName {
		return nil, fmt.Errorf("%w: RecomposeFOR: model child is %q, want %q",
			core.ErrCorruptForm, model.Scheme, StepName)
	}
	if err := checkStep(model); err != nil {
		return nil, err
	}
	refs, err := model.Child("refs")
	if err != nil {
		return nil, err
	}
	residual, err := f.Child("residual")
	if err != nil {
		return nil, err
	}
	return &core.Form{
		Scheme: FORName,
		N:      f.N,
		Params: core.Params{"seglen": model.Params["seglen"]},
		Children: map[string]*core.Form{
			"refs":    refs,
			"offsets": residual,
		},
	}, nil
}
