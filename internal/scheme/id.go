package scheme

import (
	"fmt"

	"lwcomp/internal/core"
)

// IDName is the registry name of the identity scheme — the paper's
// "compression scheme of not applying any compression", the unit of
// the composition algebra.
const IDName = core.LeafSchemeName

// ID is the identity scheme. Form layout: Leaf holds the raw column.
type ID struct{}

// Name implements core.Scheme.
func (ID) Name() string { return IDName }

// Compress wraps src (copied) in an ID form.
func (ID) Compress(src []int64) (*core.Form, error) {
	return NewIDForm(src), nil
}

// DecompressInto copies the leaf payload.
func (ID) DecompressInto(f *core.Form, dst []int64, _ *core.Scratch) error {
	if err := checkID(f); err != nil {
		return err
	}
	copy(dst, f.Leaf)
	return nil
}

// ValidateForm implements core.Validator.
func (ID) ValidateForm(f *core.Form) error { return checkID(f) }

// EstimateSize implements core.SizeEstimator, exactly: raw storage
// costs 64 bits per value plus the node header.
func (ID) EstimateSize(st *core.BlockStats) (uint64, core.Bound) {
	return leafBits(st.N), core.Exact
}

func checkID(f *core.Form) error {
	if f.Scheme != IDName {
		return fmt.Errorf("%w: id scheme given form %q", core.ErrCorruptForm, f.Scheme)
	}
	if len(f.Leaf) != f.N {
		return fmt.Errorf("%w: id form declares %d values, leaf holds %d", core.ErrCorruptForm, f.N, len(f.Leaf))
	}
	if len(f.Children) != 0 {
		return fmt.Errorf("%w: id form has children", core.ErrCorruptForm)
	}
	return nil
}

// NewIDForm builds the canonical ID form over a copy of src. Every
// scheme in this package emits its constituent columns as ID forms;
// the Composite combinator then substitutes deeper forms.
func NewIDForm(src []int64) *core.Form { return core.NewLeafForm(src) }
