package scheme

import (
	"fmt"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
)

// NSName is the registry name of the null-suppression scheme.
const NSName = "ns"

// NS is null suppression: "discarding redundant bits" (§I). Values
// are bit-packed at the width of the widest value; columns containing
// negatives are zigzag-mapped first.
//
// NS is the terminal physical codec of most compositions — in the
// paper's FOR decomposition, the offsets are "nothing but a narrow
// column, which relative to the original column's width we compress
// with NS".
//
// Form layout: Params{"width", "zigzag"}; Packed holds the bit-packed
// words.
type NS struct{}

// Name implements core.Scheme.
func (NS) Name() string { return NSName }

// Compress bit-packs src at its minimal width.
func (sch NS) Compress(src []int64) (*core.Form, error) { return core.CompressPooled(sch, src) }

// CompressParts implements core.ConstituentCompressor for the terminal
// codec, which emits nothing: one pass over src finds the zigzag flag
// and width, and the packing stages 64 values at a time in a
// scratch-borrowed block, so only the packed payload is allocated.
func (NS) CompressParts(src []int64, s *core.Scratch, _ func(string, []int64) (*core.Form, error)) (*core.Form, error) {
	w, zigzag := bitpack.SignedShape(src)
	packed := make([]uint64, bitpack.PackedWords(len(src), w))
	stage := s.U64(bitpack.BlockLen)
	bitpack.PackSigned(packed, src, w, zigzag, stage)
	s.PutU64(stage)
	zig := int64(0)
	if zigzag {
		zig = 1
	}
	return &core.Form{
		Scheme: NSName,
		N:      len(src),
		Params: core.Params{"width": int64(w), "zigzag": zig},
		Packed: packed,
	}, nil
}

// DecompressInto unpacks into a scratch word buffer, then widens
// into dst.
func (NS) DecompressInto(f *core.Form, dst []int64, s *core.Scratch) error {
	if err := checkNS(f); err != nil {
		return err
	}
	u := s.U64(f.N)
	defer s.PutU64(u)
	if err := bitpack.UnpackInto(u, f.Packed, uint(f.Params["width"])); err != nil {
		return fmt.Errorf("ns: %w", err)
	}
	if f.Params["zigzag"] == 1 {
		bitpack.UnzigzagInto(dst, u)
	} else {
		bitpack.SignedInto(dst, u)
	}
	return nil
}

// ValidateForm implements core.Validator.
func (NS) ValidateForm(f *core.Form) error { return checkNS(f) }

// EstimateSize implements core.SizeEstimator, exactly: the zigzag
// decision and the packed width both follow from Min/Max alone, so
// the estimate equals the compressed form's PayloadBits.
func (NS) EstimateSize(st *core.BlockStats) (uint64, core.Bound) {
	if !st.HasMinMax {
		return 0, core.Heuristic
	}
	w, _ := st.NSShape()
	return nsFormBits(st.N, w), core.Exact
}

func checkNS(f *core.Form) error {
	if f.Scheme != NSName {
		return fmt.Errorf("%w: ns scheme given form %q", core.ErrCorruptForm, f.Scheme)
	}
	w, err := f.Params.Get(NSName, "width")
	if err != nil {
		return err
	}
	if w < 0 || w > 64 {
		return fmt.Errorf("%w: ns width %d", core.ErrCorruptForm, w)
	}
	zz, err := f.Params.Get(NSName, "zigzag")
	if err != nil {
		return err
	}
	if zz != 0 && zz != 1 {
		return fmt.Errorf("%w: ns zigzag flag %d", core.ErrCorruptForm, zz)
	}
	if need := bitpack.PackedWords(f.N, uint(w)); len(f.Packed) < need {
		return fmt.Errorf("%w: ns payload %d words, need %d", core.ErrCorruptForm, len(f.Packed), need)
	}
	if len(f.Children) != 0 {
		return fmt.Errorf("%w: ns form has children", core.ErrCorruptForm)
	}
	return nil
}
