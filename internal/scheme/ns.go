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

// unsignedScratch fills a scratch-borrowed word buffer with src in
// NS's packing domain (zigzag when negatives are present), returning
// the buffer and the zigzag flag. The caller returns the buffer.
func unsignedScratch(src []int64, s *core.Scratch) ([]uint64, int64) {
	zig := int64(0)
	for _, v := range src {
		if v < 0 {
			zig = 1
			break
		}
	}
	u := s.U64(len(src))
	if zig == 1 {
		for i, v := range src {
			u[i] = bitpack.Zigzag(v)
		}
	} else {
		for i, v := range src {
			u[i] = uint64(v)
		}
	}
	return u, zig
}

// CompressParts implements core.ConstituentCompressor for the terminal
// codec, which emits nothing: the zigzag staging buffer is borrowed;
// only the packed payload is allocated.
func (NS) CompressParts(src []int64, s *core.Scratch, _ func(string, []int64) (*core.Form, error)) (*core.Form, error) {
	u, zig := unsignedScratch(src, s)
	defer s.PutU64(u)
	w := bitpack.MaxWidth(u)
	packed, err := bitpack.Pack(u, w)
	if err != nil {
		return nil, fmt.Errorf("ns: %w", err)
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

// DecompressCostPerElement implements core.Coster: shift/mask work
// per element, slightly above a copy.
func (NS) DecompressCostPerElement(*core.Form) float64 { return 1.5 }

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
