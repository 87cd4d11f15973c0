package scheme

import (
	"fmt"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
)

// VarintName is the registry name of the varint scheme.
const VarintName = "varint"

// Varint encodes each element as a LEB128 varint — the byte-granular
// realization of the paper's variable-width extension (§II-B's bit
// metric, rounded up to 7-bit groups). Non-negative columns skip the
// zigzag step.
//
// Form layout: Params{"unsigned"}; Bytes holds the varint stream.
type Varint struct{}

// Name implements core.Scheme.
func (Varint) Name() string { return VarintName }

// Compress varint-encodes src.
func (Varint) Compress(src []int64) (*core.Form, error) {
	unsigned := int64(1)
	for _, v := range src {
		if v < 0 {
			unsigned = 0
			break
		}
	}
	var payload []byte
	if unsigned == 1 {
		p, err := bitpack.VarintEncodeUnsigned(src)
		if err != nil {
			return nil, fmt.Errorf("varint: %w", err)
		}
		payload = p
	} else {
		payload = bitpack.VarintEncode(src)
	}
	return &core.Form{
		Scheme: VarintName,
		N:      len(src),
		Params: core.Params{"unsigned": unsigned},
		Bytes:  payload,
	}, nil
}

// DecompressInto decodes the varint stream into dst.
func (Varint) DecompressInto(f *core.Form, dst []int64, _ *core.Scratch) error {
	if err := checkVarint(f); err != nil {
		return err
	}
	decode := bitpack.VarintDecode
	if f.Params["unsigned"] == 1 {
		decode = bitpack.VarintDecodeUnsigned
	}
	if err := decode(dst, f.Bytes); err != nil {
		return fmt.Errorf("varint: %w", err)
	}
	return nil
}

// ValidateForm implements core.Validator.
func (Varint) ValidateForm(f *core.Form) error { return checkVarint(f) }

// EstimateSize implements core.SizeEstimator, exactly: a LEB128
// varint of a value of unsigned width w costs max(1, ⌈w/7⌉) bytes,
// so the byte total follows from the width histogram (shifted out of
// the zigzag domain when the column is non-negative, matching the
// compressor's unsigned mode).
func (Varint) EstimateSize(st *core.BlockStats) (uint64, core.Bound) {
	if !st.HasMinMax || !st.HasValueHist {
		return 0, core.Heuristic
	}
	hist := st.ValueHist
	if st.Min >= 0 {
		hist = hist.RawFromZigzag()
	}
	var total uint64
	for w := 0; w <= 64; w++ {
		c := hist.Counts[w]
		if c == 0 {
			continue
		}
		b := uint64((w + 6) / 7)
		if b == 0 {
			b = 1
		}
		total += uint64(c) * b
	}
	return core.FormOverheadBits(1) + total*8, core.Exact
}

func checkVarint(f *core.Form) error {
	if f.Scheme != VarintName {
		return fmt.Errorf("%w: varint scheme given form %q", core.ErrCorruptForm, f.Scheme)
	}
	u, err := f.Params.Get(VarintName, "unsigned")
	if err != nil {
		return err
	}
	if u != 0 && u != 1 {
		return fmt.Errorf("%w: varint unsigned flag %d", core.ErrCorruptForm, u)
	}
	// A varint is at least one byte, so the payload bounds the length
	// a form may declare — before anything is sized from it.
	if f.N > len(f.Bytes) {
		return fmt.Errorf("%w: varint form declares %d values in a %d-byte payload", core.ErrCorruptForm, f.N, len(f.Bytes))
	}
	if len(f.Children) != 0 {
		return fmt.Errorf("%w: varint form has children", core.ErrCorruptForm)
	}
	return nil
}

// EliasName is the registry name of the Elias-coded scheme.
const EliasName = "elias"

// Elias encodes each element with an Elias delta code after zigzag —
// the bit-granular realization of the paper's bit metric
// d(x,y) = ⌈log2|x−y|+1⌉: each element costs roughly its own width
// plus a logarithmic delimiter.
//
// Form layout: no params; Packed holds the bit stream.
type Elias struct{}

// Name implements core.Scheme.
func (Elias) Name() string { return EliasName }

// Compress Elias-delta-encodes the zigzagged elements.
func (Elias) Compress(src []int64) (*core.Form, error) {
	zz := make([]int64, len(src))
	for i, v := range src {
		zz[i] = int64(bitpack.Zigzag(v))
		if zz[i] < 0 {
			return nil, fmt.Errorf("%w: elias cannot encode |value| ≥ 2^62 at position %d", core.ErrNotRepresentable, i)
		}
	}
	words, err := bitpack.EliasDeltaEncode(zz)
	if err != nil {
		return nil, fmt.Errorf("elias: %w", err)
	}
	return &core.Form{Scheme: EliasName, N: len(src), Packed: words}, nil
}

// DecompressInto decodes the Elias stream into dst and undoes the
// zigzag in place.
func (Elias) DecompressInto(f *core.Form, dst []int64, _ *core.Scratch) error {
	if err := checkElias(f); err != nil {
		return err
	}
	if err := bitpack.EliasDeltaDecode(dst, f.Packed); err != nil {
		return fmt.Errorf("elias: %w", err)
	}
	for i, v := range dst {
		dst[i] = bitpack.Unzigzag(uint64(v))
	}
	return nil
}

// ValidateForm implements core.Validator.
func (Elias) ValidateForm(f *core.Form) error { return checkElias(f) }

// EstimateSize implements core.SizeEstimator, as a lower bound: an
// Elias delta code of a value of width w costs w + 2⌊log₂w⌋ bits,
// which never falls as w grows, and the histogram holds the widths of
// the zigzagged values while the encoder codes each value plus one —
// the +1 can only keep a value in its width class or move it up one,
// so pricing every value at its histogram class never overshoots.
func (Elias) EstimateSize(st *core.BlockStats) (uint64, core.Bound) {
	if !st.HasValueHist {
		return 0, core.Heuristic
	}
	var total uint64
	for w := 0; w <= 64; w++ {
		c := st.ValueHist.Counts[w]
		if c == 0 {
			continue
		}
		l := uint64(w)
		if l < 1 {
			l = 1
		}
		ll := uint64(bitpack.Width(l))
		total += uint64(c) * (l + 2*ll - 2)
	}
	words := (total + 63) / 64
	return core.FormOverheadBits(0) + words*64, core.LowerBound
}

func checkElias(f *core.Form) error {
	if f.Scheme != EliasName {
		return fmt.Errorf("%w: elias scheme given form %q", core.ErrCorruptForm, f.Scheme)
	}
	// An Elias delta code is at least one bit, so the payload bounds
	// the length a form may declare — before anything is sized from it.
	if f.N > 64*len(f.Packed) {
		return fmt.Errorf("%w: elias form declares %d values in a %d-word payload", core.ErrCorruptForm, f.N, len(f.Packed))
	}
	return nil
}
