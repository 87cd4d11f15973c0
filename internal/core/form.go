package core

import (
	"fmt"
	"sort"
)

// Params carries a Form's scalar parameters (segment lengths, bit
// widths, flags), keyed by short lowercase names.
type Params map[string]int64

// Get returns the named parameter or an error naming the scheme for
// diagnosis.
func (p Params) Get(scheme, key string) (int64, error) {
	v, ok := p[key]
	if !ok {
		return 0, fmt.Errorf("core: scheme %q: missing parameter %q", scheme, key)
	}
	return v, nil
}

// Clone returns a copy of p (nil stays nil).
func (p Params) Clone() Params {
	if p == nil {
		return nil
	}
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Keys returns the parameter names in sorted order (for deterministic
// serialization and printing).
func (p Params) Keys() []string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Form is a compressed column: a tree of schemes over pure constituent
// columns.
//
// Exactly one of the payload arms is used depending on the scheme:
// ID carries Leaf; NS and other word-packed codecs carry Packed;
// byte-granular codecs carry Bytes; every other scheme carries only
// Children.
type Form struct {
	// Scheme is the registered name of the scheme that produced this
	// form and that can decompress it.
	Scheme string
	// N is the logical (decompressed) length of the column this form
	// represents.
	N int
	// Params holds the scheme's scalar parameters.
	Params Params
	// Children maps constituent column names (the paper's "pure
	// columns") to their own forms.
	Children map[string]*Form
	// Leaf is the raw payload of the ID scheme.
	Leaf []int64
	// Packed is the word-aligned physical payload of bit-packing
	// codecs.
	Packed []uint64
	// Bytes is the byte-granular physical payload of varint-style
	// codecs.
	Bytes []byte
}

// Child returns the named constituent form or an error identifying
// the scheme and name.
func (f *Form) Child(name string) (*Form, error) {
	c, ok := f.Children[name]
	if !ok || c == nil {
		return nil, fmt.Errorf("core: scheme %q: missing constituent column %q", f.Scheme, name)
	}
	return c, nil
}

// ChildNames returns the constituent column names in sorted order.
func (f *Form) ChildNames() []string {
	names := make([]string, 0, len(f.Children))
	for k := range f.Children {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// formHeaderBits approximates the fixed serialization overhead of one
// form node (scheme tag, lengths, child count); it matches the order
// of magnitude of the storage package's actual headers so that the
// cost model and the on-disk sizes agree on rankings.
const formHeaderBits = 24 * 8

// perParamBits approximates the serialized size of one parameter.
const perParamBits = 10 * 8

// PayloadBits returns the total physical size, in bits, of the form
// tree: leaf payloads plus per-node header and parameter overheads.
// This is the size the compression-ratio experiments report (the
// storage package's exact encoding adds only framing and checksums).
func (f *Form) PayloadBits() uint64 {
	var total uint64 = formHeaderBits
	total += uint64(len(f.Params)) * perParamBits
	total += uint64(len(f.Leaf)) * 64
	total += uint64(len(f.Packed)) * 64
	total += uint64(len(f.Bytes)) * 8
	for _, c := range f.Children {
		total += c.PayloadBits()
	}
	return total
}

// PayloadBytes returns PayloadBits rounded up to whole bytes.
func (f *Form) PayloadBytes() uint64 { return (f.PayloadBits() + 7) / 8 }

// UncompressedBytes returns the size of the logical column this form
// represents, stored raw at 8 bytes per value.
func (f *Form) UncompressedBytes() uint64 { return uint64(f.N) * 8 }

// CompressionRatio returns uncompressed size over compressed size
// (higher is better); 0 for an empty column.
func (f *Form) CompressionRatio() float64 {
	pb := f.PayloadBytes()
	if pb == 0 {
		return 0
	}
	return float64(f.UncompressedBytes()) / float64(pb)
}

// Describe renders the scheme structure of the form tree, e.g.
// "rle(lengths=ns, values=delta(deltas=ns))".
func (f *Form) Describe() string {
	if len(f.Children) == 0 {
		return f.Scheme
	}
	out := f.Scheme + "("
	for i, name := range f.ChildNames() {
		if i > 0 {
			out += ", "
		}
		out += name + "=" + f.Children[name].Describe()
	}
	return out + ")"
}

// Walk visits the form and all descendants in depth-first order,
// stopping at the first error.
func (f *Form) Walk(visit func(*Form) error) error {
	if err := visit(f); err != nil {
		return err
	}
	for _, name := range f.ChildNames() {
		if err := f.Children[name].Walk(visit); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy of the form tree. Payload slices are
// copied so mutating the clone never aliases the original.
func (f *Form) Clone() *Form {
	if f == nil {
		return nil
	}
	out := &Form{
		Scheme: f.Scheme,
		N:      f.N,
		Params: f.Params.Clone(),
	}
	if f.Leaf != nil {
		out.Leaf = append([]int64{}, f.Leaf...)
	}
	if f.Packed != nil {
		out.Packed = append([]uint64{}, f.Packed...)
	}
	if f.Bytes != nil {
		out.Bytes = append([]byte{}, f.Bytes...)
	}
	if f.Children != nil {
		out.Children = make(map[string]*Form, len(f.Children))
		for k, v := range f.Children {
			out.Children[k] = v.Clone()
		}
	}
	return out
}

// Validate checks the form tree structurally: every node names a
// registered scheme, child lengths are consistent where the scheme
// declares them, and payload arms are not mixed.
func (f *Form) Validate() error {
	return f.Walk(func(node *Form) error {
		if node.Scheme == "" {
			return fmt.Errorf("%w: form with empty scheme name", ErrCorruptForm)
		}
		if node.N < 0 {
			return fmt.Errorf("%w: form %q has negative length %d", ErrCorruptForm, node.Scheme, node.N)
		}
		arms := 0
		if node.Leaf != nil {
			arms++
		}
		if node.Packed != nil {
			arms++
		}
		if node.Bytes != nil {
			arms++
		}
		if arms > 1 {
			return fmt.Errorf("%w: form %q mixes payload arms", ErrCorruptForm, node.Scheme)
		}
		s, ok := Lookup(node.Scheme)
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownScheme, node.Scheme)
		}
		if v, ok := s.(Validator); ok {
			if err := v.ValidateForm(node); err != nil {
				return err
			}
		}
		return nil
	})
}
