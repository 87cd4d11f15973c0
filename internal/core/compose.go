package core

import (
	"sort"
)

// Composite is the paper's composition operator "∘": compress with an
// outer scheme, then compress named constituent columns of the result
// with further (possibly themselves composite) schemes. The §I
// example — "applying an RLE scheme to the dates, then applying DELTA
// to the run values" — is Compose(RLE, map{"values": DELTA}).
//
// Composition is purely structural: the resulting Form tree needs no
// registration of its own, because decompression dispatches on each
// node's scheme name independently.
type Composite struct {
	outer Scheme
	inner map[string]Scheme
}

// Compose builds the composite scheme outer ∘ inner. Keys of inner
// name constituent columns of outer's forms; an unknown key surfaces
// at Compress time so that misconfigured pipelines fail loudly.
func Compose(outer Scheme, inner map[string]Scheme) *Composite {
	cp := make(map[string]Scheme, len(inner))
	for k, v := range inner {
		cp[k] = v
	}
	return &Composite{outer: outer, inner: cp}
}

// Name renders the composition, e.g. "rle(values=delta(deltas=ns))".
// Composite names are descriptive and are not registry keys.
func (c *Composite) Name() string {
	keys := make([]string, 0, len(c.inner))
	for k := range c.inner {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := c.outer.Name() + "("
	for i, k := range keys {
		if i > 0 {
			out += ", "
		}
		out += k + "=" + c.inner[k].Name()
	}
	return out + ")"
}

// Parts returns the outer scheme and the inner schemes keyed by the
// constituent they compress. The map is the composite's own; callers
// must not modify it.
func (c *Composite) Parts() (outer Scheme, inner map[string]Scheme) { return c.outer, c.inner }

// Compress is CompressScratch with an arena from the pool.
func (c *Composite) Compress(src []int64) (*Form, error) { return CompressPooled(c, src) }

// DecompressInto delegates to the registry-driven driver; composite
// forms decompress like any other because composition is structural.
func (c *Composite) DecompressInto(f *Form, dst []int64, s *Scratch) error {
	return DecompressInto(f, dst, s)
}

// Compile-time check: a Composite is itself a Scheme, so compositions
// nest arbitrarily deep.
var _ Scheme = (*Composite)(nil)
