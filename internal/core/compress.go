package core

import "fmt"

// The compress contract: a scheme states its split once, as
// CompressParts, and hands each constituent column it produces to an
// emit callback, which decides what the column becomes — a Composite
// compresses it with the inner scheme named for it, straight out of the
// buffer the outer produced it in; a bare Compress (LeafEmit) retains
// it as an ID leaf. Temporaries come from a Scratch, so a steady-state
// block encode allocates only what the resulting form retains (nodes
// and payloads). Scheme.Compress is the same body with an arena taken
// from the pool for the call.

// LeafSchemeName is the registered name of the identity scheme —
// the raw pure-column leaf every decomposable scheme emits for its
// constituents. Declared here so the composition machinery can
// recognize ID leaves without importing the scheme package.
const LeafSchemeName = "id"

// ConstituentCompressor is the compress contract: the scheme's one
// compressor, handing each constituent column to the caller as a
// short-lived slice instead of wrapping it in a retained ID form. A
// terminal codec (NS) is one that emits nothing.
type ConstituentCompressor interface {
	// CompressParts encodes src, borrowing temporaries from s (which
	// may be nil); for each constituent column it calls emit(name, col)
	// and installs the returned form as that child. col may be
	// scratch-borrowed: it is valid only for the duration of the emit
	// call.
	CompressParts(src []int64, s *Scratch, emit func(name string, col []int64) (*Form, error)) (*Form, error)
}

// CompressScratch encodes src under sch, handing s to a scheme that
// compresses through the contract and retaining every constituent it
// emits as an ID leaf; a scheme outside the contract is plain
// Compress.
func CompressScratch(sch Scheme, src []int64, s *Scratch) (*Form, error) {
	return compressParts(sch, src, s, LeafEmit)
}

// compressParts runs sch's CompressParts, or its Compress — which
// emits nothing — for a scheme outside the contract.
func compressParts(sch Scheme, src []int64, s *Scratch, emit func(string, []int64) (*Form, error)) (*Form, error) {
	if cc, ok := sch.(ConstituentCompressor); ok {
		return cc.CompressParts(src, s, emit)
	}
	return sch.Compress(src)
}

// CompressPooled is CompressScratch over an arena taken from the pool
// for the call — the whole of Scheme.Compress for a scheme whose one
// compressor is its CompressParts. (A scheme without one must not
// define Compress through it: CompressScratch would call straight
// back.)
func CompressPooled(sch Scheme, src []int64) (*Form, error) {
	s := GetScratch()
	defer s.Release()
	return CompressScratch(sch, src, s)
}

// NewLeafForm builds the canonical ID form over a copy of col — what
// a constituent column becomes when nothing compresses it further.
func NewLeafForm(col []int64) *Form {
	leaf := make([]int64, len(col))
	copy(leaf, col)
	return &Form{Scheme: LeafSchemeName, N: len(col), Leaf: leaf}
}

// LeafEmit is the CompressParts emit of a bare, uncomposed scheme:
// every constituent column is retained as an ID leaf.
func LeafEmit(_ string, col []int64) (*Form, error) { return NewLeafForm(col), nil }

// CompressParts implements ConstituentCompressor for compositions:
// each constituent column the outer emits is compressed by the inner
// scheme named for it, directly from the buffer the outer produced it
// in, and the ones no inner names are handed on to emit — so a
// composite nests as an outer, and a bare one (LeafEmit) keeps them as
// ID leaves.
func (c *Composite) CompressParts(src []int64, s *Scratch, emit func(name string, col []int64) (*Form, error)) (*Form, error) {
	r := s.router(c, emit)
	defer s.putRouter(r)
	f, err := compressParts(c.outer, src, s, r.emit)
	if err != nil {
		return nil, err
	}
	if r.seen != len(c.inner) {
		// Some configured inner never matched an emitted constituent:
		// fail loudly instead of leaving it silently unapplied.
		for name := range c.inner {
			if _, err := f.Child(name); err != nil {
				return nil, fmt.Errorf("composite %q: %w", c.Name(), err)
			}
		}
		return nil, fmt.Errorf("composite %q: %s hands out no column for %d of its inner schemes",
			c.Name(), c.outer.Name(), len(c.inner)-r.seen)
	}
	return f, nil
}

// router is the emit of one Composite.CompressParts call. A Scratch
// keeps routers with their emit bound once, so a steady-state
// composite encode allocates no closure.
type router struct {
	c    *Composite
	s    *Scratch
	next func(string, []int64) (*Form, error)
	seen int                                  // columns compressed by an inner scheme
	emit func(string, []int64) (*Form, error) // r.route
}

// route compresses a column c's inner map names with that inner scheme
// and hands any other on to next.
func (r *router) route(name string, col []int64) (*Form, error) {
	inner, composed := r.c.inner[name]
	if !composed {
		return r.next(name, col)
	}
	r.seen++
	cf, err := CompressScratch(inner, col, r.s)
	if err != nil {
		return nil, fmt.Errorf("composite %q: inner %q on child %q: %w", r.c.Name(), inner.Name(), name, err)
	}
	return cf, nil
}

// router borrows a router for one CompressParts call of c; return it
// with putRouter.
func (s *Scratch) router(c *Composite, next func(string, []int64) (*Form, error)) *router {
	var r *router
	if s != nil && len(s.routers) > 0 {
		r = s.routers[len(s.routers)-1]
		s.routers = s.routers[:len(s.routers)-1]
	} else {
		r = new(router)
		r.emit = r.route
	}
	r.c, r.s, r.next, r.seen = c, s, next, 0
	return r
}

// putRouter returns a router borrowed with router.
func (s *Scratch) putRouter(r *router) {
	if s != nil {
		r.c, r.s, r.next = nil, nil, nil
		s.routers = append(s.routers, r)
	}
}
