package core

import "fmt"

// The compress contract: a scheme states its split once, and a
// steady-state block encode should allocate only what the resulting
// form retains (nodes and payloads), never its temporaries. A scheme
// with temporaries takes them from a Scratch (ScratchCompressor); a
// decomposable scheme hands its constituent columns out
// (ConstituentCompressor), so a Composite compresses them straight
// out of the buffers they were produced in and a bare Compress wraps
// them in ID leaves. Scheme.Compress is the same body with an arena
// taken from the pool for the call.

// LeafSchemeName is the registered name of the identity scheme —
// the raw pure-column leaf every decomposable scheme emits for its
// constituents. Declared here so the composition machinery can
// recognize ID leaves without importing the scheme package.
const LeafSchemeName = "id"

// ScratchCompressor is implemented by schemes whose compressor has
// temporaries worth pooling: it draws them from a Scratch arena, so
// steady-state block encode allocates only the retained form.
type ScratchCompressor interface {
	// CompressScratch encodes src into a form, borrowing temporaries
	// from s (which may be nil).
	CompressScratch(src []int64, s *Scratch) (*Form, error)
}

// ConstituentCompressor is implemented by decomposable schemes whose
// compressor can hand each constituent column to the caller as a
// short-lived slice instead of wrapping it in a retained ID form.
type ConstituentCompressor interface {
	// CompressParts encodes src; for each constituent column it calls
	// emit(name, col) and installs the returned form as that child.
	// col may be scratch-borrowed: it is valid only for the duration
	// of the emit call.
	CompressParts(src []int64, s *Scratch, emit func(name string, col []int64) (*Form, error)) (*Form, error)
}

// CompressScratch encodes src under sch, handing s to a scheme that
// takes its temporaries from an arena — under either contract; for
// the rest it is plain Compress.
func CompressScratch(sch Scheme, src []int64, s *Scratch) (*Form, error) {
	switch sc := sch.(type) {
	case ScratchCompressor:
		return sc.CompressScratch(src, s)
	case ConstituentCompressor:
		return sc.CompressParts(src, s, LeafEmit)
	}
	return sch.Compress(src)
}

// CompressPooled is CompressScratch over an arena taken from the pool
// for the call — the whole of Scheme.Compress for a scheme whose one
// compressor is its CompressScratch or CompressParts. (A scheme with
// neither must not define Compress through it: CompressScratch would
// call straight back.)
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

// CompressScratch implements ScratchCompressor for compositions. An
// outer scheme that can hand out its parts (ConstituentCompressor)
// has each constituent column compressed directly from the buffer the
// outer produced it in; one that cannot takes the
// compress-then-rewrite route.
func (c *Composite) CompressScratch(src []int64, s *Scratch) (*Form, error) {
	cc, ok := c.outer.(ConstituentCompressor)
	if !ok {
		return c.compressRewrite(src, s)
	}
	seen := 0
	f, err := cc.CompressParts(src, s, func(name string, col []int64) (*Form, error) {
		inner, composed := c.inner[name]
		if !composed {
			return NewLeafForm(col), nil
		}
		seen++
		cf, err := CompressScratch(inner, col, s)
		if err != nil {
			return nil, fmt.Errorf("composite %q: inner %q on child %q: %w", c.Name(), inner.Name(), name, err)
		}
		return cf, nil
	})
	if err != nil {
		return nil, err
	}
	if seen != len(c.inner) {
		// Some configured inner never matched an emitted constituent:
		// surface the same loud failure compressRewrite gives for
		// unknown child keys.
		for name := range c.inner {
			if _, err := f.Child(name); err != nil {
				return nil, fmt.Errorf("composite %q: %w", c.Name(), err)
			}
		}
	}
	return f, nil
}

// compressRewrite composes over an outer scheme that cannot hand out
// its parts: compress with the outer, then replace each named child
// with its inner compression. Pure columns are read straight from ID
// leaves when the outer emitted them that way, avoiding a decompress
// copy.
func (c *Composite) compressRewrite(src []int64, s *Scratch) (*Form, error) {
	f, err := CompressScratch(c.outer, src, s)
	if err != nil {
		return nil, fmt.Errorf("composite outer %q: %w", c.outer.Name(), err)
	}
	for name, inner := range c.inner {
		child, err := f.Child(name)
		if err != nil {
			return nil, fmt.Errorf("composite %q: %w", c.Name(), err)
		}
		var pure []int64
		if child.Scheme == LeafSchemeName && len(child.Leaf) == child.N {
			pure = child.Leaf
		} else {
			pure, err = Decompress(child)
			if err != nil {
				return nil, fmt.Errorf("composite %q: resolving child %q: %w", c.Name(), name, err)
			}
		}
		cf, err := CompressScratch(inner, pure, s)
		if err != nil {
			return nil, fmt.Errorf("composite %q: inner %q on child %q: %w", c.Name(), inner.Name(), name, err)
		}
		f.Children[name] = cf
	}
	return f, nil
}
