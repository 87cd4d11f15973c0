package query

import (
	"fmt"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
)

// Interval is a closed interval certain to contain an exact query
// result.
type Interval struct {
	Lower, Upper int64
}

// Estimate returns the interval midpoint.
func (iv Interval) Estimate() int64 {
	return iv.Lower + (iv.Upper-iv.Lower)/2
}

// Width returns Upper − Lower, the residual uncertainty.
func (iv Interval) Width() int64 { return iv.Upper - iv.Lower }

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v int64) bool { return v >= iv.Lower && v <= iv.Upper }

// ApproxSum bounds the column sum using only the model part of a
// form — the paper's "approximate … query processing" over the
// "rough correspondence of the column data to a simple model". For a
// FOR form the model sum (Σ refs·|segment|) is exact and each
// element's offset lies in [0, 2^w−1], so the sum is bracketed
// without touching the offsets payload at all. Every node walked passes
// its scheme's check first, so a form decode refuses is refused here
// too instead of indexing past its refs.
func ApproxSum(f *core.Form) (Interval, error) {
	if err := check(f); err != nil {
		return Interval{}, err
	}
	switch f.Scheme {
	case scheme.ConstName:
		s := f.Params["value"] * int64(f.N)
		return Interval{s, s}, nil

	case scheme.StepName:
		refs, err := core.DecompressChild(f, "refs")
		if err != nil {
			return Interval{}, err
		}
		s := sumStep(refs, int(f.Params["seglen"]), f.N)
		return Interval{s, s}, nil

	case scheme.FORName:
		refs, err := core.DecompressChild(f, "refs")
		if err != nil {
			return Interval{}, err
		}
		base := sumStep(refs, int(f.Params["seglen"]), f.N)
		offsets, err := f.Child("offsets")
		if err != nil {
			return Interval{}, err
		}
		lo, hi, err := residualSlack(offsets)
		if err != nil {
			return Interval{}, err
		}
		return Interval{base + lo, base + hi}, nil

	case scheme.PlusName:
		model, err := f.Child("model")
		if err != nil {
			return Interval{}, err
		}
		residual, err := f.Child("residual")
		if err != nil {
			return Interval{}, err
		}
		mi, err := ApproxSum(model)
		if err != nil {
			return Interval{}, err
		}
		lo, hi, err := residualSlack(residual)
		if err != nil {
			return Interval{}, err
		}
		return Interval{mi.Lower + lo, mi.Upper + hi}, nil
	}

	// No model structure: the exact sum is its own interval.
	s, err := Sum(f)
	if err != nil {
		return Interval{}, err
	}
	return Interval{s, s}, nil
}

// sumStep sums a step function: Σ refs[s] · |segment s|.
func sumStep(refs []int64, segLen, n int) int64 {
	var acc int64
	for s := 0; s*segLen < n; s++ {
		size := segLen
		if (s+1)*segLen > n {
			size = n - s*segLen
		}
		acc += refs[s] * int64(size)
	}
	return acc
}

// residualSlack bounds the total contribution of a residual form: an
// unsigned NS or VNS payload adds between 0 and what its widths admit,
// known without reading it; any other residual (zigzag, or a form with
// no width to read) may be negative, so its exact sum is added to both
// ends.
func residualSlack(f *core.Form) (lo, hi int64, err error) {
	if err := check(f); err != nil {
		return 0, 0, err
	}
	unsigned := f.Params["zigzag"] != 1
	switch {
	case unsigned && f.Scheme == scheme.NSName:
		return 0, int64(f.N) * int64(bitpack.Mask(uint(f.Params["width"]))), nil
	case unsigned && f.Scheme == scheme.VNSName:
		widths, err := core.DecompressChild(f, "widths")
		if err != nil {
			return 0, 0, err
		}
		block := int(f.Params["block"])
		var slack int64
		for b, w := range widths {
			start := b * block
			slack += int64(min(start+block, f.N)-start) * int64(bitpack.Mask(uint(w)))
		}
		return 0, slack, nil
	}
	s, err := Sum(f)
	return s, s, err
}

// GradualSummer implements the paper's "gradual-refinement query
// processing" for FOR forms: it starts from the model-only interval
// of ApproxSum and tightens it segment by segment, summing each
// segment's offsets exactly once. After all segments are refined the
// interval collapses to the exact sum.
type GradualSummer struct {
	refs    []int64
	segLen  int
	n       int
	offsets leaf
	// store backs offsets; the summer outlives any scratch arena, so
	// what the leaf borrows is plainly allocated and dropped with it.
	store   leaves
	refined int
	// exact accumulates the exact offset sums of refined segments.
	exact int64
	// slackLo and slackHi bound the offset sum of the unrefined
	// segments.
	slackLo, slackHi int64
	// modelSum is the exact Σ refs·|segment|.
	modelSum int64
}

// NewGradualSummer prepares gradual summation over a FOR form.
func NewGradualSummer(f *core.Form) (*GradualSummer, error) {
	if f.Scheme != scheme.FORName {
		return nil, fmt.Errorf("query: NewGradualSummer on scheme %q (want %q)", f.Scheme, scheme.FORName)
	}
	if err := check(f); err != nil {
		return nil, err
	}
	refs, err := core.DecompressChild(f, "refs")
	if err != nil {
		return nil, err
	}
	g := &GradualSummer{refs: refs, segLen: int(f.Params["seglen"]), n: f.N}
	if g.offsets, err = g.store.open(f.Children["offsets"], nil); err != nil {
		return nil, err
	}
	for seg, ref := range refs {
		start, size := g.segment(seg)
		g.modelSum += ref * int64(size)
		lo, hi := g.slack(start, size)
		g.slackLo, g.slackHi = g.slackLo+lo, g.slackHi+hi
	}
	return g, nil
}

// segment returns segment seg's first row and row count.
func (g *GradualSummer) segment(seg int) (start, size int) {
	start = seg * g.segLen
	return start, min(g.segLen, g.n-start)
}

// slack bounds the offset sum of rows [start, start+size) from the
// leaf's extent alone: size times the least and the greatest offset
// the packing width admits (zigzag offsets may be negative). Offsets
// that had to be materialised have no such bound short of their own
// sum.
func (g *GradualSummer) slack(start, size int) (lo, hi int64) {
	if _, ok := g.offsets.(*plain); ok {
		sum, _ := g.offsets.sum(start, size)
		return sum, sum
	}
	bot, top := g.offsets.extent(start, size)
	return int64(size) * bot, int64(size) * top
}

// Segments returns the total number of segments.
func (g *GradualSummer) Segments() int { return len(g.refs) }

// Refined returns how many segments have been refined so far.
func (g *GradualSummer) Refined() int { return g.refined }

// Done reports whether the interval is exact.
func (g *GradualSummer) Done() bool { return g.refined >= g.Segments() }

// Bounds returns the current certain interval for the sum.
func (g *GradualSummer) Bounds() Interval {
	base := g.modelSum + g.exact
	return Interval{base + g.slackLo, base + g.slackHi}
}

// Refine sums up to k more segments exactly and tightens the
// interval; it returns the number of segments actually refined.
func (g *GradualSummer) Refine(k int) (int, error) {
	done := 0
	for ; done < k && g.refined < g.Segments(); g.refined++ {
		start, size := g.segment(g.refined)
		sum, err := g.offsets.sum(start, size)
		if err != nil {
			return done, err
		}
		g.exact += sum
		lo, hi := g.slack(start, size)
		g.slackLo, g.slackHi = g.slackLo-lo, g.slackHi-hi
		done++
	}
	return done, nil
}
