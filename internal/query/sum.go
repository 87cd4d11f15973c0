package query

import (
	"fmt"
	"math/bits"

	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/sel"
)

// This file holds the aggregation entry points of the pushdown: Sum
// (the exact column sum), SumRange (predicate + sum fused into one
// pass, so Count/Sum over a filtered block never materializes a
// selection it would immediately consume) and SumSel (the sum of the
// rows another column's predicate selected). Sums wrap mod 2^64 in
// two's complement, the same arithmetic plain int64 addition performs.
//
// All reject what decode rejects — each node passes its scheme's own
// check before it is walked — so a form that cannot decode cannot
// silently aggregate either.

// Sum returns the exact sum of the column represented by f, computed
// without full materialization where the form's structure allows.
func Sum(f *core.Form) (int64, error) {
	s := core.GetScratch()
	defer s.Release()
	return SumScratch(f, s)
}

// SumScratch is Sum with caller-provided decode scratch: the
// steady-state zero-allocation entry point for block workers. A sum is
// the sum verb over the range that holds every int64 — runs contribute
// length·value, models reference·size, packed words the fused sum
// kernels, a delta form its segments' prefix sums, a patch its base plus
// the exceptions' corrections — except
// where a scheme sums in a way no range pushdown would:
func SumScratch(f *core.Form, s *core.Scratch) (int64, error) {
	switch f.Scheme {
	case scheme.PlusName:
		// Σ (model + residual) splits, whatever the model is.
		if err := check(f); err != nil {
			return 0, err
		}
		ms, err := SumScratch(f.Children["model"], s)
		if err != nil {
			return 0, err
		}
		rs, err := SumScratch(f.Children["residual"], s)
		return ms + rs, err
	}
	a, err := run(SumVerb, f, minInt64, maxInt64, nil, 0, s)
	return a.sum, err
}

// Fold pushes the range [lo, hi] down f under verb v — CountVerb or
// SumVerb — and returns how many rows match and, under SumVerb only,
// what they sum to. It is what CountRange and SumRange are made of,
// for callers that pick the verb at run time.
func Fold(f *core.Form, lo, hi int64, v Verb) (count, sum int64, err error) {
	s := core.GetScratch()
	defer s.Release()
	a, err := run(v, f, lo, hi, nil, 0, s)
	if v != SumVerb {
		a.sum = 0
	}
	return a.count, a.sum, err
}

// SumRange returns the sum and count of the values of f inside
// [lo, hi] — the fused filter+aggregate, pushed down the form like
// CountRange (see push): nothing is materialized on the pushable
// forms.
func SumRange(f *core.Form, lo, hi int64) (sum, count int64, err error) {
	count, sum, err = Fold(f, lo, hi, SumVerb)
	return sum, count, err
}

// SumRangeScratch is SumRange with caller-provided decode scratch.
func SumRangeScratch(f *core.Form, lo, hi int64, s *core.Scratch) (sum, count int64, err error) {
	a, err := run(SumVerb, f, lo, hi, nil, 0, s)
	return a.sum, a.count, err
}

// SumSel returns the wrapping sum of the rows of f that bm selects: row
// r counts when bit base+r is set. It is the sum verb with a selection
// in place of a value range — the selection comes from a predicate on
// another column — pushed down the form by sumSel, so a block that only
// some rows of survive is summed on its constituents instead of being
// decoded to be masked. Like every verb it allocates nothing in the
// steady state and refuses what decode refuses.
func SumSel(f *core.Form, bm *sel.Selection, base int) (int64, error) {
	if base < 0 || base+f.N > bm.Len() {
		return 0, fmt.Errorf("query: SumSel over rows [%d, %d) of a %d-row selection", base, base+f.N, bm.Len())
	}
	s := core.GetScratch()
	defer s.Release()
	a, err := run(sumSelVerb, f, 0, 0, bm, base, s)
	return a.sum, err
}

// sumSel is the selection sum's rewrite (the right-hand column of push's
// table). A constituent is position-aligned with its parent — row r of
// a child is row r of the column — so every child is summed under the
// parent's selection unchanged, and what a scheme adds is how its
// children's sums combine: a model sums its reference per selected row,
// a sum of columns sums each, a patch corrects its base at the selected
// exceptions. What has no rule is decoded and masked, in leaves.open.
func (p *pushdown) sumSel(f *core.Form) (int64, error) {
	if f.N == 0 {
		return 0, nil
	}
	if err := check(f); err != nil {
		return 0, err
	}
	switch f.Scheme {
	case scheme.ConstName:
		return f.Params["value"] * p.selected(0, f.N), nil

	case scheme.RLEName, scheme.RPEName:
		bounds, values, err := p.runBoundariesScratch(f)
		if err != nil {
			return 0, err
		}
		var sum, start int64
		for i, end := range bounds {
			sum += values[i] * p.selected(int(start), int(end))
			start = end
		}
		p.s.PutI64(bounds)
		p.s.PutI64(values)
		return sum, nil

	case scheme.StepName:
		return p.stepSel(f)

	case scheme.FORName:
		refs, err := p.stepSel(f)
		if err != nil {
			return 0, err
		}
		offsets, err := p.sumSel(f.Children["offsets"])
		return refs + offsets, err

	case scheme.PlusName:
		model, err := p.sumSel(f.Children["model"])
		if err != nil {
			return 0, err
		}
		residual, err := p.sumSel(f.Children["residual"])
		return model + residual, err

	case scheme.LinearName:
		return p.linearSel(f)

	case scheme.DictName:
		return p.dictSel(f)

	case scheme.PatchName:
		return p.patchSel(f)

	case scheme.DeltaName:
		return p.deltaSel(f)
	}
	l, err := p.leafOf(f)
	if err != nil {
		return 0, err
	}
	defer p.close(p.s)
	return l.sumSel(p, nil)
}

// selected returns how many of rows [start, end) the selection holds.
func (p *pushdown) selected(start, end int) int64 {
	return int64(p.dst.CountRange(p.base+start, p.base+end))
}

// word returns the selection over rows [r, min(r+64, end)) as one word,
// bit j standing for row r+j.
func (p *pushdown) word(r, end int) uint64 {
	return p.dst.Window(p.base+r, min(64, end-r))
}

// stepSel sums a step function (step, or FOR's refs) under the
// selection: each segment's reference times its selected rows.
func (p *pushdown) stepSel(f *core.Form) (int64, error) {
	refs, err := core.ChildScratch(f, "refs", p.s)
	if err != nil {
		return 0, err
	}
	defer p.s.PutI64(refs)
	segLen := int(f.Params["seglen"])
	var sum int64
	for seg, ref := range refs {
		start := seg * segLen
		sum += ref * p.selected(start, min(start+segLen, f.N))
	}
	return sum, nil
}

// linearSel evaluates the piecewise-linear model at the selected rows
// only.
func (p *pushdown) linearSel(f *core.Form) (int64, error) {
	bases, err := core.ChildScratch(f, "bases", p.s)
	if err != nil {
		return 0, err
	}
	defer p.s.PutI64(bases)
	slopes, err := core.ChildScratch(f, "slopes", p.s)
	if err != nil {
		return 0, err
	}
	defer p.s.PutI64(slopes)
	segLen, frac := int(f.Params["seglen"]), uint(f.Params["frac"])
	var sum int64
	for seg, b := range bases {
		start, slope := seg*segLen, slopes[seg]
		end := min(start+segLen, f.N)
		for r := start; r < end; r += 64 {
			for m := p.word(r, end); m != 0; m &= m - 1 {
				sum += scheme.LinearPredict(b, slope, r-start+bits.TrailingZeros64(m), frac)
			}
		}
	}
	return sum, nil
}

// dictSel sums dict[code] over the selected rows: the codes leaf summed
// under the selection through the dictionary.
func (p *pushdown) dictSel(f *core.Form) (int64, error) {
	dict, err := core.ChildScratch(f, "dict", p.s)
	if err != nil {
		return 0, err
	}
	defer p.s.PutI64(dict)
	codes, err := p.leafOf(f.Children["codes"])
	if err != nil {
		return 0, err
	}
	defer p.close(p.s)
	return codes.sumSel(p, dict)
}

// patchSel sums the base under the selection, then swaps, at each
// selected exception, the base's value (gathered) for the exception's.
func (p *pushdown) patchSel(f *core.Form) (int64, error) {
	base := f.Children["base"]
	sum, err := p.sumSel(base)
	if err != nil {
		return 0, err
	}
	positions, err := core.ChildScratch(f, "positions", p.s)
	if err != nil {
		return 0, err
	}
	defer p.s.PutI64(positions)
	values, err := core.ChildScratch(f, "values", p.s)
	if err != nil {
		return 0, err
	}
	defer p.s.PutI64(values)
	// Keep the selected exceptions, in place and still ascending.
	k := 0
	for i, pos := range positions {
		if p.dst.Contains(p.base + int(pos)) {
			positions[k], values[k] = pos, values[i]
			k++
		}
	}
	was := p.s.I64(k)
	defer p.s.PutI64(was)
	if err := p.gather(base, positions[:k], was); err != nil {
		return 0, err
	}
	for i, b := range was {
		sum += values[i] - b
	}
	return sum, nil
}
