package query

import (
	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
)

// This file holds the aggregation entry points of the pushdown: Sum
// (the exact column sum) and SumRange (predicate + sum fused into one
// pass, so Count/Sum over a filtered block never materializes a
// selection it would immediately consume). Sums wrap mod 2^64 in two's
// complement, the same arithmetic plain int64 addition performs.
//
// Both reject what decode rejects — each node passes its scheme's own
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
// kernels, a patch its base plus the exceptions' corrections — except
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

	case scheme.DeltaName:
		// Σ prefixsum(d) = Σ (n−i)·d[i]: one pass over the deltas.
		deltas, err := core.ChildScratch(f, "deltas", s)
		if err != nil {
			return 0, err
		}
		defer s.PutI64(deltas)
		var acc int64
		n := int64(len(deltas))
		for i, d := range deltas {
			acc += (n - int64(i)) * d
		}
		return acc, nil
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
