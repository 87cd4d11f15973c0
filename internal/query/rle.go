package query

import (
	"fmt"
	"math/bits"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
	"lwcomp/internal/sel"
)

// This file is push's rule for a run-length form under count, select
// and keep. A run's rows all hold its value, so the range is a
// predicate on the values child alone: it is pushed down values, run
// by run, into a pooled selection over runs, and the lengths child is
// only summed — a count is the lengths' masked sum under that
// selection, and select and keep place each run they need at the
// running sum of the lengths before it. Values are never decoded where
// their form has a rule, and lengths are read in place, never
// prefix-summed into boundaries. A range sum, a selection sum and a
// gather still walk the runs whole (runBoundariesScratch).

// runs applies the verb (CountVerb, selectVerb or keepVerb) to the rows
// of the rle form f whose value lies in [lo, hi]. f has passed its
// check, so values and lengths hold the same number of runs.
func (p *pushdown) runs(f *core.Form, lo, hi int64) error {
	values, lengths := f.Children["values"], f.Children["lengths"]
	n := values.N
	runs := sel.Get(n)
	defer runs.Release()
	count, sum, verb, dst, base := p.count, p.sum, p.verb, p.dst, p.base
	p.verb, p.dst, p.base = selectVerb, runs, 0
	err := p.push(values, lo, hi, 0)
	p.count, p.sum, p.verb, p.dst, p.base = count, sum, verb, dst, base
	if err != nil {
		return err
	}
	l, err := p.leafOf(lengths)
	if err != nil {
		return err
	}
	defer p.close(p.s)
	if err := checkRunLengths(f, l, n); err != nil {
		return err
	}
	if p.verb != CountVerb {
		return p.placeRuns(l, runs, n)
	}
	p.dst, p.base = runs, 0
	c, err := l.sumSel(p, nil)
	p.dst, p.base = dst, base
	p.count += c
	return err
}

// placeRuns selects the rows of the runs set in runs, or under keep
// clears the rows of the runs not set; l holds the n runs' lengths.
// Only the runs placed are read one at a time: the runs before each are
// passed over by one sum of their lengths, and adjacent runs are placed
// as one stretch of rows.
func (p *pushdown) placeRuns(l leaf, runs *sel.Selection, n int) error {
	keep := p.verb == keepVerb
	place := func(start, end int64) {
		switch {
		case start == end:
		case keep:
			p.none(int(start), int(end-start))
		default:
			p.whole(int(start), int(end-start), 0)
		}
	}
	var row, start, end int64 // row starts run next; [start, end) is unplaced
	next := 0
	for r := 0; r < n; r += bitpack.BlockLen {
		c := min(bitpack.BlockLen, n-r)
		m := runs.Window(r, c)
		if keep {
			m ^= bitpack.Mask(uint(c))
		}
		for ; m != 0; m &= m - 1 {
			run := r + bits.TrailingZeros64(m)
			if run > next {
				s, err := l.sum(next, run-next)
				if err != nil {
					return err
				}
				row += s
			}
			if row != end {
				place(start, end)
				start = row
			}
			row += l.at(run)
			end, next = row, run+1
		}
	}
	place(start, end)
	return nil
}

// checkRunLengths refuses the lengths decode refuses — one negative, or
// all of them not adding up to f.N — from l, the n lengths. It is the
// one check of an rle form's lengths: the rule above runs it on the
// lengths leaf, and runBoundariesScratch on the decoded lengths before
// it prefix-sums them (checkRunBounds states the rule for rpe's end
// positions). When the leaf's extent shows that n of them are
// non-negative and cannot wrap, the kernel sums them; otherwise they
// are read and checked one at a time.
func checkRunLengths(f *core.Form, l leaf, n int) error {
	var total int64
	if lmin, lmax := l.extent(0, n); lmin >= 0 && (lmax == 0 || int64(n) <= maxInt64/lmax) {
		var err error
		if total, err = l.sum(0, n); err != nil {
			return err
		}
	} else {
		for i := range n {
			length := l.at(i)
			if length < 0 {
				return fmt.Errorf("%w: %s run %d has length %d", core.ErrCorruptForm, f.Scheme, i, length)
			}
			if length > int64(f.N)-total {
				return fmt.Errorf("%w: %s runs cover more than the %d rows the form declares",
					core.ErrCorruptForm, f.Scheme, f.N)
			}
			total += length
		}
	}
	if total != int64(f.N) {
		return fmt.Errorf("%w: %s runs cover %d rows, form declares %d",
			core.ErrCorruptForm, f.Scheme, total, f.N)
	}
	return nil
}
