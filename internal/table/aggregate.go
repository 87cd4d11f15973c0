package table

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"lwcomp/internal/blocked"
	"lwcomp/internal/core"
	"lwcomp/internal/query"
	"lwcomp/internal/sel"
)

// This file is the count/sum sink: Count and Sum queries answered in
// one pass over the compressed blocks, without ever building the
// table-wide selection a Scan would hand back. The scan driver plans it
// like any other scan; what differs is what happens to a chunk (see
// Proved, Visit and addSums). Degraded semantics match Scan-then-Sum
// exactly: a predicate-side failure drops the chunk's rows from the
// count and every sum, a sum-side failure on a matched chunk keeps the
// count and omits only that column's contribution, and both record the
// block in the Manifest.

// AggregateResult is what Table.Aggregate returns: the matched-row
// count, one sum per requested column (parallel to the sumCols
// argument), and — when the aggregate ran degraded — the manifest of
// skipped blocks.
type AggregateResult struct {
	// Matched is the number of rows the predicate selected.
	Matched int64
	// Sums holds the per-column sums over the matched rows, parallel
	// to the sumCols argument; nil when no sums were requested.
	Sums []int64
	// Manifest records the blocks a degraded aggregate skipped; nil
	// unless the aggregate ran in degraded mode.
	Manifest *Manifest
}

// Aggregate evaluates e and returns the matched-row count plus the
// sums of sumCols over the matched rows, fused into a single pass —
// the one-shot equivalent of Scan + Count + Sum that never
// materializes the scan's selection. Results, including degraded-mode
// semantics, are identical to that pipeline's on aligned and
// misaligned tables alike.
func (t *Table) Aggregate(ctx context.Context, e Expr, sumCols []string, opt ScanOptions) (AggregateResult, error) {
	var res AggregateResult
	if opt.Degraded {
		res.Manifest = &Manifest{}
	}
	if len(sumCols) > 0 {
		res.Sums = make([]int64, len(sumCols))
	}
	var err error
	if res.Matched, err = t.aggregate(ctx, e, sumCols, res.Sums, res.Manifest); err != nil {
		return AggregateResult{}, err
	}
	return res, nil
}

// CountWhere returns the number of rows matching e without building a
// selection — the fused count. It is allocation-free in the steady
// state with one worker. Failures are always fatal; use Aggregate for
// degraded counting.
func (t *Table) CountWhere(ctx context.Context, e Expr) (int64, error) {
	return t.aggregate(ctx, e, nil, nil, nil)
}

// SumWhere returns the sum of col over the rows matching e, plus the
// matched-row count, in one fused pass. Like CountWhere it is
// allocation-free in the serial steady state and always fail-fast;
// use Aggregate for degraded sums.
func (t *Table) SumWhere(ctx context.Context, e Expr, col string) (sum, matched int64, err error) {
	var sums [1]int64
	if matched, err = t.aggregate(ctx, e, []string{col}, sums[:], nil); err != nil {
		return 0, 0, err
	}
	return sums[0], matched, nil
}

// aggregation is the count/sum sink, pooled so the serial steady state
// allocates nothing. matched and sums are committed with atomic adds,
// giving the serial and parallel shapes of the driver one code path.
type aggregation struct {
	p plan
	// cols are the table positions of the sum columns; sums is parallel
	// to it.
	cols    []int
	sums    []int64
	matched int64
}

var aggPool = sync.Pool{New: func() any { return new(aggregation) }}

// aggregate runs e through the driver into a pooled aggregation and
// returns the matched-row count, copying the sums of sumCols into the
// parallel sums (the copy keeps a caller's stack array off the heap).
func (t *Table) aggregate(ctx context.Context, e Expr, sumCols []string, sums []int64, man *Manifest) (int64, error) {
	if e == nil {
		return 0, fmt.Errorf("table: aggregate of a nil expression")
	}
	if err := e.check(t); err != nil {
		return 0, err
	}
	a := aggPool.Get().(*aggregation)
	defer aggPool.Put(a)
	a.cols, a.sums, a.matched = a.cols[:0], a.sums[:0], 0
	for _, name := range sumCols {
		ci, err := t.colIndex(name)
		if err != nil {
			return 0, err
		}
		a.cols, a.sums = append(a.cols, ci), append(a.sums, 0)
	}
	a.p = t.plan(e, man, a.cols)
	if err := a.p.run(ctx, a); err != nil {
		return 0, err
	}
	copy(sums, a.sums)
	return a.matched, nil
}

// Proved counts a chunk the stats proved and sums every column over
// all its rows, on the compressed form when the chunk is a whole block.
// It runs before any worker starts, so matched needs no atomic here.
func (a *aggregation) Proved(k int) error {
	_, count := a.p.Bounds(k)
	a.matched += int64(count)
	if count == 0 {
		return nil
	}
	return a.addSums(k, nil)
}

// Visit counts (and sums) one undecided chunk. When the predicate is a
// leaf over a whole block, with the leaf's own column the only sum (or
// none), it runs on the compressed form through the fused range
// kernels, one pass over the packed words with no selection at all.
// Everything else evaluates the predicate into a pooled chunk-local
// selection and consumes it immediately. An error means the chunk's
// predicate side failed: the driver drops the chunk (count and sums)
// and, in degraded mode, records it. Sum-side failures on matched rows
// degrade in place, per column.
func (a *aggregation) Visit(k int) error {
	_, count := a.p.Bounds(k)
	if count == 0 {
		return nil
	}
	var leaf string
	switch n := a.p.e.(type) {
	case *rangeNode:
		leaf = n.col
	case *inNode:
		leaf = n.col
	}
	if f, b, err := a.fusable(leaf, k); err != nil {
		return err
	} else if f != nil {
		return a.visitLeaf(f, b)
	}

	local := sel.Get(count)
	defer local.Release()
	if err := a.p.e.evalBlock(&a.p.chunks, k, local); err != nil {
		return err
	}
	cnt := local.Count()
	atomic.AddInt64(&a.matched, int64(cnt))
	switch cnt {
	case 0:
		return nil
	case count:
		return a.addSums(k, nil)
	}
	return a.addSums(k, local)
}

// visitLeaf answers a leaf predicate on its block's form f: a Range
// leaf is one fused range probe, an In leaf one per maximal run of
// consecutive values that the block's stats do not refute (runs are
// disjoint, so their counts and sums add). The totals are committed
// once, after every probe succeeded, so a failing block contributes
// nothing.
func (a *aggregation) visitLeaf(f *core.Form, b *blocked.Block) error {
	var cnt, sum int64
	var err error
	switch n := a.p.e.(type) {
	case *rangeNode:
		cnt, sum, err = a.rangeOn(f, n.lo, n.hi)
	case *inNode:
		for i := 0; i < len(n.vals) && err == nil; {
			var lo, hi, c, s int64
			if lo, hi, i = n.run(i); b.ClassifyRange(lo, hi) != blocked.RangeMiss {
				c, s, err = a.rangeOn(f, lo, hi)
				cnt, sum = cnt+c, sum+s
			}
		}
	}
	if err != nil {
		return err
	}
	atomic.AddInt64(&a.matched, cnt)
	if sum != 0 {
		atomic.AddInt64(&a.sums[0], sum)
	}
	return nil
}

// rangeOn counts lo ≤ v ≤ hi on f — and sums the matches when a sum is
// wanted — through the fused range kernels.
func (a *aggregation) rangeOn(f *core.Form, lo, hi int64) (cnt, sum int64, err error) {
	if len(a.cols) == 0 {
		cnt, err = query.CountRange(f, lo, hi)
	} else {
		sum, cnt, err = query.SumRange(f, lo, hi)
	}
	return cnt, sum, err
}

// fusable fetches the form (and returns the index entry) of the named
// leaf column's block holding chunk k when the leaf can be answered on
// the compressed form alone: the chunk is the whole block, and the
// column is the only sum requested, or none is. Otherwise — or when
// the predicate is no leaf and leaf is empty — f is nil. The fetch is
// never wasted: the driver only visits chunks with a range the stats
// could not decide.
func (a *aggregation) fusable(leaf string, k int) (f *core.Form, b *blocked.Block, err error) {
	ci, ok := a.p.t.index[leaf]
	if !ok || len(a.cols) > 1 || (len(a.cols) == 1 && a.cols[0] != ci) {
		return nil, nil, nil
	}
	c, bi, whole := a.p.blockOf(ci, k)
	if !whole {
		return nil, nil, nil
	}
	f, err = c.BlockForm(bi)
	return f, &c.Blocks[bi], err
}

// addSums folds every sum column over chunk k's rows selected in local
// — all of them when local is nil — into a.sums. A whole block with
// every row selected sums on its compressed form; a Range leaf over
// the sum column itself sums through the fused kernel; everything else
// masks the decoded values. A permanently unreadable block degrades
// in place: recorded, and only that column's contribution is omitted.
func (a *aggregation) addSums(k int, local *sel.Selection) error {
	for i, ci := range a.cols {
		c, bi, whole := a.p.blockOf(ci, k)
		var v int64
		var err error
		if local == nil && whole {
			v, err = c.SumBlock(bi)
		} else if lo, hi, f, ok := a.sameColRangeLeaf(ci, c, bi, whole); ok {
			v, _, err = query.SumRange(f, lo, hi)
		} else {
			sc := core.GetScratch()
			var vals []int64
			vals, err = a.p.load(sc, ci, k) // empty on error
			if local != nil {
				v = maskedSum(local, 0, vals)
			} else {
				for _, x := range vals {
					v += x
				}
			}
			sc.PutI64(vals)
			sc.Release()
		}
		if err != nil {
			if err = a.p.skipColumn(ci, bi, err); err != nil {
				return err
			}
			continue
		}
		atomic.AddInt64(&a.sums[i], v)
	}
	return nil
}

// sameColRangeLeaf reports whether the predicate is a Range leaf over
// exactly column ci, the chunk is the whole block bi, AND the block's
// form sums structurally, returning the bounds and form. Then the
// matched rows are exactly the in-range rows, and the fused SumRange
// kernel sums them without a decode. A composite predicate matches a
// subset of a leaf's range and never gets here (e is the whole
// expression); a non-structural form would pay SumRange's
// materializing fallback on top of the decode the caller does anyway.
func (a *aggregation) sameColRangeLeaf(ci int, c *blocked.Column, bi int, whole bool) (lo, hi int64, f *core.Form, ok bool) {
	n, isRange := a.p.e.(*rangeNode)
	if !isRange || !whole || a.p.t.index[n.col] != ci {
		return 0, 0, nil, false
	}
	f, err := c.BlockForm(bi)
	if err != nil || !query.SumRangeIsStructural(f) {
		return 0, 0, nil, false
	}
	return n.lo, n.hi, f, true
}
