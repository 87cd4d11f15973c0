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
	// leaf is the table position of the column the predicate tests when
	// it is a single Range, Eq or In leaf, and -1 otherwise.
	leaf int
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
	switch n := e.(type) {
	case *rangeNode:
		a.leaf = n.pos(&a.p.chunks)
	case *inNode:
		a.leaf = n.pos(&a.p.chunks)
	default:
		a.leaf = -1
	}
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
// none), the count or sum verb is pushed down the block's compressed
// form — one pass over the constituents with no selection at all.
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
	if len(a.cols) == 0 || (len(a.cols) == 1 && a.cols[0] == a.leaf) {
		verb := query.CountVerb
		if len(a.cols) == 1 {
			verb = query.SumVerb
		}
		if f, b, l, err := a.leafForm(a.leaf, k); err != nil {
			return err
		} else if f != nil {
			// Committed once, after every probe succeeded, so a failing
			// block contributes nothing.
			cnt, sum, err := a.foldLeaf(f, b, verb)
			l.Release()
			if err != nil {
				return err
			}
			atomic.AddInt64(&a.matched, cnt)
			if verb == query.SumVerb {
				atomic.AddInt64(&a.sums[0], sum)
			}
			return nil
		}
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

// leafForm returns the form (with its index entry and lease) of column
// ci's block holding chunk k when the predicate is a leaf over ci and
// the chunk is that whole block: then the rows the predicate matches
// are exactly the rows of the block inside the leaf's ranges, and a
// verb pushed down the form answers for them without a selection or a
// decode. Otherwise f is nil. A composite predicate matches a subset of
// any one leaf's range and never gets here (e is the whole expression).
// The caller releases l once done with f.
func (a *aggregation) leafForm(ci, k int) (f *core.Form, b *blocked.Block, l blocked.Lease, err error) {
	if ci < 0 || a.leaf != ci {
		return nil, nil, l, nil
	}
	c, bi, whole := a.p.blockOf(ci, k)
	if !whole {
		return nil, nil, l, nil
	}
	f, l, err = c.LeasedForm(bi)
	return f, &c.Blocks[bi], l, err
}

// foldLeaf pushes verb down f for the leaf predicate: a Range leaf is
// one range, an In leaf one per maximal run of consecutive values that
// the block's stats do not refute (runs are disjoint, so their counts
// and sums add).
func (a *aggregation) foldLeaf(f *core.Form, b *blocked.Block, verb query.Verb) (cnt, sum int64, err error) {
	switch n := a.p.e.(type) {
	case *rangeNode:
		return query.Fold(f, n.lo, n.hi, verb)
	case *inNode:
		for i := 0; i < len(n.vals) && err == nil; {
			var lo, hi, c, s int64
			if lo, hi, i = n.run(i); b.ClassifyRange(lo, hi) != blocked.RangeMiss {
				c, s, err = query.Fold(f, lo, hi, verb)
				cnt, sum = cnt+c, sum+s
			}
		}
	}
	return cnt, sum, err
}

// addSums folds every sum column over chunk k's rows selected in local
// — all of them when local is nil — into a.sums. A whole block sums on
// its compressed form: all of it, the rows inside a leaf predicate over
// the sum column itself, or the rows local selects. Only a chunk inside
// a larger block masks decoded values. A permanently unreadable block
// degrades in place: recorded, and only that column's contribution is
// omitted.
func (a *aggregation) addSums(k int, local *sel.Selection) error {
	for i, ci := range a.cols {
		c, bi, whole := a.p.blockOf(ci, k)
		var v int64
		var err error
		if local == nil && whole {
			v, err = c.SumBlock(bi)
		} else if f, b, l, ferr := a.leafForm(ci, k); f != nil || ferr != nil {
			if err = ferr; err == nil {
				_, v, err = a.foldLeaf(f, b, query.SumVerb)
				l.Release()
			}
		} else if whole {
			v, err = c.SumBlockSel(bi, local, 0)
		} else {
			sc := core.GetScratch()
			var vals []int64
			vals, err = a.p.load(sc, ci, k) // empty on error
			if local != nil {
				v = local.MaskedSum(0, vals)
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
