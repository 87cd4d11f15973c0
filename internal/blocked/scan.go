package blocked

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"lwcomp/internal/query"
	"lwcomp/internal/sel"
)

// Plan is the caller's half of a scan: a predicate laid over a
// chunking of the row space. A chunk is a row range inside which no
// scanned column has a block boundary — for one column, or for columns
// sharing boundaries, exactly a block. Every method except Tolerate
// must be safe for concurrent use.
type Plan interface {
	// Chunks returns the number of chunks, in row order.
	Chunks() int
	// Bounds returns chunk k's first row and its row count.
	Bounds(k int) (start, count int)
	// Classify places the predicate against chunk k from stats alone,
	// never fetching a payload.
	Classify(k int) RangeClass
	// Select evaluates the predicate on an undecided chunk k into dst, a
	// cleared chunk-local selection (row r of the chunk is bit r).
	Select(k int, dst *sel.Selection) error
	// Tolerate is asked when visiting chunk k failed with a permanent
	// error: a degraded scan records the omission and returns true, and
	// the chunk contributes nothing; any other scan returns false and
	// the error is fatal. It may be called from several workers at once.
	Tolerate(k int, err error) bool
}

// Sink is the consuming half of a scan: what happens to the chunks the
// stats did not refute.
type Sink interface {
	// Proved folds in chunk k, every row of which the stats proved to
	// match, so the predicate needs no evaluation. It runs on the
	// calling goroutine, in chunk order, before any Visit.
	Proved(k int) error
	// Visit evaluates the predicate on undecided chunk k and folds the
	// outcome in. It is called concurrently when the scan has more than
	// one worker.
	Visit(k int) error
}

// workList is the pooled per-scan state of Scan: the undecided chunks.
type workList struct{ parts []int }

var workPool = sync.Pool{New: func() any { return new(workList) }}

// running counts the scans in progress in this process. A scan's
// workers are capped at the cores the others leave idle, so a scan
// started while the cores are busy with other queries runs on its own
// goroutine instead of queueing helpers behind them.
var running atomic.Int64

// Scan drives one scan: it classifies every chunk of p from stats,
// hands the proved ones to sink, and visits the undecided rest,
// checking ctx before each visit. It visits on
//
//	max(1, min(workers, undecided chunks, GOMAXPROCS − other running scans))
//
// goroutines, the caller first: inline when that is one (the
// allocation-free path), through ParallelFor otherwise. workers <= 0
// means GOMAXPROCS. It returns the chunk tally whatever the outcome.
func Scan(ctx context.Context, workers int, p Plan, sink Sink) (ScanCounters, error) {
	others := running.Add(1) - 1
	defer running.Add(-1)
	w := workPool.Get().(*workList)
	defer workPool.Put(w)
	w.parts = w.parts[:0]
	var n ScanCounters
	for k, chunks := 0, p.Chunks(); k < chunks; k++ {
		switch p.Classify(k) {
		case RangeMiss:
			n.Skipped++
		case RangeAll:
			n.Proved++
			if err := ctx.Err(); err != nil {
				return n, err
			}
			if err := sink.Proved(k); err != nil {
				return n, err
			}
		default:
			n.Fetched++
			w.parts = append(w.parts, k)
		}
	}
	if workers = scanWorkers(workers, len(w.parts), others); workers == 1 {
		for i := range w.parts {
			if err := w.visit(ctx, i, p, sink); err != nil {
				return n, err
			}
		}
		return n, nil
	}
	n.Helpers = int64(workers - 1)
	// The closure captures only values that are never reassigned, so
	// building it allocates here and nowhere on the serial path.
	return n, ParallelFor(workers, len(w.parts), func(i int) error {
		return w.visit(ctx, i, p, sink)
	})
}

// scanWorkers is the rule Scan sizes its visits by: the requested
// workers (<= 0: GOMAXPROCS), at most one per undecided chunk and at
// most the cores the other running scans leave idle, never fewer than
// one. The serial cases return before reading GOMAXPROCS.
func scanWorkers(workers, parts int, others int64) int {
	if workers == 1 || parts <= 1 {
		return 1
	}
	procs := runtime.GOMAXPROCS(0)
	if workers <= 0 {
		workers = procs
	}
	return max(1, min(workers, parts, procs-int(others)))
}

// visit handles the i-th undecided chunk: the per-chunk body both
// branches of Scan share, and the only place a degraded scan's
// skip-and-record happens.
func (w *workList) visit(ctx context.Context, i int, p Plan, sink Sink) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	err := sink.Visit(w.parts[i])
	if err != nil && IsPermanent(err) && p.Tolerate(w.parts[i], err) {
		return nil
	}
	return err
}

// SelectSink is the selection sink: proved chunks emit their whole row
// span as one run without decoding, undecided chunks evaluate into a
// pooled chunk-local selection that is ORed into Dst at the chunk's
// row offset. OR commutes, so the merged result does not depend on the
// order workers finish in.
type SelectSink struct {
	// Plan supplies the chunk bounds and the predicate.
	Plan Plan
	// Dst receives the matches; its domain is the plan's whole row
	// space.
	Dst *sel.Selection

	mu sync.Mutex
}

// Proved emits chunk k as one run.
func (s *SelectSink) Proved(k int) error {
	s.Dst.AddRun(s.Plan.Bounds(k))
	return nil
}

// Visit evaluates the predicate on chunk k and merges its matches.
func (s *SelectSink) Visit(k int) error {
	start, count := s.Plan.Bounds(k)
	local := sel.Get(count)
	err := s.Plan.Select(k, local)
	if err == nil {
		s.mu.Lock()
		s.Dst.OrAt(local, start)
		s.mu.Unlock()
	}
	local.Release()
	return err
}

// rangeScan is a column's own use of the driver: the plan of one range
// predicate over the column's blocks (a chunk is a block), and the
// count/sum sink behind CountRange and Sum.
type rangeScan struct {
	c      *Column
	lo, hi int64
	// sum makes the sink total block sums instead of match counts.
	sum    bool
	total  atomic.Int64
	selSnk SelectSink
}

var rangeScanPool = sync.Pool{New: func() any { return new(rangeScan) }}

// scanRange runs one pooled rangeScan through the driver — into dst
// through the selection sink when dst is non-nil, into the scan's own
// count/sum sink otherwise — and returns that sink's total.
func (c *Column) scanRange(lo, hi int64, sum bool, dst *sel.Selection) (int64, error) {
	r := rangeScanPool.Get().(*rangeScan)
	r.c, r.lo, r.hi, r.sum = c, lo, hi, sum
	r.total.Store(0)
	var sink Sink = r
	if dst != nil {
		r.selSnk.Plan, r.selSnk.Dst = r, dst
		sink = &r.selSnk
	}
	_, err := Scan(context.Background(), c.Parallelism, r, sink)
	total := r.total.Load()
	r.c, r.selSnk.Plan, r.selSnk.Dst = nil, nil, nil
	rangeScanPool.Put(r)
	return total, err
}

func (r *rangeScan) Chunks() int { return len(r.c.Blocks) }

func (r *rangeScan) Bounds(k int) (start, count int) {
	return int(r.c.Blocks[k].Start), r.c.Blocks[k].Count
}

func (r *rangeScan) Classify(k int) RangeClass {
	if r.sum {
		// No predicate to prove: every block's payload is consulted.
		return RangePart
	}
	return r.c.Blocks[k].ClassifyRange(r.lo, r.hi)
}

func (r *rangeScan) Select(k int, dst *sel.Selection) error {
	return r.c.SelectBlockRangeSel(k, r.lo, r.hi, dst, 0)
}

func (r *rangeScan) Tolerate(int, error) bool { return false }

func (r *rangeScan) Proved(k int) error {
	r.total.Add(int64(r.c.Blocks[k].Count))
	return nil
}

// Visit counts (or, for Sum, totals) block k on its compressed form:
// the fused range kernels, or the structural sum of runs and models.
func (r *rangeScan) Visit(k int) error {
	f, l, err := r.c.form(k)
	if err != nil {
		return err
	}
	defer l.Release()
	var v int64
	if r.sum {
		v, err = query.Sum(f)
	} else {
		v, err = query.CountRange(f, r.lo, r.hi)
	}
	r.total.Add(v)
	return err
}

// Sum returns the exact column sum, aggregated block by block on the
// compressed forms. Blocks are summed concurrently (bounded by the
// column's parallelism); wrapping int64 addition is commutative, so the
// result does not depend on worker scheduling.
func (c *Column) Sum() (int64, error) {
	return c.scanRange(0, 0, true, nil)
}

// CountRange counts elements in [lo, hi]. Blocks entirely outside
// the range contribute 0 and blocks entirely inside contribute their
// size, both in O(1) from the index; only straddling blocks consult
// their form, concurrently (bounded by the column's parallelism) and
// through the fused count kernels where the form allows.
func (c *Column) CountRange(lo, hi int64) (int64, error) {
	return c.scanRange(lo, hi, false, nil)
}

// SelectRange returns the row positions of elements in [lo, hi], in
// ascending order. A block whose [min, max] misses the range is
// never decoded; a block entirely inside emits its whole row span as
// a single run without decoding. The matches accumulate in a pooled
// bitmap selection (see SelectRangeSel); this method converts to the
// explicit row-position column at the boundary.
func (c *Column) SelectRange(lo, hi int64) ([]int64, error) {
	bm, err := c.SelectRangeSel(lo, hi)
	if err != nil {
		return nil, err
	}
	rows := bm.AppendRows(make([]int64, 0, bm.Count()), 0)
	bm.Release()
	return rows, nil
}

// SelectRangeSel evaluates the range predicate into a bitmap
// selection vector over [0, c.N): straddling blocks are scanned
// concurrently (bounded by the column's parallelism, each into its
// own pooled per-block selection) and ORed in at their row offsets, so
// the result is deterministic. The selection comes from the shared
// pool — callers should Release it when done to keep steady-state
// scans allocation-free.
func (c *Column) SelectRangeSel(lo, hi int64) (*sel.Selection, error) {
	dst := sel.Get(c.N)
	if _, err := c.scanRange(lo, hi, false, dst); err != nil {
		dst.Release()
		return nil, err
	}
	return dst, nil
}
