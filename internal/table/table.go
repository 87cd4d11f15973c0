package table

import (
	"context"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"lwcomp/internal/blocked"
	"lwcomp/internal/core"
	"lwcomp/internal/query"
	"lwcomp/internal/sel"
	"lwcomp/internal/storage"
)

// Table is a queryable handle over the named columns of one logical
// table: every column has the same number of rows, and — when the
// columns share block boundaries — scans plan and skip per block
// across all of them. Columns may be in-memory or lazily opened from
// a container; a table over lazy columns fetches only the blocks its
// scans admit.
type Table struct {
	cols  []storage.BlockedColumn
	index map[string]int
	// id tells this table's bound expression leaves from other
	// tables' (colSlot).
	id uint32
	n  int
	// aligned reports whether every column shares cols[0]'s block
	// boundaries, which makes every scan's chunks exactly the blocks.
	aligned bool
	// Parallelism bounds the number of blocks scanned concurrently;
	// <= 0 means GOMAXPROCS. It is an upper bound: a scan takes only
	// the cores other running scans leave idle (see blocked.Scan). New
	// seeds it from the first column.
	Parallelism int
	// Degraded makes Scan and ScanContext run in degraded mode by
	// default (see ScanOptions.Degraded); ScanWith overrides it per
	// scan. OpenTable's WithDegradedScan option sets it.
	Degraded  bool
	closers   []io.Closer
	closeOnce sync.Once
	closeErr  error
	// counters accumulates block-level plan outcomes across every
	// scan on the table (see ScanCounters).
	counters struct{ skipped, proved, fetched, helpers atomic.Int64 }
}

// New builds a table over cols, validating that there is at least one
// column, that names are unique and non-empty, and that every column
// has the same row count. closer, if non-nil, is released by Close —
// the open container behind lazily opened columns. The table borrows
// the column handles; it does not copy them.
func New(cols []storage.BlockedColumn, closer io.Closer) (*Table, error) {
	if closer == nil {
		return NewWithClosers(cols)
	}
	return NewWithClosers(cols, closer)
}

// tableIDs numbers the tables built in this process, from 1: an
// unbound colSlot holds id 0.
var tableIDs atomic.Uint32

// NewWithClosers builds a table whose columns come from several open
// containers — a server mounting `<table>.<column>.lwc` files, one
// container per column. Close releases every closer exactly once,
// however many column handles forward to it and however many times
// Close is called.
func NewWithClosers(cols []storage.BlockedColumn, closers ...io.Closer) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("table: no columns")
	}
	t := &Table{
		cols:    cols,
		index:   make(map[string]int, len(cols)),
		id:      tableIDs.Add(1),
		closers: closers,
	}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("table: column %d has no name", i)
		}
		if c.Col == nil {
			return nil, fmt.Errorf("table: column %q is nil", c.Name)
		}
		if _, dup := t.index[c.Name]; dup {
			return nil, fmt.Errorf("table: duplicate column %q", c.Name)
		}
		t.index[c.Name] = i
		if i == 0 {
			t.n = c.Col.N
		} else if c.Col.N != t.n {
			return nil, fmt.Errorf("table: column %q has %d rows, %q has %d",
				c.Name, c.Col.N, cols[0].Name, t.n)
		}
	}
	t.aligned = true
	for _, c := range cols[1:] {
		if !cols[0].Col.BoundariesEqual(c.Col) {
			t.aligned = false
			break
		}
	}
	t.Parallelism = cols[0].Col.Parallelism
	return t, nil
}

// NumRows returns the table's row count.
func (t *Table) NumRows() int { return t.n }

// ColumnNames returns the column names in table order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.Name
	}
	return names
}

// Column returns the named column's handle.
func (t *Table) Column(name string) (*blocked.Column, error) {
	i, err := t.colIndex(name)
	if err != nil {
		return nil, err
	}
	return t.cols[i].Col, nil
}

// Aligned reports whether every column shares block boundaries, so
// that every scan plans block by block. A misaligned table scans
// through the same driver over chunks — the row ranges that no block
// boundary of a column the scan reads cuts, so a one-column scan still
// walks that column's blocks — with the same skipping, degraded-mode
// and streaming behaviour. A column whose block is larger than the
// chunk loses the shortcuts that answer from the compressed form: its
// block decodes, once for all the chunks it spans, and the chunks work
// on the values.
func (t *Table) Aligned() bool { return t.aligned }

// Close releases the containers behind the table's columns, when the
// table owns any, each exactly once — calling Close again (or
// concurrently) is safe and returns the first call's result. It is a
// no-op for in-memory tables.
func (t *Table) Close() error {
	t.closeOnce.Do(func() {
		for _, c := range t.closers {
			if err := c.Close(); err != nil && t.closeErr == nil {
				t.closeErr = err
			}
		}
	})
	return t.closeErr
}

// ScanCounters snapshots the cumulative block-level outcomes of every
// scan planned on this table: blocks skipped (stats refuted — never
// fetched), proved (stats satisfied — emitted as whole runs, never
// fetched), fetched (undecided — payloads consulted), and the helper
// goroutines the scans started beside their callers. A scan over
// columns that do not share block boundaries counts its chunks, which
// are then smaller than blocks (see Aligned). Servers
// export the counters per table; the deltas across a query window are
// the pushdown's observable win.
func (t *Table) ScanCounters() blocked.ScanCounters {
	return blocked.ScanCounters{
		Skipped: t.counters.skipped.Load(),
		Proved:  t.counters.proved.Load(),
		Fetched: t.counters.fetched.Load(),
		Helpers: t.counters.helpers.Load(),
	}
}

// colIndex resolves a column name to its position in the table
// without allocating on the hit path (Scan calls it per leaf).
func (t *Table) colIndex(name string) (int, error) {
	i, ok := t.index[name]
	if !ok {
		return 0, fmt.Errorf("table: no column %q", name)
	}
	return i, nil
}

// chunks is one scan's cut of the row space over the columns it reads:
// the maximal row ranges inside which none of them has a block
// boundary. Columns the scan never names do not cut it, so a scan over
// columns that share boundaries — one column, or any columns of an
// aligned table — walks exactly their blocks.
type chunks struct {
	t *Table
	// lead is set when the cut's columns share block boundaries: chunk k
	// is lead's block k, and block k of every other column of the cut.
	lead *blocked.Column
	// Otherwise chunk k covers rows [start[k], start[k+1]) and lies in
	// block block[ci][k] of table column ci, and held[ci] keeps ci's last
	// decoded block for the chunks that share it.
	start []int
	block [][]int
	held  []heldBlock
}

// heldBlock is a column's last decoded block (blk; -1 for none), so
// that a block spanning several chunks decodes once for all of them.
type heldBlock struct {
	mu   sync.Mutex
	blk  int
	vals []int64
}

// copyRows copies rows [start, start+len(out)) of c's block bi into
// out, decoding the block first unless h already holds it.
func (h *heldBlock) copyRows(c *blocked.Column, bi, start int, out []int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := &c.Blocks[bi]
	if h.blk != bi {
		h.blk, h.vals = -1, slices.Grow(h.vals[:0], b.Count)[:b.Count]
		if err := c.DecompressBlock(bi, h.vals); err != nil {
			return err
		}
		h.blk = bi
	}
	copy(out, h.vals[start-int(b.Start):])
	return nil
}

// cut chunks the row space over the table columns cols (positions,
// repeats allowed; none means any column will do). On an aligned table,
// or when the columns share boundaries, it allocates nothing.
func (t *Table) cut(cols []int) chunks {
	ch := chunks{t: t, lead: t.cols[0].Col}
	if t.aligned || len(cols) == 0 {
		return ch
	}
	ch.lead = t.cols[cols[0]].Col
	shared := true
	for _, ci := range cols[1:] {
		shared = shared && ch.lead.BoundariesEqual(t.cols[ci].Col)
	}
	if shared || t.n == 0 {
		return ch
	}
	// Refine: every column's index tiles [0, n), so one cursor per
	// column advances monotonically.
	ch.lead, ch.start = nil, []int{0}
	ch.block, ch.held = make([][]int, len(t.cols)), make([]heldBlock, len(t.cols))
	cur := make([]int, len(t.cols))
	for pos := 0; pos < t.n; {
		next := t.n
		for _, ci := range cols {
			if len(ch.block[ci]) == len(ch.start) {
				continue // a repeat, already placed for this chunk
			}
			blocks := t.cols[ci].Col.Blocks
			for int(blocks[cur[ci]].Start)+blocks[cur[ci]].Count <= pos {
				cur[ci]++
			}
			next = min(next, int(blocks[cur[ci]].Start)+blocks[cur[ci]].Count)
			ch.block[ci] = append(ch.block[ci], cur[ci])
			ch.held[ci].blk = -1
		}
		ch.start = append(ch.start, next)
		pos = next
	}
	return ch
}

// Chunks returns the number of chunks.
func (ch *chunks) Chunks() int {
	if ch.lead != nil {
		return len(ch.lead.Blocks)
	}
	return len(ch.start) - 1
}

// Bounds returns chunk k's first row and row count.
func (ch *chunks) Bounds(k int) (start, count int) {
	if ch.lead != nil {
		return int(ch.lead.Blocks[k].Start), ch.lead.Blocks[k].Count
	}
	return ch.start[k], ch.start[k+1] - ch.start[k]
}

// blockOf returns column ci of the cut, the index of its block holding
// chunk k, and whether the chunk is that whole block — the precondition
// of every shortcut that answers from a block's compressed form. A
// block's [min, max] bound every row range inside it, so leaves prune
// chunks with their block's stats either way.
func (ch *chunks) blockOf(ci, k int) (c *blocked.Column, bi int, whole bool) {
	c = ch.t.cols[ci].Col
	if ch.lead != nil {
		return c, k, true
	}
	bi = ch.block[ci][k]
	return c, bi, c.Blocks[bi].Count == ch.start[k+1]-ch.start[k]
}

// stats returns the index entry of column ci's block holding chunk k.
func (ch *chunks) stats(ci, k int) *blocked.Block {
	c, bi, _ := ch.blockOf(ci, k)
	return &c.Blocks[bi]
}

// load returns column ci's values over chunk k in a buffer borrowed
// from sc (return it with sc.PutI64). A chunk that is a whole block
// decodes straight into it; a chunk inside a larger block copies its
// window of the column's held block, which decodes on first use only.
func (ch *chunks) load(sc *core.Scratch, ci, k int) ([]int64, error) {
	c, bi, whole := ch.blockOf(ci, k)
	start, count := ch.Bounds(k)
	vals := sc.I64(count)
	var err error
	if whole {
		err = c.DecompressBlock(bi, vals)
	} else {
		err = ch.held[ci].copyRows(c, bi, start, vals)
	}
	if err != nil {
		sc.PutI64(vals)
		return nil, err
	}
	return vals, nil
}

// selectChunk evaluates lo ≤ v ≤ hi on column ci over chunk k into the
// chunk-local dst — ORing the matches in, or with keep clearing the
// bits of the rows that fail: on the block's compressed form when the
// chunk is the whole block, on its window of the decoded block
// otherwise.
func (ch *chunks) selectChunk(ci, k int, lo, hi int64, dst *sel.Selection, keep bool) error {
	c, bi, whole := ch.blockOf(ci, k)
	switch {
	case whole && keep:
		return c.KeepBlockRange(bi, lo, hi, dst)
	case whole:
		return c.SelectBlockRangeSel(bi, lo, hi, dst, 0)
	}
	sc := core.GetScratch()
	defer sc.Release()
	vals, err := ch.load(sc, ci, k)
	if err != nil {
		return err
	}
	query.SelectPlain(vals, lo, hi, dst, 0, keep)
	sc.PutI64(vals)
	return nil
}

// plan lays one predicate over a cut of the table: the blocked.Plan
// every table scan hands the driver. man is non-nil exactly when the
// scan runs degraded.
type plan struct {
	chunks
	e   Expr
	man *Manifest
}

// plan cuts the table over the columns e names plus also — the columns
// the sink will read chunk by chunk.
func (t *Table) plan(e Expr, man *Manifest, also []int) plan {
	var cols []int
	if !t.aligned {
		cols = columnsOf(t, e, slices.Clip(also))
	}
	return plan{chunks: t.cut(cols), e: e, man: man}
}

func (p *plan) Classify(k int) blocked.RangeClass { return p.e.prune(&p.chunks, k) }

func (p *plan) Select(k int, dst *sel.Selection) error { return p.e.evalBlock(&p.chunks, k, dst) }

// run drives the plan into sink and adds the chunk tally to the
// table's counters.
func (p *plan) run(ctx context.Context, sink blocked.Sink) error {
	n, err := blocked.Scan(ctx, p.t.Parallelism, p, sink)
	p.t.counters.skipped.Add(n.Skipped)
	p.t.counters.proved.Add(n.Proved)
	p.t.counters.fetched.Add(n.Fetched)
	p.t.counters.helpers.Add(n.Helpers)
	return err
}

// Scan evaluates the predicate over the table and returns the result
// handle. The expression is planned per chunk — per block, when the
// columns share block boundaries: stats-refuted chunks are skipped
// without touching any column, stats-proved chunks emit whole runs,
// and only the undecided remainder evaluates on the compressed
// payloads (concurrently, bounded by Parallelism). The scan's selection
// comes from the shared pool — Release the handle to keep steady-state
// scans allocation-free.
func (t *Table) Scan(e Expr) (*Scan, error) {
	return t.ScanContext(context.Background(), e)
}

// ScanContext is Scan with a cancellation seam: the driver checks ctx
// before every chunk it visits (serially or from a worker), so a
// client that disconnects or a request that outlives its deadline
// stops fetching and decoding mid-scan and returns ctx.Err(). A
// Background context makes it exactly Scan, and the steady state stays
// allocation-free.
func (t *Table) ScanContext(ctx context.Context, e Expr) (*Scan, error) {
	return t.ScanWith(ctx, e, ScanOptions{Degraded: t.Degraded})
}

// ScanWith is ScanContext with per-scan options: opt.Degraded lets
// this one scan skip permanently unreadable blocks (recording each
// omission in the result's Manifest) regardless of the table's
// default. Aligned or not, the failing column's block is known, so the
// manifest names it with its exact row range.
func (t *Table) ScanWith(ctx context.Context, e Expr, opt ScanOptions) (*Scan, error) {
	if e == nil {
		return nil, fmt.Errorf("table: Scan of a nil expression")
	}
	if err := e.check(t); err != nil {
		return nil, err
	}
	s := scanPool.Get().(*Scan)
	var man *Manifest
	if opt.Degraded {
		man = &Manifest{}
	}
	s.p = t.plan(e, man, nil)
	s.sink.Plan, s.sink.Dst = &s.p, sel.Get(t.n)
	if err := s.p.run(ctx, &s.sink); err != nil {
		s.Release()
		return nil, err
	}
	return s, nil
}

// Scan is the result of Table.Scan: the surviving rows as a bitmap
// selection, plus projection and aggregation methods that fetch and
// decode only the blocks still holding set bits. Release it when done
// — the selection returns to the shared pool, and the handle must not
// be used afterwards.
type Scan struct {
	// p.man is non-nil exactly when the scan ran degraded; the
	// projection and aggregation methods keep recording omissions into
	// it as they encounter unreadable blocks.
	p plan
	// sink.Dst is the scan's selection.
	sink blocked.SelectSink
}

var scanPool = sync.Pool{New: func() any { return new(Scan) }}

// Release returns the scan's selection and the handle itself to their
// pools. The handle, and any Selection view obtained from it, must
// not be used afterwards. The Manifest, if one was obtained, remains
// valid — it is not pooled.
func (s *Scan) Release() {
	if s.sink.Dst != nil {
		s.sink.Dst.Release()
	}
	s.p = plan{}
	s.sink.Plan, s.sink.Dst = nil, nil
	scanPool.Put(s)
}

// Degraded reports whether the scan ran in degraded mode.
func (s *Scan) Degraded() bool { return s.p.man != nil }

// Manifest returns the degradation record: every block the scan (and
// any projection or aggregate run on it so far) skipped. It is nil
// unless the scan ran in degraded mode, and stays valid after
// Release.
func (s *Scan) Manifest() *Manifest { return s.p.man }

// Count returns the number of surviving rows.
func (s *Scan) Count() int { return s.sink.Dst.Count() }

// Rows returns the surviving row positions in ascending order.
func (s *Scan) Rows() []int64 { return s.sink.Dst.Rows() }

// Selection returns the scan's bitmap selection — a borrowed view,
// valid until Release.
func (s *Scan) Selection() *sel.Selection { return s.sink.Dst }

// survivors is the one late-materialising walk behind Sum, Materialize
// and StreamBatches: over its own cut of the table — by the columns it
// reads, whatever the predicate's were — it visits, in row order, the
// chunks that still hold selected rows, and decodes a column's block
// only when asked for its values. One pooled buffer per column read is
// live at a time.
type survivors struct {
	chunks
	s   *Scan
	ctx context.Context
	sc  *core.Scratch
	// k is the current chunk, [start, start+count) its rows and hits
	// the number of them still selected.
	k, start, count, hits int
	// vals is the decode buffer of a walk that reads one column.
	vals []int64
	err  error
}

// survivors starts a walk over the columns cols; pair it with done.
func (s *Scan) survivors(ctx context.Context, cols ...int) survivors {
	return survivors{chunks: s.p.t.cut(cols), s: s, ctx: ctx, sc: core.GetScratch(), k: -1}
}

// next advances to the next chunk with surviving rows. It returns false
// at the end of the table or when ctx expired, which leaves w.err set.
func (w *survivors) next() bool {
	for w.k++; w.k < w.Chunks(); w.k++ {
		if w.err = w.ctx.Err(); w.err != nil {
			return false
		}
		w.start, w.count = w.Bounds(w.k)
		if w.hits = w.s.sink.Dst.CountRange(w.start, w.start+w.count); w.hits > 0 {
			return true
		}
	}
	return false
}

// values returns column ci's values over the current chunk in a pooled
// buffer that replaces *held — the column's previous one, which goes
// back to the pool — so the slice is valid until the next call with
// the same held. A nil slice with a nil error means the block is
// permanently unreadable and the degraded scan recorded it.
func (w *survivors) values(ci int, held *[]int64) ([]int64, error) {
	w.sc.PutI64(*held)
	var err error
	if *held, err = w.load(w.sc, ci, w.k); err != nil {
		_, bi, _ := w.blockOf(ci, w.k)
		return nil, w.s.p.skipColumn(ci, bi, err)
	}
	return *held, nil
}

func (w *survivors) done() {
	w.sc.PutI64(w.vals)
	w.sc.Release()
}

// Sum returns the sum of the named column over the surviving rows
// without decoding them: blocks with no set bits are never fetched,
// fully-selected blocks sum on their compressed form, and partially
// selected blocks push the selection down the form (query.SumSel), so
// the steady state allocates nothing.
func (s *Scan) Sum(col string) (int64, error) {
	return s.SumContext(context.Background(), col)
}

// SumContext is Sum with the per-block cancellation seam: the walk
// checks ctx before each fetch, so an expired request stops
// aggregating instead of decoding the rest of the column.
func (s *Scan) SumContext(ctx context.Context, col string) (int64, error) {
	ci, err := s.p.t.colIndex(col)
	if err != nil {
		return 0, err
	}
	var total int64
	w := s.survivors(ctx, ci)
	defer w.done()
	for w.next() {
		// One column: the walk's chunks are its blocks.
		c, bi, _ := w.blockOf(ci, w.k)
		var v int64
		if w.hits == w.count {
			v, err = c.SumBlock(bi)
		} else {
			v, err = c.SumBlockSel(bi, s.sink.Dst, w.start)
		}
		if err != nil {
			err = s.p.skipColumn(ci, bi, err)
		}
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, w.err
}

// Materialize returns the named column's values at the surviving
// rows, in row order — the late-materialization projection. Only
// blocks holding set bits are fetched and decoded.
func (s *Scan) Materialize(col string) ([]int64, error) {
	ci, err := s.p.t.colIndex(col)
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, s.sink.Dst.Count())
	w := s.survivors(context.Background(), ci)
	defer w.done()
	for w.next() {
		vals, err := w.values(ci, &w.vals)
		if err != nil {
			return nil, err
		}
		out = maskedAppend(out, s.sink.Dst, w.start, vals)
	}
	return out, w.err
}

// stream is the state of one StreamBatches call, pooled so that a
// steady state of streaming requests allocates nothing.
type stream struct {
	cis []int
	// rows and vals are the batch small chunks gather in: capacity
	// batchSize, never grown.
	rows []int64
	vals [][]int64
	// held are the live decode buffers, one per streamed column, and sub
	// is what fn is handed.
	held, sub [][]int64
}

var streamPool = sync.Pool{New: func() any { return new(stream) }}

// StreamBatches visits the surviving rows in ascending order in
// batches, late-materializing the named columns chunk by chunk — the
// server's streaming projection: a million-row result never holds more
// than one decoded block per streamed column, one chunk of row numbers
// and one batch in memory, whether or not the columns share block
// boundaries. Each call to fn receives the batch's global row
// positions and, parallel to cols, each column's values at those rows.
// The slices are valid only for the call: a chunk with at least
// batchSize surviving rows is handed over as slices of its own decode
// buffers (compacted in place when only part of it survives), which the
// next chunk overwrites, and smaller chunks gather in one reused
// batch — so fn must consume (encode, copy) them before returning.
// Batches hold at most batchSize rows, and may be shorter wherever a
// chunk ends or the next one would not fit; batchSize <= 0 defaults to
// 4096. The context is checked
// between chunks, so an expired or disconnected request stops fetching
// mid-stream.
func (s *Scan) StreamBatches(ctx context.Context, cols []string, batchSize int, fn func(rows []int64, vals [][]int64) error) error {
	if batchSize <= 0 {
		batchSize = 4096
	}
	st := streamPool.Get().(*stream)
	defer streamPool.Put(st)
	st.cis = st.cis[:0]
	for _, name := range cols {
		ci, err := s.p.t.colIndex(name)
		if err != nil {
			return err
		}
		st.cis = append(st.cis, ci)
	}
	// The batch never needs to hold more than the scan has rows.
	batchCap := min(batchSize, s.Count())
	st.rows = slices.Grow(st.rows[:0], batchCap)
	st.vals = slices.Grow(st.vals[:0], len(cols))[:len(cols)]
	for i := range st.vals {
		st.vals[i] = slices.Grow(st.vals[i][:0], batchCap)
	}
	st.held = slices.Grow(st.held[:0], len(cols))[:len(cols)]
	st.sub = slices.Grow(st.sub[:0], len(cols))[:len(cols)]

	w := s.survivors(ctx, st.cis...)
	defer func() {
		for i, b := range st.held {
			w.sc.PutI64(b)
			st.held[i] = nil
		}
		w.done()
	}()
	// emit hands fn the rows and per-column values in slices of at most
	// batchSize.
	emit := func(rows []int64, vals [][]int64) error {
		for off := 0; off < len(rows); off += batchSize {
			end := min(off+batchSize, len(rows))
			for i := range vals {
				st.sub[i] = vals[i][off:end]
			}
			if err := fn(rows[off:end], st.sub); err != nil {
				return err
			}
		}
		return nil
	}
	flush := func() error {
		err := emit(st.rows, st.vals)
		st.rows = st.rows[:0]
		for i := range st.vals {
			st.vals[i] = st.vals[i][:0]
		}
		return err
	}
chunks:
	for w.next() {
		// Every column decodes before anything of the chunk is batched, so
		// a degraded skip drops the whole chunk by moving on.
		for i, ci := range st.cis {
			decoded, err := w.values(ci, &st.held[i])
			if err != nil {
				return err
			}
			if decoded == nil {
				continue chunks
			}
			if w.hits < w.count {
				st.held[i] = maskedAppend(decoded[:0], s.sink.Dst, w.start, decoded)
			}
		}
		rows := maskedAppendRows(w.sc.I64(w.hits)[:0], s.sink.Dst, w.start, w.count)
		var err error
		if w.hits >= batchSize {
			if err = flush(); err == nil {
				err = emit(rows, st.held)
			}
		} else {
			// hits < batchSize and hits <= Count(), so after a flush the
			// chunk always fits.
			if len(st.rows)+w.hits > batchCap {
				err = flush()
			}
			st.rows = append(st.rows, rows...)
			for i := range st.vals {
				st.vals[i] = append(st.vals[i], st.held[i]...)
			}
		}
		w.sc.PutI64(rows)
		if err != nil {
			return err
		}
	}
	if w.err != nil {
		return w.err
	}
	return flush()
}

// maskedAppendRows appends the global positions of the set bits in
// [start, start+count) to out, mirroring maskedAppend's walk.
func maskedAppendRows(out []int64, bm *sel.Selection, start, count int) []int64 {
	for r := 0; r < count; r += 64 {
		for m := bm.Window(start+r, count-r); m != 0; m &= m - 1 {
			out = append(out, int64(start+r+bits.TrailingZeros64(m)))
		}
	}
	return out
}

// maskedAppend appends the selected values of vals (decoded at row
// offset start) to out, mirroring Selection.MaskedSum's word-at-a-time
// walk.
func maskedAppend(out []int64, bm *sel.Selection, start int, vals []int64) []int64 {
	for r := 0; r < len(vals); r += 64 {
		switch m := bm.Window(start+r, len(vals)-r); m {
		case 0:
		case ^uint64(0):
			out = append(out, vals[r:r+64]...)
		default:
			for ; m != 0; m &= m - 1 {
				out = append(out, vals[r+bits.TrailingZeros64(m)])
			}
		}
	}
	return out
}
