package blocked

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"lwcomp/internal/core"
	"lwcomp/internal/query"
	"lwcomp/internal/scheme"
	"lwcomp/internal/sel"
)

// DefaultBlockSize is the block length used when a caller asks for
// blocking without choosing a size. 64Ki values keeps per-block
// analyzer runs cheap while leaving enough data for run/model
// structure to show.
const DefaultBlockSize = 1 << 16

// Block is one fixed-size slice of the column: its compressed form,
// its position, and the raw-value stats queries prune with.
type Block struct {
	// Form is the block's compressed form, chosen independently of
	// every other block.
	Form *core.Form
	// Start is the row index of the block's first element.
	Start int64
	// Count is the number of elements in the block.
	Count int
	// Min and Max are the extreme raw values of the block; valid
	// only when HasStats is set.
	Min, Max int64
	// HasStats reports whether Min/Max were recorded. Blocks adopted
	// from v1 forms without re-reading the data leave it unset, which
	// disables skipping (never correctness).
	HasStats bool
	// Tombstone marks a block whose payload was lost for good and
	// replaced by an explicit placeholder during salvage repair. A
	// tombstoned block has no form and no payload; every fetch fails
	// fast with ErrTombstone, and a degraded scan skips exactly its
	// row range. Set through MarkTombstone, never directly.
	Tombstone bool
	// TombstoneReason records why the block was tombstoned — the
	// condemning error of the generation that lost it. Persisted in
	// the container index so the reason survives reopen.
	TombstoneReason string
	// Certificate, when non-zero, is the search fingerprint
	// (scheme.SearchFingerprint) under which the analyzer's search over
	// the default candidates, run on the whole block, picks exactly
	// Form: the encoder ran that search, so a re-encode would rebuild
	// these bytes. 0 means the block was encoded any other way.
	// Persisted in the container index beside the stats. The compactor
	// skips a container whose every block carries the current
	// fingerprint, so a stale or wrong certificate can cost a missed
	// compaction, never a wrong value.
	Certificate uint32
}

// BlockSource supplies block forms on demand for columns whose
// payloads live outside memory (file-backed containers). A column
// with a Source may leave Block.Form nil; query paths then fetch the
// form through the source at first touch and drop it afterwards, so
// cold blocks never stay resident.
//
// Implementations must be safe for concurrent use: the parallel scan
// paths fetch straddling blocks from multiple goroutines. An
// implementation that also satisfies io.Closer is closed by
// Column.Close.
type BlockSource interface {
	// BlockForm returns the decoded form of block i and the lease that
	// keeps its words valid. The caller must not mutate the form — the
	// source may hand the same form to concurrent callers — and must
	// not read it after releasing the lease: the source may then
	// recycle its words into the next block it decodes. On error the
	// lease is the zero Lease.
	BlockForm(i int) (*core.Form, Lease, error)
}

// Releaser ends one lease on a fetched form; see Lease.
type Releaser interface {
	Release()
}

// Lease is a reader's hold on a fetched form's words. While any lease
// on a form is held its words stay as decoded; once every lease is
// released (and, for a cached form, the cache has evicted it) the
// source may recycle them. The zero Lease holds nothing and releases
// nothing — what a resident form carries. A Lease is released once.
type Lease struct{ r Releaser }

// LeaseOf returns the lease whose Release calls r.Release.
func LeaseOf(r Releaser) Lease { return Lease{r} }

// Release ends the lease.
func (l Lease) Release() {
	if l.r != nil {
		l.r.Release()
	}
}

// BlockPrefetcher is the optional warm-ahead face of a BlockSource:
// PrefetchBlock hints that block i's payload will be needed soon, so
// the source can stage it (typically into the storage block cache)
// while the caller is busy decoding the current block. It must be
// asynchronous and best-effort — dropping a hint is always correct —
// and must accept a nil ctx, meaning no cancellation. The scan paths
// announce the next undecided block through it; sources without the
// method simply never see the hints.
type BlockPrefetcher interface {
	PrefetchBlock(ctx context.Context, i int)
}

// Column is a compressed column partitioned into blocks.
type Column struct {
	// N is the total logical length.
	N int
	// BlockSize is the partition size used at encode time; 0 means
	// the column is a single unpartitioned block.
	BlockSize int
	// Blocks holds the per-block index in row order. For in-memory
	// columns every Block carries its Form; for lazily opened columns
	// the forms are nil and fetched through Source.
	Blocks []Block
	// Parallelism is the worker bound used for encode, kept so
	// Decompress can mirror it. 0 means GOMAXPROCS.
	Parallelism int
	// Source, when non-nil, supplies forms for blocks whose Form is
	// nil (the lazy, file-backed path). In-memory columns leave it
	// nil.
	Source BlockSource

	// quarMu guards quar, the per-block quarantine ledger: block index
	// → the permanent error that condemned it. Quarantined blocks fail
	// fast on every later touch instead of re-fetching payload bytes
	// that are known bad (see faulttolerance.go).
	quarMu sync.Mutex
	quar   map[int]error
}

// form returns block i's form and its lease: the resident form with
// the zero lease when present, otherwise the form fetched from the
// column's Source. The caller releases the lease when it is done with
// the form. The resident branch is the hot path and stays
// allocation-free.
func (c *Column) form(i int) (*core.Form, Lease, error) {
	b := &c.Blocks[i]
	if b.Form != nil {
		return b.Form, Lease{}, nil
	}
	// Quarantine (which includes tombstones) is checked before the
	// source so a condemned block fails fast whether the column is
	// lazy or in-memory, instead of re-reading payload bytes that are
	// known bad — or, for a tombstone, do not exist at all.
	if qerr, ok := c.QuarantineError(i); ok {
		return nil, Lease{}, fmt.Errorf("%w: block %d: %w", ErrQuarantined, i, qerr)
	}
	if c.Source == nil {
		return nil, Lease{}, fmt.Errorf("%w: block %d has no form and the column has no source",
			core.ErrCorruptForm, i)
	}
	f, l, err := c.Source.BlockForm(i)
	if err != nil {
		if IsPermanent(err) {
			c.quarantine(i, err)
		}
		return nil, Lease{}, err
	}
	if f == nil || f.N != b.Count {
		l.Release()
		err := fmt.Errorf("%w: block %d fetched form does not match index count %d",
			core.ErrCorruptForm, i, b.Count)
		c.quarantine(i, err)
		return nil, Lease{}, err
	}
	return f, l, nil
}

// LeasedForm returns the decoded form of block i and the lease that
// keeps its words valid: the resident form with the zero lease for
// in-memory columns, a fetch through the source for lazily opened
// ones. Callers must not mutate the form, and must release the lease
// once done with it and not read the form afterwards.
func (c *Column) LeasedForm(i int) (*core.Form, Lease, error) {
	if i < 0 || i >= len(c.Blocks) {
		return nil, Lease{}, fmt.Errorf("blocked: block %d out of range [0, %d)", i, len(c.Blocks))
	}
	return c.form(i)
}

// BlockForm returns the decoded form of block i — the resident form
// for in-memory columns, a fetch through the source for lazily
// opened ones. Callers must not mutate the result. Its lease is never
// released, so a form handed out here is never recycled: it lives
// until the garbage collector frees it.
func (c *Column) BlockForm(i int) (*core.Form, error) {
	f, _, err := c.LeasedForm(i)
	return f, err
}

// Prefetch hints that block i will be needed soon, forwarding to the
// column's source when it can warm blocks ahead of need. Resident
// blocks, quarantined blocks, and sources without a prefetcher make
// it a no-op; ctx may be nil (no cancellation). The scan paths call
// it for the next undecided block while the current one decodes, so
// cold payload reads overlap decode instead of serializing with it.
func (c *Column) Prefetch(ctx context.Context, i int) {
	if i < 0 || i >= len(c.Blocks) || c.Blocks[i].Form != nil {
		return
	}
	p, ok := c.Source.(BlockPrefetcher)
	if !ok {
		return
	}
	if _, quarantined := c.QuarantineError(i); quarantined {
		return
	}
	p.PrefetchBlock(ctx, i)
}

// Close releases the column's backing source (an open container
// file, for example). It is a no-op for in-memory columns, so callers
// can defer it unconditionally.
func (c *Column) Close() error {
	if closer, ok := c.Source.(io.Closer); ok {
		return closer.Close()
	}
	return nil
}

// EncodeOptions controls Encode and Builder.
type EncodeOptions struct {
	// BlockSize partitions the input; <= 0 encodes the whole column
	// as one block.
	BlockSize int
	// Scheme, when non-nil, compresses every block with this fixed
	// scheme instead of running the analyzer.
	Scheme core.Scheme
	// CostBudget disqualifies candidates whose decompression cost per
	// element exceeds it (see core.Analyzer); 0 means unbounded.
	CostBudget float64
	// Parallelism bounds concurrent block encodes; <= 0 means
	// GOMAXPROCS.
	Parallelism int
	// Extra appends candidates to the per-block analyzer space.
	Extra []core.Candidate
}

// SearchSample is the prefix sample the analyzer compares candidates
// on: a block of at most this many values is searched whole, a longer
// one over its first SearchSample values.
const SearchSample = 1 << 16

func (o EncodeOptions) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// encodeBlock compresses one block under the options and returns its
// Block record with stats. The one-pass stats collected here feed
// both the block index ([min, max] skipping) and the analyzer's
// size-estimating candidate ranking, so a block is scanned for
// statistics exactly once. A block searched whole over exactly the
// default candidates, with no cost budget, is stamped with the search
// fingerprint. Temporaries come from s: workers that encode many
// blocks reuse one scratch arena across all of them.
func encodeBlock(src []int64, start int64, opt EncodeOptions, s *core.Scratch) (Block, error) {
	b := Block{Start: start, Count: len(src), HasStats: true}
	var f *core.Form
	var err error
	if opt.Scheme != nil {
		// Fixed scheme: the analyzer never runs, so the block index
		// needs only the extremes — skip the full collector, whose
		// histograms would otherwise cost about as much as the encode
		// itself.
		for i, v := range src {
			if i == 0 || v < b.Min {
				b.Min = v
			}
			if i == 0 || v > b.Max {
				b.Max = v
			}
		}
		f, err = core.CompressScratch(opt.Scheme, src, s)
	} else {
		st := core.CollectStats(src, s)
		b.Min, b.Max = st.Min, st.Max
		a := &core.Analyzer{
			Candidates: append(scheme.DefaultCandidates(&st), opt.Extra...),
			CostBudget: opt.CostBudget,
			SampleSize: SearchSample,
			Stats:      &st,
			Scratch:    s,
		}
		var choice *core.Choice
		choice, err = a.Best(src)
		st.ReleaseSeg(s)
		if err == nil {
			f = choice.Form
			if len(src) <= SearchSample && len(opt.Extra) == 0 && opt.CostBudget == 0 {
				b.Certificate = scheme.SearchFingerprint()
			}
		}
	}
	if err != nil {
		return Block{}, fmt.Errorf("blocked: block at row %d: %w", start, err)
	}
	b.Form = f
	return b, nil
}

// Encode partitions src into blocks, compresses every block
// independently (the per-block re-composition the paper's
// decomposition view enables), and returns the handle. Blocks are
// encoded concurrently, bounded by the option's parallelism.
func Encode(src []int64, opt EncodeOptions) (*Column, error) {
	col := &Column{N: len(src), Parallelism: opt.Parallelism}
	bs := opt.BlockSize
	if bs <= 0 || bs >= len(src) {
		// Whole column as one block (also the empty-column path so
		// that queries keep the free functions' exact semantics).
		s := core.GetScratch()
		b, err := encodeBlock(src, 0, opt, s)
		s.Release()
		if err != nil {
			return nil, err
		}
		col.Blocks = []Block{b}
		return col, nil
	}
	col.BlockSize = bs

	nblocks := (len(src) + bs - 1) / bs
	col.Blocks = make([]Block, nblocks)
	workers := opt.workers()
	if workers > nblocks {
		workers = nblocks
	}
	var (
		wg    sync.WaitGroup
		next  = make(chan int)
		errMu sync.Mutex
		first error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := core.GetScratch()
			defer s.Release()
			for i := range next {
				start := i * bs
				end := start + bs
				if end > len(src) {
					end = len(src)
				}
				b, err := encodeBlock(src[start:end], int64(start), opt, s)
				if err != nil {
					errMu.Lock()
					if first == nil {
						first = err
					}
					errMu.Unlock()
					continue
				}
				col.Blocks[i] = b
			}
		}()
	}
	for i := 0; i < nblocks; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	if first != nil {
		return nil, first
	}
	return col, nil
}

// EncodeTiled reports whether c's blocks partition its rows the way
// Encode partitions them at c.BlockSize: a single block when BlockSize
// is 0, otherwise blocks of BlockSize rows and one shorter tail, with
// BlockSize below N. Encoding the column's values again at its
// BlockSize then reproduces its block boundaries and its BlockSize.
func (c *Column) EncodeTiled() bool {
	bs := c.BlockSize
	if bs == 0 {
		return len(c.Blocks) == 1
	}
	if bs < 0 || bs >= c.N || len(c.Blocks) != (c.N+bs-1)/bs {
		return false
	}
	for i := range c.Blocks {
		if c.Blocks[i].Count != min(bs, c.N-i*bs) {
			return false
		}
	}
	return true
}

// FromForm adopts an existing (v1-style) form as a single-block
// column. withStats additionally computes the block's [min, max]
// from the form (enabling skipping); without it the column answers
// every query by delegation, which keeps adoption free.
func FromForm(f *core.Form, withStats bool) (*Column, error) {
	if f == nil {
		return nil, fmt.Errorf("blocked: FromForm(nil)")
	}
	b := Block{Form: f, Start: 0, Count: f.N}
	if withStats && f.N > 0 {
		lo, hi, err := query.MinMax(f)
		if err != nil {
			return nil, err
		}
		b.Min, b.Max, b.HasStats = lo, hi, true
	}
	return &Column{N: f.N, Blocks: []Block{b}}, nil
}

// NumBlocks returns the block count.
func (c *Column) NumBlocks() int { return len(c.Blocks) }

// Decompress reconstructs the full column, decoding blocks
// concurrently into one preallocated result.
func (c *Column) Decompress() ([]int64, error) {
	out := make([]int64, c.N)
	if err := c.DecompressInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressInto reconstructs the column into dst, whose length must
// equal c.N. It counts as a running scan while it decodes and sizes
// its workers as Scan does (scanWorkers): at most the column's
// parallelism, one per block, and the cores the other running scans
// leave idle, the caller among them. Each worker draws temporaries
// from a pooled scratch arena, so a reused destination makes
// steady-state decode allocation-free.
func (c *Column) DecompressInto(dst []int64) error {
	if len(dst) != c.N {
		return fmt.Errorf("%w: DecompressInto dst length %d, column declares %d",
			core.ErrCorruptForm, len(dst), c.N)
	}
	others := running.Add(1) - 1
	defer running.Add(-1)
	workers := scanWorkers(c.Parallelism, len(c.Blocks), others)
	if workers == 1 {
		s := core.GetScratch()
		defer s.Release()
		for i := range c.Blocks {
			if i+1 < len(c.Blocks) {
				c.Prefetch(nil, i+1)
			}
			if err := c.decompressBlockInto(dst, i, s); err != nil {
				return err
			}
		}
		return nil
	}
	return ParallelFor(workers, len(c.Blocks), func(i int) error {
		if i+1 < len(c.Blocks) {
			c.Prefetch(nil, i+1)
		}
		s := core.GetScratch()
		defer s.Release()
		return c.decompressBlockInto(dst, i, s)
	})
}

func (c *Column) decompressBlockInto(out []int64, i int, s *core.Scratch) error {
	b := &c.Blocks[i]
	f, l, err := c.form(i)
	if err != nil {
		return err
	}
	defer l.Release()
	if f.N != b.Count {
		return fmt.Errorf("%w: block %d form does not match index count %d",
			core.ErrCorruptForm, i, b.Count)
	}
	if err := core.DecompressInto(f, out[b.Start:b.Start+int64(b.Count)], s); err != nil {
		return fmt.Errorf("blocked: block %d: %w", i, err)
	}
	return nil
}

// Min returns the exact column minimum. Blocks with recorded stats
// answer from the index; others delegate to the form.
func (c *Column) Min() (int64, error) {
	if c.N == 0 {
		return 0, fmt.Errorf("query: Min of empty column")
	}
	have := false
	var m int64
	for i := range c.Blocks {
		b := &c.Blocks[i]
		if b.Count == 0 {
			continue
		}
		v := b.Min
		if !b.HasStats {
			f, l, err := c.form(i)
			if err != nil {
				return 0, err
			}
			v, err = query.Min(f)
			l.Release()
			if err != nil {
				return 0, err
			}
		}
		if !have || v < m {
			m, have = v, true
		}
	}
	if !have {
		return 0, fmt.Errorf("query: Min of empty column")
	}
	return m, nil
}

// Max returns the exact column maximum, symmetric with Min.
func (c *Column) Max() (int64, error) {
	if c.N == 0 {
		return 0, fmt.Errorf("query: Max of empty column")
	}
	have := false
	var m int64
	for i := range c.Blocks {
		b := &c.Blocks[i]
		if b.Count == 0 {
			continue
		}
		v := b.Max
		if !b.HasStats {
			f, l, err := c.form(i)
			if err != nil {
				return 0, err
			}
			v, err = query.Max(f)
			l.Release()
			if err != nil {
				return 0, err
			}
		}
		if !have || v > m {
			m, have = v, true
		}
	}
	if !have {
		return 0, fmt.Errorf("query: Max of empty column")
	}
	return m, nil
}

// RangeClass is the stat-pruning trichotomy for a range predicate
// against a block's [min, max]: refuted, proved, or undecided. The
// table-scan planner consumes it to skip block fetches per conjunct.
type RangeClass uint8

const (
	// RangeMiss: the stats refute the predicate — no row can match.
	RangeMiss RangeClass = iota
	// RangeAll: the stats prove the predicate — every row matches.
	RangeAll
	// RangePart: the stats cannot decide; the payload must be
	// consulted. Blocks without recorded stats always classify here.
	RangePart
)

// ClassifyRange places the value range [lo, hi] against the block's
// stats. An empty range (lo > hi) is always a miss.
func (b *Block) ClassifyRange(lo, hi int64) RangeClass {
	if lo > hi {
		return RangeMiss
	}
	if !b.HasStats {
		return RangePart
	}
	if b.Max < lo || b.Min > hi {
		return RangeMiss
	}
	if b.Min >= lo && b.Max <= hi {
		return RangeAll
	}
	return RangePart
}

// ParallelFor fans fn out over indices [0, n) from min(workers, n)
// goroutines, drawing work from an atomic counter, and returns the
// first error (workers drain remaining indices after an error —
// blocks are independent and bounded, so cancellation plumbing is not
// worth its cost). The caller is worker 0: it starts only the other
// workers − 1 as helpers and runs the same loop itself. Callers keep
// their workers<=1 loops inline: constructing the fn closure
// allocates, which the serial zero-alloc scan paths must avoid.
func ParallelFor(workers, n int, fn func(i int) error) error {
	l := &forLoop{fn: fn, n: n}
	l.next.Store(-1)
	for range min(workers, n) - 1 {
		l.wg.Add(1)
		go l.helper()
	}
	// The last goroutine started waits in this P's next-to-run slot,
	// which an idle P steals only after a 3 µs back-off that the OS timer
	// slack stretches to tens of µs. One more, empty, goroutine moves the
	// last helper to the run queue, where an idle P takes it at once; on
	// busy cores nothing takes it, the caller visits every index, and
	// the helper finds none left.
	go func() {}()
	l.work()
	l.wg.Wait()
	return l.first
}

// forLoop is one ParallelFor call's shared state, held in one
// allocation.
type forLoop struct {
	fn    func(i int) error
	n     int
	next  atomic.Int64
	wg    sync.WaitGroup
	mu    sync.Mutex
	first error
}

// helper is the loop of a worker other than the caller.
func (l *forLoop) helper() {
	defer l.wg.Done()
	l.work()
}

// work is one worker's loop: it draws indices until none is left and
// keeps the first error.
func (l *forLoop) work() {
	for {
		i := int(l.next.Add(1))
		if i >= l.n {
			return
		}
		if err := l.call(i); err != nil {
			l.mu.Lock()
			if l.first == nil {
				l.first = err
			}
			l.mu.Unlock()
		}
	}
}

// call shields every worker, the caller included, from panics in fn: a
// panic in one block's kernel must surface as that block's error, not
// kill the whole process (a server runs these workers on behalf of
// HTTP requests).
func (l *forLoop) call(i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			recoveredPanics.Add(1)
			err = fmt.Errorf("blocked: panic in parallel worker on index %d: %v", i, r)
		}
	}()
	return l.fn(i)
}

// SelectBlockRangeSel evaluates the predicate lo ≤ v ≤ hi on block i
// alone, ORing the block's matches into dst at bit offset base (row r
// of the block sets bit base+r). Stats prune first: a refuted block
// touches nothing and a proved block emits its whole span as one run,
// neither fetching the payload — only RangePart blocks decode,
// through the fused kernels where the form allows. It is the leaf
// evaluation hook of the table-scan planner, which drives one call
// per undecided block per predicate leaf and intersects the results.
func (c *Column) SelectBlockRangeSel(i int, lo, hi int64, dst *sel.Selection, base int) error {
	if i < 0 || i >= len(c.Blocks) {
		return fmt.Errorf("blocked: block %d out of range [0, %d)", i, len(c.Blocks))
	}
	b := &c.Blocks[i]
	if b.Count == 0 {
		return nil
	}
	switch b.ClassifyRange(lo, hi) {
	case RangeMiss:
		return nil
	case RangeAll:
		dst.AddRun(base, b.Count)
		return nil
	}
	f, l, err := c.form(i)
	if err != nil {
		return err
	}
	defer l.Release()
	return query.SelectRangeSel(f, lo, hi, dst, base)
}

// KeepBlockRange intersects dst with the predicate lo ≤ v ≤ hi on
// block i alone: row r of the block is bit r of dst, and a set bit
// stays set only when its row's value lies in [lo, hi]. Stats decide
// first, neither fetching the payload: a refuted block clears the
// block's rows, and a proved block leaves them. Only RangePart blocks
// decode, through query.KeepRangeSel, which reads just the rows dst
// holds where the form allows. It is how the table-scan planner runs a
// conjunct after the first.
func (c *Column) KeepBlockRange(i int, lo, hi int64, dst *sel.Selection) error {
	if i < 0 || i >= len(c.Blocks) {
		return fmt.Errorf("blocked: block %d out of range [0, %d)", i, len(c.Blocks))
	}
	b := &c.Blocks[i]
	switch b.ClassifyRange(lo, hi) {
	case RangeMiss:
		dst.ClearRun(0, b.Count)
		return nil
	case RangeAll:
		return nil
	}
	f, l, err := c.form(i)
	if err != nil {
		return err
	}
	defer l.Release()
	return query.KeepRangeSel(f, lo, hi, dst, 0)
}

// DecompressBlock decodes block i alone into dst, whose length must
// equal the block's count. The table scan's late-materialization
// paths use it to decode only the blocks holding surviving rows;
// temporaries come from the pooled scratch arena, so a reused dst
// keeps the steady state allocation-free.
func (c *Column) DecompressBlock(i int, dst []int64) error {
	if i < 0 || i >= len(c.Blocks) {
		return fmt.Errorf("blocked: block %d out of range [0, %d)", i, len(c.Blocks))
	}
	b := &c.Blocks[i]
	if len(dst) != b.Count {
		return fmt.Errorf("%w: DecompressBlock dst length %d, block %d holds %d",
			core.ErrCorruptForm, len(dst), i, b.Count)
	}
	f, l, err := c.form(i)
	if err != nil {
		return err
	}
	defer l.Release()
	s := core.GetScratch()
	defer s.Release()
	if err := core.DecompressInto(f, dst, s); err != nil {
		return fmt.Errorf("blocked: block %d: %w", i, err)
	}
	return nil
}

// SumBlock returns the exact sum of block i, computed on the
// compressed form (runs and models sum without materializing). The
// table scan uses it for blocks whose every row survives the
// predicate, where decoding would be pure waste.
func (c *Column) SumBlock(i int) (int64, error) {
	if i < 0 || i >= len(c.Blocks) {
		return 0, fmt.Errorf("blocked: block %d out of range [0, %d)", i, len(c.Blocks))
	}
	f, l, err := c.form(i)
	if err != nil {
		return 0, err
	}
	defer l.Release()
	return query.Sum(f)
}

// SumBlockSel returns the sum of the rows of block i that bm selects —
// row r of the block counts when bit base+r is set — on the compressed
// form (query.SumSel): the table scan uses it for blocks only some rows
// of survive, which it would otherwise decode just to mask.
func (c *Column) SumBlockSel(i int, bm *sel.Selection, base int) (int64, error) {
	if i < 0 || i >= len(c.Blocks) {
		return 0, fmt.Errorf("blocked: block %d out of range [0, %d)", i, len(c.Blocks))
	}
	f, l, err := c.form(i)
	if err != nil {
		return 0, err
	}
	defer l.Release()
	return query.SumSel(f, bm, base)
}

// BoundariesEqual reports whether c and o partition their rows
// identically: same length, same block count, and the same
// (start, count) for every block. Identical boundaries are what lets
// the table-scan planner intersect per-column block verdicts
// block-by-block; columns encoded from equal-length inputs with the
// same block size always align.
func (c *Column) BoundariesEqual(o *Column) bool {
	if c.N != o.N || len(c.Blocks) != len(o.Blocks) {
		return false
	}
	for i := range c.Blocks {
		if c.Blocks[i].Start != o.Blocks[i].Start || c.Blocks[i].Count != o.Blocks[i].Count {
			return false
		}
	}
	return true
}

// CacheStats reports the block-cache traffic a cached block source
// has served — lookups by outcome, evictions, and resident bytes
// against budget.
type CacheStats struct {
	// Hits and Misses count cache lookups by outcome.
	Hits, Misses int64
	// Evictions counts entries dropped to make room.
	Evictions int64
	// Decodes counts payload→form decodes performed on the way into the
	// cache; a hit performs none.
	Decodes int64
	// Reused counts the decodes whose words went into a slab an
	// evicted block had released, taken from the free list instead of
	// allocated.
	Reused int64
	// BytesUsed is the encoded payload total of the resident blocks.
	BytesUsed int64
	// BytesBudget is the configured capacity.
	BytesBudget int64
}

// ScanCounters is the cumulative block-level outcome tally of a
// table's scans: how many blocks the stats refuted (skipped without a
// fetch), proved (emitted as whole runs without a fetch), and left
// undecided (payload consulted), and how many helper goroutines
// visited the undecided ones beside the scans' callers. Like
// CacheStats, the canonical type lives here so both the table planner
// and a server's metrics endpoint can speak it without import cycles.
type ScanCounters struct {
	// Skipped counts blocks refuted by stats — never fetched.
	Skipped int64
	// Proved counts blocks proved by stats — emitted whole, never
	// fetched.
	Proved int64
	// Fetched counts undecided blocks whose payloads were consulted.
	Fetched int64
	// Helpers counts the goroutines scans started beside their callers
	// to visit the fetched blocks (see Scan).
	Helpers int64
}

// CacheStatsSource is implemented by block sources backed by a shared
// payload cache (the lazily opened container's per-column readers).
type CacheStatsSource interface {
	// CacheStats snapshots the source's cache counters.
	CacheStats() CacheStats
}

// CacheStats snapshots the block-cache counters behind a lazily
// opened column — the owning container's CacheStats, reachable here
// without holding the container handle. ok is false
// for in-memory columns and sources without a cache.
func (c *Column) CacheStats() (stats CacheStats, ok bool) {
	if s, isCached := c.Source.(CacheStatsSource); isCached {
		return s.CacheStats(), true
	}
	return CacheStats{}, false
}

// SkipStats reports how block skipping would treat a range query:
// blocks skipped outright, emitted whole, and consulted. Benchmarks
// and Describe use it to make pruning observable.
func (c *Column) SkipStats(lo, hi int64) (skipped, whole, consulted int) {
	for i := range c.Blocks {
		switch c.Blocks[i].ClassifyRange(lo, hi) {
		case RangeMiss:
			skipped++
		case RangeAll:
			whole++
		case RangePart:
			consulted++
		}
	}
	return
}

// PointLookup returns one element by row position: a binary search
// over the block index, then the block form's random-access path.
func (c *Column) PointLookup(row int64) (int64, error) {
	if row < 0 || row >= int64(c.N) {
		return 0, fmt.Errorf("query: row %d out of range [0, %d)", row, c.N)
	}
	// First block whose Start is > row, minus one.
	i := sort.Search(len(c.Blocks), func(i int) bool { return c.Blocks[i].Start > row }) - 1
	if i < 0 || row >= c.Blocks[i].Start+int64(c.Blocks[i].Count) {
		return 0, fmt.Errorf("%w: block index does not cover row %d", core.ErrCorruptForm, row)
	}
	f, l, err := c.form(i)
	if err != nil {
		return 0, err
	}
	defer l.Release()
	return query.PointLookup(f, row-c.Blocks[i].Start)
}

// ApproxSum brackets the column sum by aggregating per-block model
// bounds (interval arithmetic distributes over the block partition).
func (c *Column) ApproxSum() (query.Interval, error) {
	var total query.Interval
	for i := range c.Blocks {
		f, l, err := c.form(i)
		if err != nil {
			return query.Interval{}, err
		}
		iv, err := query.ApproxSum(f)
		l.Release()
		if err != nil {
			return query.Interval{}, err
		}
		total.Lower += iv.Lower
		total.Upper += iv.Upper
	}
	return total, nil
}

// EncodedBits sums the analytic payload size of every block form.
// On a lazily opened column this decodes every block; blocks whose
// payload cannot be read contribute zero.
func (c *Column) EncodedBits() uint64 {
	var total uint64
	for i := range c.Blocks {
		f, l, err := c.form(i)
		if err != nil {
			continue
		}
		total += f.PayloadBits()
		l.Release()
	}
	return total
}

// BlockSchemes returns each block's scheme expression, in row order.
// On a lazily opened column this decodes every block; an unreadable
// block renders as an error note instead of a scheme.
func (c *Column) BlockSchemes() []string {
	out := make([]string, len(c.Blocks))
	for i := range c.Blocks {
		out[i] = c.describeBlock(i)
	}
	return out
}

// describeBlock renders block i's scheme expression, degrading to an
// error note when the block's payload cannot be fetched (Describe and
// BlockSchemes have no error to return).
func (c *Column) describeBlock(i int) string {
	f, l, err := c.form(i)
	if err != nil {
		return fmt.Sprintf("<unreadable: %v>", err)
	}
	defer l.Release()
	return f.Describe()
}

// Describe renders the column's structure. A single-block column
// describes exactly like its form; a partitioned column lists the
// block size and each distinct scheme with the block ranges it won,
// making per-block re-composition directly observable.
func (c *Column) Describe() string {
	if len(c.Blocks) == 1 && c.BlockSize == 0 {
		return c.describeBlock(0)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "blocked(n=%d, block=%d, blocks=%d)", c.N, c.BlockSize, len(c.Blocks))
	for _, g := range c.schemeRuns() {
		if g.from == g.to {
			fmt.Fprintf(&b, "\n  [%d] %s", g.from, g.desc)
		} else {
			fmt.Fprintf(&b, "\n  [%d-%d] %s", g.from, g.to, g.desc)
		}
	}
	return b.String()
}

type schemeRun struct {
	from, to int
	desc     string
}

// schemeRuns groups consecutive blocks with identical scheme
// expressions.
func (c *Column) schemeRuns() []schemeRun {
	var runs []schemeRun
	for i := range c.Blocks {
		desc := c.describeBlock(i)
		if len(runs) > 0 && runs[len(runs)-1].desc == desc {
			runs[len(runs)-1].to = i
			continue
		}
		runs = append(runs, schemeRun{from: i, to: i, desc: desc})
	}
	return runs
}

// Validate checks the handle structurally: the block index must tile
// [0, N) exactly and every resident form must validate. On a lazily
// opened column, blocks whose forms are not resident are validated by
// index only — their payloads are checked (CRC, shape) at first touch
// by the source.
func (c *Column) Validate() error {
	var next int64
	for i := range c.Blocks {
		b := &c.Blocks[i]
		if b.Start != next {
			return fmt.Errorf("%w: block %d starts at %d, want %d", core.ErrCorruptForm, i, b.Start, next)
		}
		if b.Count < 0 {
			return fmt.Errorf("%w: block %d has negative count", core.ErrCorruptForm, i)
		}
		if b.Tombstone {
			// A tombstone is structurally valid without a form or
			// payload: its rows are declared lost, and every fetch
			// fails fast with ErrTombstone.
			if b.Form != nil {
				return fmt.Errorf("%w: block %d is tombstoned but carries a form", core.ErrCorruptForm, i)
			}
			next += int64(b.Count)
			continue
		}
		if b.Form == nil && c.Source == nil {
			return fmt.Errorf("%w: block %d has no form", core.ErrCorruptForm, i)
		}
		if b.Form != nil {
			if b.Form.N != b.Count {
				return fmt.Errorf("%w: block %d form length %d, index says %d",
					core.ErrCorruptForm, i, b.Form.N, b.Count)
			}
			if err := b.Form.Validate(); err != nil {
				return err
			}
		}
		if b.HasStats && b.Min > b.Max {
			return fmt.Errorf("%w: block %d stats min %d > max %d", core.ErrCorruptForm, i, b.Min, b.Max)
		}
		next += int64(b.Count)
	}
	if next != int64(c.N) {
		return fmt.Errorf("%w: blocks cover %d rows, column declares %d", core.ErrCorruptForm, next, c.N)
	}
	return nil
}
