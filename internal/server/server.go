package server

import (
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lwcomp"
	"lwcomp/internal/compact"
	"lwcomp/internal/scrub"
	"lwcomp/internal/storage"
)

// Config is the server's resource-governance configuration. The zero
// value of every field means "use the default"; withDefaults fills
// them in.
type Config struct {
	// Dir is the directory of *.lwc containers to mount as tables.
	Dir string
	// CacheBytes is the one byte budget every mounted container's
	// block cache shares; 0 means DefaultCacheBytes, negative
	// disables caching.
	CacheBytes int64
	// MaxConcurrent bounds in-flight queries (the admission limit);
	// <= 0 means 2x GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds queries waiting for an admission slot beyond
	// MaxConcurrent; past it the server answers 429 with Retry-After.
	// 0 means 4x MaxConcurrent; negative means no queueing (reject
	// the moment every slot is busy).
	MaxQueue int
	// QueryTimeout is the per-query deadline; a request's timeout_ms
	// may shorten but never extend it. 0 means 30s.
	QueryTimeout time.Duration
	// Parallelism bounds each scan's concurrent block workers
	// (WithParallelism); 0 means GOMAXPROCS. It is an upper bound: a
	// scan takes only the cores other running scans leave idle.
	Parallelism int
	// BatchRows is the default row count per streamed NDJSON frame;
	// 0 means 4096, and more than 65,536 means 65,536 (maxBatchRows).
	BatchRows int
	// ReadRetries bounds how many times a transiently failed container
	// read is re-issued (capped exponential backoff, 1ms doubling to
	// 50ms) before the error surfaces; 0 means 3, negative disables
	// retrying. Integrity failures are permanent and never retried.
	ReadRetries int
	// FaultInjection, when non-nil, wraps every mounted container's
	// reader — the hook fault-injection tests use to exercise the retry
	// and quarantine paths (see internal/faults).
	FaultInjection func(io.ReaderAt) io.ReaderAt
	// Compact enables the background recompaction daemon: periodic
	// low-priority sweeps that re-analyze each mounted container and
	// atomically rewrite the ones whose byte win clears the threshold
	// (see internal/compact). Sweeps yield to query traffic and never
	// take an admission slot.
	Compact bool
	// CompactInterval is the pause between background sweeps; 0 means
	// 1m. Ignored unless Compact is set.
	CompactInterval time.Duration
	// CompactMinGainBytes is the rewrite threshold in absolute bytes;
	// 0 means compact.DefaultMinGainBytes, negative means any positive
	// gain.
	CompactMinGainBytes int64
	// CompactMinGainFraction additionally requires the gain to clear
	// this fraction of the old container's size; 0 disables.
	CompactMinGainFraction float64
	// CompactMerge also coalesces groups of small same-table
	// single-column containers into one container per table.
	CompactMerge bool
	// Scrub enables the background scrubber: periodic low-priority
	// sweeps that fsck-walk every mounted container from disk under a
	// byte-rate budget and quarantine rotten blocks on the mounted
	// columns before a query trips over them (see internal/scrub).
	// Sweeps yield to query traffic and never take an admission slot.
	Scrub bool
	// ScrubInterval is the pause between scrub sweeps; 0 means 5m.
	// Ignored unless Scrub is set.
	ScrubInterval time.Duration
	// ScrubRateBytes caps the scrubber's read bandwidth in bytes per
	// second; 0 means 8 MiB/s, negative means unthrottled.
	ScrubRateBytes int64
	// ScrubHeal additionally salvage-repairs each damaged container a
	// sweep finds — preserving good blocks byte-for-byte, tombstoning
	// truly lost ones — and reloads so the healed generation serves.
	ScrubHeal bool
}

// maxBatchRows caps the rows of one streamed NDJSON frame, whatever a
// request's batch_rows or Config.BatchRows asks for: a frame is
// built whole in one buffer, about 21 bytes a value at worst.
const maxBatchRows = 1 << 16

// DefaultCacheBytes is the shared block-cache budget used when the
// config does not set one: generous enough to keep a working set of
// hot blocks resident across several mounted tables, bounded enough
// that a server over a multi-GB mount does not page.
const DefaultCacheBytes int64 = 256 << 20

// withDefaults fills zero config fields with serving defaults.
func (c Config) withDefaults() Config {
	if c.CacheBytes == 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.BatchRows <= 0 {
		c.BatchRows = 4096
	}
	c.BatchRows = min(c.BatchRows, maxBatchRows)
	if c.ReadRetries == 0 {
		c.ReadRetries = 3
	}
	if c.Compact && c.CompactInterval <= 0 {
		c.CompactInterval = time.Minute
	}
	if c.Scrub && c.ScrubInterval <= 0 {
		c.ScrubInterval = 5 * time.Minute
	}
	if c.ScrubRateBytes == 0 {
		c.ScrubRateBytes = 8 << 20
	}
	return c
}

// retryPolicy maps the ReadRetries knob onto the storage layer's
// backoff policy.
func (c Config) retryPolicy() storage.RetryPolicy {
	if c.ReadRetries <= 0 {
		return storage.RetryPolicy{}
	}
	return storage.RetryPolicy{
		MaxRetries: c.ReadRetries,
		BaseDelay:  time.Millisecond,
		MaxDelay:   50 * time.Millisecond,
	}
}

// Server serves Table scans over a mounted directory of containers.
// Create one with New, expose Handler on an http.Server (or call
// ListenAndServe), and Close it when done.
type Server struct {
	cfg   Config
	cache *lwcomp.SharedBlockCache
	gate  *gate
	met   *metrics
	start time.Time

	mu     sync.RWMutex
	mounts *mountSet
	closed atomic.Bool

	// reloading and draining drive /readyz: a reload in progress, or a
	// retired mount set whose containers have not closed yet, means
	// "serving but not ready for more traffic".
	reloading atomic.Int64
	draining  atomic.Int64

	// The maintenance plane (maintain.go): stop closes on Close, ending
	// the loops counted in loops and aborting any sweep at its next
	// yield; sweepMu lets one sweep run at a time.
	stop    chan struct{}
	loops   sync.WaitGroup
	sweepMu sync.Mutex

	// The recompaction sweep (nil/zero unless cfg.Compact): compactor
	// does the rewrites, the counters feed /metrics.
	compactor     *compact.Compactor
	compactSweeps sweepCounters

	// The scrub sweep (its loop runs only with cfg.Scrub, but the
	// scrubber itself always exists so /-/scrub can trigger sweeps on
	// demand): counters feed the /metrics scrub section.
	scrubber          *scrub.Scrubber
	scrubSweeps       sweepCounters
	scrubQuarantined  atomic.Int64
	scrubHealed       atomic.Int64
	scrubUnrepairable atomic.Int64
}

// New builds a server over cfg and performs the initial mount. An
// empty or all-skipped directory is not an error — the catalog is
// just empty until a reload finds containers.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		cache:    lwcomp.NewSharedBlockCache(cfg.CacheBytes),
		gate:     newGate(cfg.MaxConcurrent, cfg.MaxQueue),
		met:      newMetrics(),
		start:    time.Now(),
		stop:     make(chan struct{}),
		scrubber: scrub.New(cfg.scrubOptions()),
	}
	// Startup janitor: a crash mid-write leaves orphaned
	// .<name>.tmp-* files; no writer can be mid-flight before the
	// first mount, so age 0 is safe.
	if removed, err := storage.SweepTempFiles(cfg.Dir, 0); err == nil && len(removed) > 0 {
		log.Printf("lwcd: removed %d orphaned temp file(s) left by an interrupted write", len(removed))
	}
	if err := s.Reload(); err != nil {
		return nil, err
	}
	if cfg.Compact {
		s.compactor = compact.New(cfg.compactOptions())
	}
	s.startMaintenance()
	return s, nil
}

// errClosed is Reload's refusal on a closed server: nothing would ever
// retire the set it mounted.
var errClosed = errors.New("server closed")

// Reload re-mounts the configured directory and atomically swaps the
// served table set. In-flight queries finish against the set they
// started on; the old set's containers close when its last query
// drains. On error the previous set keeps serving untouched; once the
// server is closed, Reload fails with errClosed.
func (s *Server) Reload() error {
	s.reloading.Add(1)
	defer s.reloading.Add(-1)
	// Reload-time janitor: only litter old enough that no live writer
	// (a compact or repair mid-swap) can still own it.
	storage.SweepTempFiles(s.cfg.Dir, time.Minute)
	ms, err := mountDir(s.cfg, s.cache)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed.Load() {
		// Close retires whatever set it finds under mu; this one came
		// too late to be found.
		s.mu.Unlock()
		ms.retire(nil)
		return errClosed
	}
	old := s.mounts
	s.mounts = ms
	s.mu.Unlock()
	if old != nil {
		s.draining.Add(1)
		old.retire(func() { s.draining.Add(-1) })
	}
	return nil
}

// Close retires the mounted set, closing its containers once the last
// in-flight query drains. The server rejects new queries afterwards.
func (s *Server) Close() error {
	if s.closed.CompareAndSwap(false, true) {
		// Stop the maintenance plane first and wait it out: the loops
		// exit, and a sweep — background or on demand — finishes the
		// container it is on (an atomic write included), aborts at its
		// next yield, and takes no reload past this point.
		close(s.stop)
		s.loops.Wait()
		s.sweepMu.Lock() // waits out a running sweep
		s.sweepMu.Unlock()
	}
	s.mu.Lock()
	old := s.mounts
	s.mounts = newMountSet(nil)
	s.mu.Unlock()
	if old != nil {
		old.retire(nil)
	}
	return nil
}

// Ready reports whether the server should pass readiness probes: not
// closed, no reload in progress, and no retired mount set still
// draining — /readyz reads through this.
func (s *Server) Ready() bool {
	return !s.closed.Load() && s.reloading.Load() == 0 && s.draining.Load() == 0
}

// Table returns the named table's scan handle from the current mount
// set — the hook fault-injection tests use to wrap a mounted column's
// block source. The handle is safe to use only
// while no reload retires the set it came from.
func (s *Server) Table(name string) (*lwcomp.Table, bool) {
	ms := s.acquireMounts()
	defer ms.release()
	mt, ok := ms.tables[name]
	if !ok {
		return nil, false
	}
	return mt.tbl, true
}

// Tables returns the currently mounted table names, sorted — the
// catalog handler and tests read through this.
func (s *Server) Tables() []string {
	ms := s.acquireMounts()
	defer ms.release()
	return append([]string(nil), ms.names...)
}

// acquireMounts returns the current mounted set with a reference
// held; callers must release it when their query finishes so retired
// sets can close.
func (s *Server) acquireMounts() *mountSet {
	s.mu.RLock()
	ms := s.mounts
	ms.acquire()
	s.mu.RUnlock()
	return ms
}

// ListenAndServe serves on addr until ctx is cancelled, reloading the
// mount on SIGHUP. It prints one line when ready (the smoke tests and
// process supervisors key off it) and shuts down gracefully, letting
// in-flight queries finish.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("lwcd: serving %d table(s) from %s on http://%s", len(s.Tables()), s.cfg.Dir, ln.Addr())
	srv := &http.Server{Handler: s.Handler()}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			select {
			case <-done:
				return
			case <-hup:
				if err := s.Reload(); err != nil {
					log.Printf("lwcd: reload failed (still serving the previous set): %v", err)
				} else {
					log.Printf("lwcd: reloaded, %d table(s)", len(s.Tables()))
				}
			}
		}
	}()
	go func() {
		select {
		case <-done:
		case <-ctx.Done():
			shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(shutCtx)
		}
	}()
	err = srv.Serve(ln)
	s.Close()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Main is the shared entry point of `lwcd` and `lwc serve`: parse
// flags, mount, serve until SIGINT/SIGTERM.
func Main(args []string) error {
	fs := flag.NewFlagSet("lwcd", flag.ContinueOnError)
	var cfg Config
	addr := fs.String("addr", "127.0.0.1:7207", "listen address")
	fs.StringVar(&cfg.Dir, "dir", ".", "directory of *.lwc containers to mount as tables")
	fs.Int64Var(&cfg.CacheBytes, "cache-bytes", 0, "shared block-cache byte budget across all tables (0 = 256 MiB, negative = uncached)")
	fs.IntVar(&cfg.MaxConcurrent, "max-concurrent", 0, "admission limit on in-flight queries (0 = 2x GOMAXPROCS)")
	fs.IntVar(&cfg.MaxQueue, "max-queue", 0, "queries queued beyond the admission limit before 429 (0 = 4x max-concurrent, negative = none)")
	fs.DurationVar(&cfg.QueryTimeout, "timeout", 0, "per-query deadline (0 = 30s)")
	fs.IntVar(&cfg.Parallelism, "parallel", 0, "most concurrent block workers per scan (0 = GOMAXPROCS); a scan takes only the cores other running scans leave idle")
	fs.IntVar(&cfg.BatchRows, "batch-rows", 0, "rows per streamed NDJSON frame (0 = 4096, at most 65536)")
	fs.IntVar(&cfg.ReadRetries, "read-retries", 0, "retries per transiently failed container read (0 = 3, negative = none)")
	fs.BoolVar(&cfg.Compact, "compact", false, "run the background recompaction daemon over -dir")
	fs.DurationVar(&cfg.CompactInterval, "compact-interval", 0, "pause between background compaction sweeps (0 = 1m)")
	fs.Int64Var(&cfg.CompactMinGainBytes, "compact-min-gain", 0, "rewrite threshold in bytes (0 = 4096, negative = any gain)")
	fs.Float64Var(&cfg.CompactMinGainFraction, "compact-min-gain-frac", 0, "rewrite threshold as a fraction of the old container size (0 = off)")
	fs.BoolVar(&cfg.CompactMerge, "compact-merge", false, "also merge small same-table single-column containers")
	fs.BoolVar(&cfg.Scrub, "scrub", false, "run the background scrubber over the mounted containers")
	fs.DurationVar(&cfg.ScrubInterval, "scrub-interval", 0, "pause between background scrub sweeps (0 = 5m)")
	fs.Int64Var(&cfg.ScrubRateBytes, "scrub-rate", 0, "scrub read-bandwidth cap in bytes/s (0 = 8 MiB/s, negative = unthrottled)")
	fs.BoolVar(&cfg.ScrubHeal, "scrub-heal", false, "salvage-repair damaged containers found by scrub sweeps")
	if err := fs.Parse(args); err != nil {
		return err
	}
	srv, err := New(cfg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return srv.ListenAndServe(ctx, *addr)
}

// errSaturated is the admission gate's rejection: every slot busy and
// the queue full. The handler maps it to 429 with Retry-After.
var errSaturated = errors.New("server saturated: every query slot busy and the queue full")

// gate is the admission controller: a semaphore of query slots plus a
// bounded count of waiters. It is what stands between heavy traffic
// and collapse — past the queue bound, queries are rejected in O(1)
// instead of piling onto the scan engine.
type gate struct {
	slots    chan struct{}
	maxQueue int
	queued   atomic.Int64
}

// newGate returns a gate admitting maxConcurrent queries with
// maxQueue waiters (negative: none).
func newGate(maxConcurrent, maxQueue int) *gate {
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &gate{slots: make(chan struct{}, maxConcurrent), maxQueue: maxQueue}
}

// acquire takes a query slot, waiting in the bounded queue when all
// are busy. It returns errSaturated past the queue bound and ctx.Err()
// if the request expires while queued.
func (g *gate) acquire(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	if g.queued.Add(1) > int64(g.maxQueue) {
		g.queued.Add(-1)
		return errSaturated
	}
	defer g.queued.Add(-1)
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns a slot.
func (g *gate) release() { <-g.slots }

// inFlight is the admitted-query gauge.
func (g *gate) inFlight() int { return len(g.slots) }

// waiting is the queued-query gauge.
func (g *gate) waiting() int64 { return g.queued.Load() }
