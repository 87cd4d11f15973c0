// Package faults provides deterministic, seeded fault injection for
// the storage read path. Its wrappers sit at the two seams the rest of
// the tree already exposes — io.ReaderAt below a container
// (storage.OpenOptions.WrapReader) and blocked.BlockSource above it
// (Column.Source) — and inject transient read errors, added latency,
// payload bit-flips, and panics on command.
//
// Every decision is a pure function of (seed, offset, per-offset
// attempt number), never of wall-clock time or goroutine scheduling,
// so a run with N parallel scan workers injects exactly the same
// faults as a serial one, and tests can assert on them.
package faults

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"lwcomp/internal/blocked"
	"lwcomp/internal/core"
)

// ErrInjected is the transient read error the ReaderAt wrapper
// injects. It carries no permanent-error marker, so the storage retry
// layer treats it — correctly — as retryable.
var ErrInjected = errors.New("faults: injected transient read error")

// Config tunes a fault-injecting ReaderAt.
type Config struct {
	// Seed makes the injection deterministic; two wrappers with the
	// same seed and config fail the same offsets.
	Seed int64
	// TransientProb is the probability in [0, 1] that a given read
	// offset is fault-prone. A fault-prone offset fails its first
	// MaxConsecutive reads with ErrInjected, then succeeds — so any
	// retry budget above MaxConsecutive absorbs every injected fault.
	TransientProb float64
	// MaxConsecutive bounds how many times a fault-prone offset fails
	// before reads of it succeed. 0 means 2.
	MaxConsecutive int
	// Latency is added to every read, modeling slow media.
	Latency time.Duration
	// FlipOffsets lists absolute file offsets whose byte has its low
	// bit flipped on every read covering it — persistent bit rot as
	// seen through this reader.
	FlipOffsets []int64
	// FlipMaxReads, when positive, bounds how many reads of each
	// FlipOffsets entry come back corrupted before reads of it return
	// the true bytes — transient path corruption (a flaky cable, a
	// sector the drive remaps on re-read) rather than persistent rot.
	// The disk bytes are fine; only the first FlipMaxReads views of
	// them lie. This is the scenario salvage repair's bounded re-read
	// loop recovers without tombstoning. 0 means flip forever.
	FlipMaxReads int
}

// ReaderAt wraps an io.ReaderAt with deterministic fault injection.
// It is safe for concurrent use.
type ReaderAt struct {
	r   io.ReaderAt
	cfg Config

	mu        sync.Mutex
	failures  map[int64]int // per-offset injected-failure count
	flipReads map[int64]int // per-flip-offset corrupted-read count

	injected atomic.Int64
	flipped  atomic.Int64
}

// NewReaderAt wraps r with the given fault configuration.
func NewReaderAt(r io.ReaderAt, cfg Config) *ReaderAt {
	if cfg.MaxConsecutive <= 0 {
		cfg.MaxConsecutive = 2
	}
	return &ReaderAt{r: r, cfg: cfg, failures: make(map[int64]int), flipReads: make(map[int64]int)}
}

// Wrap returns the wrapper as the storage.OpenOptions.WrapReader
// callback shape, remembering the last wrapper built so callers can
// scrape its counters after mounting through opaque plumbing.
func Wrap(cfg Config) (wrap func(io.ReaderAt) io.ReaderAt, last func() *ReaderAt) {
	var mu sync.Mutex
	var cur *ReaderAt
	return func(r io.ReaderAt) io.ReaderAt {
			w := NewReaderAt(r, cfg)
			mu.Lock()
			cur = w
			mu.Unlock()
			return w
		}, func() *ReaderAt {
			mu.Lock()
			defer mu.Unlock()
			return cur
		}
}

// splitmix64 is the avalanching hash behind every injection decision.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// faultProne decides — purely from seed and offset — whether reads at
// off are in the faulty fraction.
func (f *ReaderAt) faultProne(off int64) bool {
	if f.cfg.TransientProb <= 0 {
		return false
	}
	h := splitmix64(uint64(f.cfg.Seed) ^ splitmix64(uint64(off)))
	return float64(h%(1<<20))/float64(1<<20) < f.cfg.TransientProb
}

// ReadAt implements io.ReaderAt with injection: latency first, then a
// possible transient failure, then the real read with bit-flips
// applied to any configured offsets the read covers.
func (f *ReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if f.cfg.Latency > 0 {
		time.Sleep(f.cfg.Latency)
	}
	if f.faultProne(off) {
		f.mu.Lock()
		n := f.failures[off]
		if n < f.cfg.MaxConsecutive {
			f.failures[off] = n + 1
			f.mu.Unlock()
			f.injected.Add(1)
			return 0, fmt.Errorf("%w (offset %d, attempt %d)", ErrInjected, off, n+1)
		}
		f.mu.Unlock()
	}
	n, err := f.r.ReadAt(p, off)
	for _, fo := range f.cfg.FlipOffsets {
		if fo < off || fo >= off+int64(n) {
			continue
		}
		if f.cfg.FlipMaxReads > 0 {
			f.mu.Lock()
			seen := f.flipReads[fo]
			if seen >= f.cfg.FlipMaxReads {
				f.mu.Unlock()
				// The transient corruption has cleared; the true bytes
				// flow through from here on.
				continue
			}
			f.flipReads[fo] = seen + 1
			f.mu.Unlock()
		}
		p[fo-off] ^= 1
		f.flipped.Add(1)
	}
	return n, err
}

// InjectedTransient returns how many transient errors the wrapper has
// injected so far.
func (f *ReaderAt) InjectedTransient() int64 { return f.injected.Load() }

// FlippedBits returns how many bit-flips the wrapper has applied.
func (f *ReaderAt) FlippedBits() int64 { return f.flipped.Load() }

// BlockSource wraps a blocked.BlockSource, failing or panicking on
// configured block indices — the seam for exercising quarantine and
// scan-worker panic recovery above the storage layer. Swap it into a
// column's exported Source field; Restore undoes it.
type BlockSource struct {
	inner blocked.BlockSource
	// FailBlocks maps block index → the error every fetch of that
	// block returns.
	FailBlocks map[int]error
	// PanicBlocks marks blocks whose fetch panics.
	PanicBlocks map[int]bool
}

// NewBlockSource wraps inner.
func NewBlockSource(inner blocked.BlockSource, fail map[int]error, panics map[int]bool) *BlockSource {
	return &BlockSource{inner: inner, FailBlocks: fail, PanicBlocks: panics}
}

// BlockForm implements blocked.BlockSource.
func (b *BlockSource) BlockForm(i int) (*core.Form, blocked.Lease, error) {
	if b.PanicBlocks[i] {
		panic(fmt.Sprintf("faults: injected panic fetching block %d", i))
	}
	if err, ok := b.FailBlocks[i]; ok {
		return nil, blocked.Lease{}, err
	}
	return b.inner.BlockForm(i)
}

// Restore returns the wrapped source, for putting a column back the
// way it was.
func (b *BlockSource) Restore() blocked.BlockSource { return b.inner }

// Close forwards to the wrapped source when it is closable, so a
// wrapped column still releases its container on Close.
func (b *BlockSource) Close() error {
	if c, ok := b.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
