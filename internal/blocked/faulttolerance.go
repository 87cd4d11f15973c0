package blocked

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"lwcomp/internal/core"
)

// This file is the column-level half of the fault-tolerance layer:
// classifying errors as transient vs permanent, quarantining blocks
// whose payloads are permanently bad, and surfacing retry and panic
// counters. The storage layer below retries transient I/O; this layer
// remembers permanent failures so a bad block is fetched once, fails
// fast forever after, and can be skipped exactly by a degraded scan.

// ErrQuarantined marks errors returned for blocks that previously
// failed with a permanent error (bad CRC, undecodable form) and were
// quarantined on the column. Use errors.Is to test for it. The
// original condemning error stays in the chain.
var ErrQuarantined = errors.New("blocked: block quarantined")

// ErrTombstone marks errors returned for blocks whose payload was
// lost for good and tombstoned by salvage repair: the container's
// index still declares the block's row range, but there are no bytes
// behind it. Tombstones are permanent by construction — a degraded
// scan skips exactly the tombstoned range, a default scan fails fast.
// Use errors.Is to test for it.
var ErrTombstone = errors.New("blocked: block tombstoned (payload lost)")

// permanentError is the marker interface storage's integrity
// sentinels implement. Detecting it via errors.As keeps this package
// free of a storage import (storage imports blocked, not vice versa).
type permanentError interface {
	// PermanentStorageError reports whether the error is a
	// data-integrity failure retrying cannot fix.
	PermanentStorageError() bool
}

// IsPermanent reports whether err is a data-integrity failure that
// retrying cannot fix: checksum mismatches, corrupt containers or
// forms, unknown schemes, and quarantined blocks. Everything else —
// in particular wrapped I/O errors from the byte source — is treated
// as transient and eligible for retry.
func IsPermanent(err error) bool {
	var p permanentError
	if errors.As(err, &p) {
		return p.PermanentStorageError()
	}
	return errors.Is(err, core.ErrCorruptForm) ||
		errors.Is(err, core.ErrUnknownScheme) ||
		errors.Is(err, ErrQuarantined) ||
		errors.Is(err, ErrTombstone)
}

// quarantine records a permanent failure of block i. First writer
// wins; later failures of the same block keep the original cause.
func (c *Column) quarantine(i int, err error) {
	c.quarMu.Lock()
	if c.quar == nil {
		c.quar = make(map[int]error)
	}
	if _, dup := c.quar[i]; !dup {
		c.quar[i] = err
	}
	c.quarMu.Unlock()
}

// Quarantine records an externally diagnosed permanent failure of
// block i — the hook a background scrubber uses to condemn a block it
// found rotten before any query touched it. Out-of-range indices and
// non-permanent errors are ignored (transient failures are the retry
// layer's business, not the ledger's). It reports whether the block
// was newly quarantined; a block already in the ledger keeps its
// original cause.
func (c *Column) Quarantine(i int, err error) bool {
	if i < 0 || i >= len(c.Blocks) || err == nil || !IsPermanent(err) {
		return false
	}
	c.quarMu.Lock()
	defer c.quarMu.Unlock()
	if c.quar == nil {
		c.quar = make(map[int]error)
	}
	if _, dup := c.quar[i]; dup {
		return false
	}
	c.quar[i] = err
	return true
}

// MarkTombstone declares block i's payload lost for good: the block
// is flagged as a tombstone and quarantined with an ErrTombstone
// cause carrying the reason, so every fetch fails fast and degraded
// scans skip exactly its row range. Container open uses it to
// materialize persisted tombstones; salvage repair uses it when a
// block cannot be recovered.
func (c *Column) MarkTombstone(i int, reason string) {
	if i < 0 || i >= len(c.Blocks) {
		return
	}
	b := &c.Blocks[i]
	b.Form = nil
	b.Tombstone = true
	b.TombstoneReason = reason
	// Stats must go with the payload: a planner proving the block
	// entirely from [min, max] would count rows that no longer exist.
	// Statless blocks are always fetched — and the fetch fails fast.
	b.HasStats = false
	b.Min, b.Max = 0, 0
	b.Certificate = 0
	err := ErrTombstone
	if reason != "" {
		err = fmt.Errorf("%w: %s", ErrTombstone, reason)
	}
	c.quarMu.Lock()
	if c.quar == nil {
		c.quar = make(map[int]error)
	}
	c.quar[i] = err
	c.quarMu.Unlock()
}

// ClearQuarantine empties the column's quarantine ledger — the hook a
// successful heal uses to re-admit blocks whose bytes were repaired
// in place. Tombstoned blocks stay condemned: their payloads do not
// exist, so re-admitting them could only fail again. It returns the
// number of entries cleared.
func (c *Column) ClearQuarantine() int {
	c.quarMu.Lock()
	defer c.quarMu.Unlock()
	cleared := 0
	for i := range c.quar {
		if i >= 0 && i < len(c.Blocks) && c.Blocks[i].Tombstone {
			continue
		}
		delete(c.quar, i)
		cleared++
	}
	return cleared
}

// QuarantineError returns the permanent error that condemned block i,
// if the block is quarantined.
func (c *Column) QuarantineError(i int) (err error, ok bool) {
	c.quarMu.Lock()
	err, ok = c.quar[i]
	c.quarMu.Unlock()
	return err, ok
}

// QuarantineCount returns the number of quarantined blocks.
func (c *Column) QuarantineCount() int {
	c.quarMu.Lock()
	n := len(c.quar)
	c.quarMu.Unlock()
	return n
}

// QuarantinedBlocks returns the quarantined block indices in
// ascending order (nil when the column is healthy).
func (c *Column) QuarantinedBlocks() []int {
	c.quarMu.Lock()
	var out []int
	for i := range c.quar {
		out = append(out, i)
	}
	c.quarMu.Unlock()
	sort.Ints(out)
	return out
}

// ReadStats is the cumulative retry tally of a column's byte source:
// transient read failures absorbed by backoff, and reads abandoned
// after the retry budget ran out. Like CacheStats, the canonical type
// lives here so the storage layer and a server's metrics endpoint can
// speak it without import cycles.
type ReadStats struct {
	// Retries counts re-issued reads after a transient failure.
	Retries int64
	// Giveups counts reads that still failed after the last retry.
	Giveups int64
}

// ReadStatsSource is implemented by block sources whose reads retry
// transient failures (the lazily opened container's column readers).
type ReadStatsSource interface {
	// ReadStats snapshots the source's retry counters.
	ReadStats() ReadStats
}

// ReadStats snapshots the retry counters behind a lazily opened
// column. ok is false for in-memory columns and sources without retry
// accounting.
func (c *Column) ReadStats() (stats ReadStats, ok bool) {
	if s, has := c.Source.(ReadStatsSource); has {
		return s.ReadStats(), true
	}
	return ReadStats{}, false
}

// recoveredPanics counts panics converted to errors by ParallelFor
// workers, process-wide.
var recoveredPanics atomic.Int64

// RecoveredPanics returns the process-wide count of panics ParallelFor
// workers have recovered and converted into block errors. A server
// folds it into its panics_recovered metric.
func RecoveredPanics() int64 { return recoveredPanics.Load() }
