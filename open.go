package lwcomp

import (
	"fmt"
	"io"

	"lwcomp/internal/blocked"
	"lwcomp/internal/storage"
)

// This file is the on-disk query surface: opening a container lazily
// — header and block index only — and serving queries by fetching
// individual block payloads on demand. A point lookup on a multi-GB
// container reads O(1) blocks; a range scan reads only the blocks its
// [min, max] stats cannot rule out.

// Container is an open container file whose block payloads load on
// demand. Only the header and block index are resident after opening;
// every column handle it returns shares the container's byte source
// and its bounded LRU block cache. Close it (or any column obtained
// from it) exactly once when done — the handles share one lifetime.
//
// Only v3 containers open. Any other file is rejected after its
// 4-byte magic with a permanent error; a v1 or v2 container's error
// names `lwc upgrade`, which rewrites it as v3.
type Container = storage.ContainerFile

// BlockExtent locates one block's payload inside a lazily opened
// container: offset, encoded byte length, and expected CRC-32C. The
// `lwc stat` subcommand prints these without decoding any payload.
type BlockExtent = storage.BlockExtent

// CacheStats reports an open container's block-cache traffic —
// lookups by outcome, evictions, decodes, and resident bytes against
// budget.
type CacheStats = storage.CacheStats

// RetryPolicy configures WithReadRetry's capped exponential backoff:
// MaxRetries re-reads per failed fetch (0 disables), sleeping
// BaseDelay (default 1ms) doubling up to MaxDelay (default 100ms).
type RetryPolicy = storage.RetryPolicy

// ReadStats reports an open container's transient-read retry traffic:
// reads re-issued after a transient failure and reads abandoned after
// the retry budget ran out. Container.ReadStats and Column.ReadStats
// snapshot it.
type ReadStats = blocked.ReadStats

// SharedBlockCache is a block cache several open containers share
// under one byte budget: pass it to OpenFile / OpenContainer /
// OpenTable through WithSharedBlockCache and every member container's
// decoded blocks compete in one LRU. Stats snapshots the pooled
// counters; each member container still reports its own hit/miss
// traffic through CacheStats.
type SharedBlockCache = storage.SharedCache

// NewSharedBlockCache returns a shared block cache with the given
// byte budget, or nil (meaning "no cache") when bytes <= 0.
func NewSharedBlockCache(bytes int64) *SharedBlockCache {
	return storage.NewSharedCache(bytes)
}

// OpenFile opens an LWC container file and returns its column
// without reading any block payload: only the header and the block
// index are read (O(index), not O(file)). Queries on the returned
// Column fetch, checksum-verify, and decode individual blocks at
// first touch, so a PointLookup touches exactly one block and a
// SelectRange only the blocks its [min, max] stats admit.
//
//	col, err := lwcomp.OpenFile("dates.lwc",
//	    lwcomp.WithBlockCache(64<<20)) // decoded-block LRU, shared across queries
//	defer col.Close()
//	v, err := col.PointLookup(123_456) // reads header + index + one block
//
// The container must hold exactly one column unless WithColumn picks
// one by name. Close the column to release the file. A v1 or v2
// container is rejected after its magic (see Container).
func OpenFile(path string, opts ...Option) (*Column, error) {
	o := buildOptions(opts)
	cf, err := storage.OpenContainerFile(path, o.openOptions())
	if err != nil {
		return nil, err
	}
	applyColumnOptions(cf, &o)
	col, err := pickColumn(cf, &o)
	if err != nil {
		cf.Close()
		return nil, err
	}
	return col, nil
}

// OpenReader opens a container from any io.ReaderAt covering size
// bytes — an *os.File, a bytes.Reader, or a counting wrapper in a
// test asserting how little a query reads. Semantics match OpenFile.
// If r also implements io.Closer, closing the column closes it.
func OpenReader(r io.ReaderAt, size int64, opts ...Option) (*Column, error) {
	o := buildOptions(opts)
	cf, err := storage.OpenContainer(r, size, o.openOptions())
	if err != nil {
		return nil, err
	}
	applyColumnOptions(cf, &o)
	col, err := pickColumn(cf, &o)
	if err != nil {
		cf.Close()
		return nil, err
	}
	return col, nil
}

// OpenContainer opens a container file lazily and returns the
// multi-column handle: Columns lists the handles, Column fetches one
// by name, Extents exposes the raw block layout, and CacheStats the
// shared cache's counters. Use it when a container holds several
// columns or when the tooling needs the layout; OpenFile is the
// single-column convenience over it.
func OpenContainer(path string, opts ...Option) (*Container, error) {
	o := buildOptions(opts)
	cf, err := storage.OpenContainerFile(path, o.openOptions())
	if err != nil {
		return nil, err
	}
	applyColumnOptions(cf, &o)
	return cf, nil
}

// applyColumnOptions threads open-time knobs that live on the column
// handle (today just the scan parallelism bound) onto every column of
// a freshly opened container.
func applyColumnOptions(cf *Container, o *options) {
	if o.enc.Parallelism > 0 {
		for _, c := range cf.Columns() {
			c.Col.Parallelism = o.enc.Parallelism
		}
	}
}

// pickColumn resolves which column an OpenFile/OpenReader call
// returns: the WithColumn choice, or the sole column.
func pickColumn(cf *Container, o *options) (*Column, error) {
	cols := cf.Columns()
	if o.columnChosen {
		return cf.Column(o.columnName)
	}
	switch len(cols) {
	case 1:
		return cols[0].Col, nil
	case 0:
		return nil, fmt.Errorf("lwcomp: container has no columns")
	default:
		names := make([]string, len(cols))
		for i := range cols {
			names[i] = cols[i].Name
		}
		return nil, fmt.Errorf("lwcomp: container has %d columns %q; pick one with WithColumn or use OpenContainer",
			len(cols), names)
	}
}
