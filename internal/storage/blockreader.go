package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lwcomp/internal/blocked"
	"lwcomp/internal/core"
)

// This file is the lazy, file-backed read path: OpenContainer parses
// only a container's prefix and block index, and hands back column
// handles whose block payloads are fetched — and CRC-verified — on
// first touch. Every container byte is read by one method, readAt: a
// positioned read from the container's io.ReaderAt into a caller's
// buffer, retried per the container's RetryPolicy. The query layer
// above only ever asks for decoded block forms. v3 is the only
// generation it opens: any other magic is rejected after its 4 bytes
// (checkMagic).

// OpenOptions configures lazy container opening.
type OpenOptions struct {
	// CacheBytes is the byte budget of the container's shared block
	// cache (verified, decoded forms, charged at their encoded payload
	// length, LRU). Zero or negative disables caching; OpenFile's
	// public wrapper defaults it to DefaultBlockCacheBytes.
	CacheBytes int64
	// Shared, when non-nil, makes the container join this cache
	// instead of creating its own: its blocks compete with every
	// other member container's under the one byte budget. CacheBytes
	// is ignored. A server mounting many containers uses one
	// SharedCache so the total of cached blocks stays bounded
	// regardless of how many tables are open.
	Shared *SharedCache
	// Retry, when its MaxRetries is positive, re-issues transiently
	// failed reads with capped exponential backoff. Integrity errors
	// (ErrCorrupt, ErrChecksum) are permanent and never retried. The
	// container's ReadStats reports the retry traffic.
	Retry RetryPolicy
	// WrapReader, when non-nil, decorates the container's io.ReaderAt
	// before any byte is read — the fault-injection seam tests and
	// benchmarks hook (see internal/faults).
	WrapReader func(ra io.ReaderAt) io.ReaderAt
}

// ContainerFile is an open container whose block payloads load on
// demand: only the prefix and block index are resident. All columns
// share one reader and one block cache, so hot blocks are served as
// cached decoded forms while cold blocks never enter memory.
type ContainerFile struct {
	// ra is the container's (possibly WrapReader-decorated) reader;
	// closer is the original reader when it is an io.Closer (the file
	// OpenContainerFile opened), closed with the container.
	ra     io.ReaderAt
	closer io.Closer
	// retry is the container's read-retry policy (defaults filled);
	// retries and giveups are its tallies, reported by ReadStats.
	retry            RetryPolicy
	retries, giveups atomic.Int64

	cache        *blockCache
	payloadStart int64
	cols         []BlockedColumn
	locs         [][]blockLoc
	// owner namespaces this container's keys inside a shared cache;
	// shared records that the cache's budget and eviction traffic are
	// pooled with other containers, so CacheStats reports the
	// container-local hit/miss counters below instead of the cache's
	// pooled ones.
	owner                  uint64
	shared                 bool
	localHits, localMisses atomic.Int64

	closeOnce sync.Once
	closeErr  error
}

// OpenContainerFile opens a v3 container file lazily: it reads only
// the prefix and block index. Close the container (or any of its
// columns) when done.
func OpenContainerFile(path string, opt OpenOptions) (*ContainerFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	cf, err := OpenContainer(f, st.Size(), opt)
	if err != nil {
		f.Close()
		return nil, err
	}
	return cf, nil
}

// OpenContainer opens a container from any io.ReaderAt (a file, a
// bytes.Reader, a counting test wrapper). Only the prefix and index
// are read. If ra also implements io.Closer, Close closes it.
func OpenContainer(ra io.ReaderAt, size int64, opt OpenOptions) (*ContainerFile, error) {
	// Close targets the original reader even when a fault-injection
	// wrapper sits between it and the container.
	cf := &ContainerFile{ra: ra, retry: opt.Retry.withDefaults()}
	cf.closer, _ = ra.(io.Closer)
	if opt.WrapReader != nil {
		cf.ra = opt.WrapReader(ra)
	}
	if size < 4 {
		return nil, fmt.Errorf("%w: container too short", ErrCorrupt)
	}
	// The open-time prefix and index reads go through readAt too, so
	// they enjoy the same retry tolerance as block fetches.
	var prefix [v3PrefixLen]byte
	if err := cf.readAt(0, prefix[:4]); err != nil {
		return nil, err
	}
	if err := checkMagic(prefix[:4]); err != nil {
		return nil, err
	}
	if size < v3PrefixLen+4 {
		return nil, fmt.Errorf("%w: container too short", ErrCorrupt)
	}
	if err := cf.readAt(0, prefix[:]); err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint16(prefix[4:]); v != VersionV3 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	indexLen := binary.LittleEndian.Uint64(prefix[6:])
	if indexLen < 4 || indexLen > uint64(size-v3PrefixLen) {
		return nil, fmt.Errorf("%w: index length %d out of range", ErrCorrupt, indexLen)
	}
	indexBuf := getPayloadBuf(int(indexLen))
	defer putPayloadBuf(indexBuf)
	index := *indexBuf
	if err := cf.readAt(v3PrefixLen, index); err != nil {
		return nil, err
	}
	cf.payloadStart = int64(v3PrefixLen) + int64(indexLen)
	p, err := parseIndexV3(index, size-cf.payloadStart)
	if err != nil {
		return nil, err
	}
	cf.cols, cf.locs = p.cols, p.locs
	cf.owner = nextCacheOwner.Add(1)
	if opt.Shared != nil {
		cf.cache, cf.shared = opt.Shared.c, true
	} else {
		cf.cache = newBlockCache(opt.CacheBytes)
	}
	for ci := range cf.cols {
		cf.cols[ci].Col.Source = &colReader{cf: cf, colIdx: ci}
	}
	return cf, nil
}

// readAt fills buf with the container bytes at off. It is the one
// path every container byte is read through. The io.ReaderAt contract
// permits a full read to return io.EOF when it ends exactly at
// end-of-file — which every container's last block payload does.
// Short reads and other errors are reported as the underlying I/O
// failure, not as corruption: the bytes were never seen, so nothing
// can be said about them. Under a retry policy a failed read is
// re-issued with capped exponential backoff; an integrity error
// (blocked.IsPermanent) is never retried.
func (cf *ContainerFile) readAt(off int64, buf []byte) error {
	read := func() error {
		m, err := cf.ra.ReadAt(buf, off)
		if err != nil && !(m == len(buf) && err == io.EOF) {
			return fmt.Errorf("storage: reading %d bytes at offset %d: %w", len(buf), off, err)
		}
		return nil
	}
	err := read()
	if err == nil || cf.retry.MaxRetries <= 0 || blocked.IsPermanent(err) {
		return err
	}
	delay := cf.retry.BaseDelay
	for attempt := 0; attempt < cf.retry.MaxRetries; attempt++ {
		cf.retries.Add(1)
		time.Sleep(delay)
		if delay *= 2; delay > cf.retry.MaxDelay {
			delay = cf.retry.MaxDelay
		}
		if err = read(); err == nil || blocked.IsPermanent(err) {
			return err
		}
	}
	cf.giveups.Add(1)
	return fmt.Errorf("storage: read failed after %d retries: %w", cf.retry.MaxRetries, err)
}

// checkMagic accepts the v3 magic and rejects any other, naming
// `lwc upgrade` when the magic is a v1 or v2 container's.
func checkMagic(magic []byte) error {
	if string(magic) == string(MagicV3[:]) {
		return nil
	}
	if err := legacyError(magic); err != nil {
		return err
	}
	return fmt.Errorf("%w: bad magic", ErrCorrupt)
}

// Columns returns the container's column handles in file order. The
// handles share the container's source and cache; closing the
// container invalidates them.
func (cf *ContainerFile) Columns() []BlockedColumn { return cf.cols }

// Column returns the named column's handle.
func (cf *ContainerFile) Column(name string) (*blocked.Column, error) {
	for i := range cf.cols {
		if cf.cols[i].Name == name {
			return cf.cols[i].Col, nil
		}
	}
	return nil, fmt.Errorf("storage: column %q not found", name)
}

// CacheStats snapshots the container's block-cache counters. On a
// container that joined a SharedCache, hits and misses are the
// container's own traffic while evictions, decodes, resident bytes and
// budget are the pooled cache's — per-table hit rates stay meaningful
// even though the byte budget is shared.
func (cf *ContainerFile) CacheStats() CacheStats {
	st := cf.cache.stats()
	if cf.shared {
		st.Hits = cf.localHits.Load()
		st.Misses = cf.localMisses.Load()
	}
	return st
}

// BlockExtent describes one block's payload location inside an open
// container — what `lwc stat` prints without decoding.
type BlockExtent struct {
	// Offset is the payload's position relative to the payload
	// region's start.
	Offset int64
	// Bytes is the payload's encoded length.
	Bytes int64
	// CRC is the payload's expected CRC-32C.
	CRC uint32
}

// Extents returns the payload extents of column ci's blocks, or nil
// when ci is out of range.
func (cf *ContainerFile) Extents(ci int) []BlockExtent {
	if ci < 0 || ci >= len(cf.locs) {
		return nil
	}
	out := make([]BlockExtent, len(cf.locs[ci]))
	for i, loc := range cf.locs[ci] {
		out[i] = BlockExtent{Offset: loc.off, Bytes: loc.length, CRC: loc.crc}
	}
	return out
}

// Close releases the container's file handle (when it owns one). It
// is idempotent, and closing any column of the container forwards
// here.
func (cf *ContainerFile) Close() error {
	cf.closeOnce.Do(func() {
		if cf.closer != nil {
			cf.closeErr = cf.closer.Close()
		}
	})
	return cf.closeErr
}

// Payload returns block i of column ci's raw encoded bytes, without
// CRC verification or decoding, in scratch (grown when it is too
// short).
func (cf *ContainerFile) Payload(ci, i int, scratch []byte) ([]byte, error) {
	loc := cf.locs[ci][i]
	n := int(loc.length)
	if cap(scratch) < n {
		scratch = make([]byte, n)
	}
	if err := cf.readAt(cf.payloadStart+loc.off, scratch[:n]); err != nil {
		return nil, err
	}
	return scratch[:n], nil
}

// colReader adapts one column of a lazy container to the
// blocked.BlockSource the query layer fetches forms through.
type colReader struct {
	cf     *ContainerFile
	colIdx int
}

// BlockForm implements blocked.BlockSource: a hot block is one cache
// lookup returning the shared decoded form. A cold one is read, its
// CRC verified and its payload decoded into a slab, and the form is
// offered to the cache. Misses that race on one block each read and
// decode it; the cache keeps the first form and refuses the others,
// whose slabs go back to the free list when their last lease ends.
// Either way the lease is the cache entry itself, so taking one
// allocates nothing. Callers must not mutate the form: the cache
// shares it with every later hit.
func (r *colReader) BlockForm(i int) (*core.Form, blocked.Lease, error) {
	cf := r.cf
	key := cacheKey{owner: cf.owner, col: r.colIdx, block: i}
	if cf.cache != nil {
		if e, ok := cf.cache.get(key); ok {
			cf.localHits.Add(1)
			return e.form, blocked.LeaseOf(e), nil
		}
		cf.localMisses.Add(1)
	}
	loc := cf.locs[r.colIdx][i]
	// The decoded form owns its words, so the scratch goes back to the
	// pool once the decode is done.
	scratch := getPayloadBuf(int(loc.length))
	defer putPayloadBuf(scratch)
	if err := cf.readAt(cf.payloadStart+loc.off, *scratch); err != nil {
		return nil, blocked.Lease{}, err
	}
	col := &cf.cols[r.colIdx]
	e, err := decodeBlockPayload(*scratch, loc, col.Name, i, col.Col.Blocks[i].Count)
	if err != nil {
		return nil, blocked.Lease{}, err
	}
	cf.cache.add(key, e)
	return e.form, blocked.LeaseOf(e), nil
}

// Close forwards to the container: the column handle and the
// container share one lifetime.
func (r *colReader) Close() error { return r.cf.Close() }

// CacheStats implements blocked.CacheStatsSource: it reports the
// owning container's CacheStats, so a column handle can report cache
// traffic without holding the ContainerFile. All columns of one
// container share one cache; per-column fetches land in the same
// counters.
func (r *colReader) CacheStats() blocked.CacheStats { return r.cf.CacheStats() }
