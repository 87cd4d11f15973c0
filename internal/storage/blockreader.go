package storage

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"lwcomp/internal/blocked"
	"lwcomp/internal/core"
)

// This file is the lazy, file-backed read path: OpenContainer parses
// only a container's prefix and block index, and hands back column
// handles whose block payloads are fetched — and CRC-verified — on
// first touch. The BlockReader abstraction separates "where payload
// bytes come from" (mmap, io.ReaderAt) from the query layer above,
// which only ever asks for decoded block forms. v3 is the only
// generation it opens: any other magic is rejected after its 4 bytes
// (checkMagic).

// BlockReader supplies the raw payload bytes of one column's blocks.
// It is the seam between the container layout and the query engine:
// an open container's column handles serve it from an io.ReaderAt or
// an mmap window. Payload returns either a view into the source
// (mmap) or the provided scratch buffer filled (ReadAt), so callers
// can pool scratch. Implementations must be safe for concurrent use.
type BlockReader interface {
	// NumBlocks returns the column's block count.
	NumBlocks() int
	// Payload returns block i's raw encoded-form bytes. When the
	// source can hand out a stable view (mmap) it does so without
	// copying; otherwise it fills and returns scratch (growing it if
	// needed).
	Payload(i int, scratch []byte) ([]byte, error)
}

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
	// Mmap maps the file instead of issuing ReadAt calls. Ignored
	// (with a silent fallback to ReadAt) when the platform does not
	// support it or the mapping fails. Only honored by
	// OpenContainerFile — OpenContainer has no file to map.
	Mmap bool
	// Retry, when its MaxRetries is positive, re-issues transiently
	// failed reads with capped exponential backoff. Integrity errors
	// (ErrCorrupt, ErrChecksum) are permanent and never retried. The
	// container's ReadStats reports the retry traffic.
	Retry RetryPolicy
	// WrapReader, when non-nil, decorates the container's io.ReaderAt
	// before any byte is read — the fault-injection seam tests and
	// benchmarks hook (see internal/faults). Setting it disables Mmap:
	// a mapping would bypass the wrapper.
	WrapReader func(ra io.ReaderAt) io.ReaderAt
}

// byteSource abstracts where a lazy container's bytes live.
type byteSource interface {
	// view returns n bytes at off — either a direct slice (mmap) or
	// scratch filled (ReadAt). scratch always has length >= n.
	view(off int64, n int, scratch []byte) ([]byte, error)
	io.Closer
}

// readerAtSource serves views by ReadAt; closer (the underlying file,
// when the container owns one) is closed with the container.
type readerAtSource struct {
	ra     io.ReaderAt
	closer io.Closer
}

func (s *readerAtSource) view(off int64, n int, scratch []byte) ([]byte, error) {
	m, err := s.ra.ReadAt(scratch[:n], off)
	// The io.ReaderAt contract permits a full read to return io.EOF
	// when it ends exactly at end-of-file — which every container's
	// last block payload does. Short reads and other errors are
	// reported as the underlying I/O failure, not as corruption: the
	// bytes were never seen, so nothing can be said about them.
	if err != nil && !(m == n && err == io.EOF) {
		return nil, fmt.Errorf("storage: reading %d bytes at offset %d: %w", n, off, err)
	}
	return scratch[:n], nil
}

func (s *readerAtSource) Close() error {
	if s.closer == nil {
		return nil
	}
	return s.closer.Close()
}

// mmapSource serves views as subslices of a read-only mapping.
type mmapSource struct {
	data []byte
}

func (s *mmapSource) view(off int64, n int, _ []byte) ([]byte, error) {
	if off < 0 || off+int64(n) > int64(len(s.data)) {
		return nil, fmt.Errorf("%w: view %d+%d outside mapping of %d bytes", ErrCorrupt, off, n, len(s.data))
	}
	return s.data[off : off+int64(n)], nil
}

func (s *mmapSource) Close() error { return munmap(s.data) }

// ContainerFile is an open container whose block payloads load on
// demand: only the prefix and block index are resident. All columns
// share one byte source and one block cache, so hot blocks are served
// as cached decoded forms while cold blocks never enter memory.
type ContainerFile struct {
	src          byteSource
	cache        *blockCache
	payloadStart int64
	cols         []BlockedColumn
	locs         [][]blockLoc
	mapped       bool
	// owner namespaces this container's keys inside a shared cache;
	// shared records that the cache's budget and eviction traffic are
	// pooled with other containers, so CacheStats reports the
	// container-local hit/miss counters below instead of the cache's
	// pooled ones.
	owner                  uint64
	shared                 bool
	localHits, localMisses atomic.Int64

	// flights coalesces concurrent fetches of one block into a single
	// source read and decode: a prefetch and the demand fetch it races
	// join the same flight instead of doing the same work twice.
	flightMu sync.Mutex
	flights  map[cacheKey]*blockFlight

	// The prefetch worker stages announced blocks into the cache in
	// the background. It starts lazily on the first announcement and is
	// drained and joined by Close, so no read outlives the source.
	pfMu     sync.Mutex
	pfCh     chan prefetchReq
	pfClosed bool
	pfWG     sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// blockFlight is one in-progress block fetch. Late callers wait on
// done; the flight leader publishes form and err before closing it.
type blockFlight struct {
	done chan struct{}
	form *core.Form
	err  error
}

// prefetchReq names one block a scan expects to need next. A nil ctx
// means "no cancellation"; otherwise a request whose ctx has expired
// by dequeue time is dropped.
type prefetchReq struct {
	ctx        context.Context
	col, block int
}

// prefetchQueueLen bounds the prefetch backlog. Announcements beyond
// it are dropped — prefetch is a hint, and the demand fetch reads the
// block regardless.
const prefetchQueueLen = 32

// OpenContainerFile opens a v3 container file lazily: it reads only
// the prefix and block index (optionally mmapping the file when
// opt.Mmap is set). Close the container (or any of its columns) when
// done.
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
	size := st.Size()
	if opt.Mmap && opt.WrapReader == nil && mmapSupported && size > 0 {
		if data, merr := mmapFile(f, size); merr == nil {
			// The mapping survives the descriptor; drop it now.
			f.Close()
			cf, err := openSource(&mmapSource{data: data}, size, opt)
			if err != nil {
				munmap(data)
				return nil, err
			}
			cf.mapped = true
			return cf, nil
		}
		// Mapping failed: fall through to ReadAt on the open file.
	}
	cf, err := OpenContainer(f, size, opt)
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
	closer, _ := ra.(io.Closer)
	if opt.WrapReader != nil {
		ra = opt.WrapReader(ra)
	}
	return openSource(&readerAtSource{ra: ra, closer: closer}, size, opt)
}

// openSource opens the v3 container behind src.
func openSource(src byteSource, size int64, opt OpenOptions) (*ContainerFile, error) {
	if opt.Retry.MaxRetries > 0 {
		// Decorate below everything so the open-time prefix and index
		// reads enjoy the same tolerance as block fetches.
		src = &retrySource{src: src, policy: opt.Retry.withDefaults()}
	}
	if size < 4 {
		return nil, fmt.Errorf("%w: container too short", ErrCorrupt)
	}
	var scratch [v3PrefixLen]byte
	magic, err := src.view(0, 4, scratch[:])
	if err != nil {
		return nil, err
	}
	if err := checkMagic(magic); err != nil {
		return nil, err
	}
	if size < v3PrefixLen+4 {
		return nil, fmt.Errorf("%w: container too short", ErrCorrupt)
	}
	prefix, err := src.view(0, v3PrefixLen, scratch[:])
	if err != nil {
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
	index, err := src.view(v3PrefixLen, int(indexLen), indexBuf)
	if err != nil {
		return nil, err
	}
	payloadStart := int64(v3PrefixLen) + int64(indexLen)
	p, err := parseIndexV3(index, size-payloadStart)
	if err != nil {
		return nil, err
	}
	cf := &ContainerFile{
		src:          src,
		payloadStart: payloadStart,
		cols:         p.cols,
		locs:         p.locs,
		owner:        nextCacheOwner.Add(1),
		flights:      make(map[cacheKey]*blockFlight),
	}
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

// Mapped reports whether the container is backed by a memory mapping.
func (cf *ContainerFile) Mapped() bool { return cf.mapped }

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

// Close releases the container's byte source (file handle or
// mapping), first draining and joining the prefetch worker so no
// background read outlives the source. It is idempotent, and closing
// any column of the container forwards here.
func (cf *ContainerFile) Close() error {
	cf.closeOnce.Do(func() {
		cf.pfMu.Lock()
		cf.pfClosed = true
		if cf.pfCh != nil {
			close(cf.pfCh)
		}
		cf.pfMu.Unlock()
		cf.pfWG.Wait()
		cf.closeErr = cf.src.Close()
	})
	return cf.closeErr
}

// fetchForm reads, CRC-verifies and decodes block (colIdx, i) and
// inserts the form into the block cache, coalescing concurrent fetches
// of the same block — a prefetch and the demand fetch it races, or two
// scan workers straddling one block — into a single read and decode.
// Callers must not mutate the returned form: the cache and every
// waiter on the flight share it.
func (cf *ContainerFile) fetchForm(colIdx, i int) (*core.Form, error) {
	key := cacheKey{owner: cf.owner, col: colIdx, block: i}
	cf.flightMu.Lock()
	if fl, ok := cf.flights[key]; ok {
		cf.flightMu.Unlock()
		<-fl.done
		return fl.form, fl.err
	}
	if f, ok := cf.cache.peek(key); ok {
		// A finished flight cached the block between the caller's cache
		// miss and here.
		cf.flightMu.Unlock()
		return f, nil
	}
	fl := &blockFlight{done: make(chan struct{})}
	cf.flights[key] = fl
	cf.flightMu.Unlock()

	loc := cf.locs[colIdx][i]
	n := int(loc.length)
	// ReadAt fills the scratch; an mmap source returns a view into the
	// mapping and leaves it untouched. Either way the decoded form owns
	// its words, so the scratch goes straight back.
	scratch := getPayloadBuf(n)
	var f *core.Form
	data, err := cf.src.view(cf.payloadStart+loc.off, n, scratch)
	if err == nil {
		col := &cf.cols[colIdx]
		f, err = decodeBlockPayload(data, loc, col.Name, i, col.Col.Blocks[i].Count)
	}
	putPayloadBuf(scratch)
	if err == nil {
		cf.cache.add(key, f, loc.length)
	}
	fl.form, fl.err = f, err
	cf.flightMu.Lock()
	delete(cf.flights, key)
	cf.flightMu.Unlock()
	close(fl.done)
	return f, err
}

// prefetchAsync asks the container's background worker to stage block
// (colIdx, i) into the block cache. It is a best-effort hint: without
// a cache there is nowhere to stage, an already-resident block is
// skipped, and a full queue drops the request. ctx may be nil (no
// cancellation); an expired ctx is dropped at dequeue time.
func (cf *ContainerFile) prefetchAsync(ctx context.Context, colIdx, i int) {
	if cf.cache == nil {
		return
	}
	if _, ok := cf.cache.peek(cacheKey{owner: cf.owner, col: colIdx, block: i}); ok {
		return
	}
	cf.pfMu.Lock()
	if cf.pfClosed {
		cf.pfMu.Unlock()
		return
	}
	if cf.pfCh == nil {
		cf.pfCh = make(chan prefetchReq, prefetchQueueLen)
		cf.pfWG.Add(1)
		go cf.prefetchLoop(cf.pfCh)
	}
	select {
	case cf.pfCh <- prefetchReq{ctx: ctx, col: colIdx, block: i}:
	default:
		// Backlogged: the demand fetch will read the block anyway.
	}
	cf.pfMu.Unlock()
}

// prefetchLoop is the container's one background prefetcher. Errors
// are deliberately dropped: a failed prefetch leaves the block to the
// demand fetch, whose own read reports (and quarantines) the failure
// with full context.
func (cf *ContainerFile) prefetchLoop(ch chan prefetchReq) {
	defer cf.pfWG.Done()
	for req := range ch {
		if req.ctx != nil && req.ctx.Err() != nil {
			continue
		}
		if _, ok := cf.cache.peek(cacheKey{owner: cf.owner, col: req.col, block: req.block}); ok {
			continue
		}
		_, _ = cf.fetchForm(req.col, req.block)
	}
}

// colReader adapts one column of a lazy container to both the
// blocked.BlockSource the query layer fetches forms through and the
// BlockReader raw-payload view.
type colReader struct {
	cf     *ContainerFile
	colIdx int
}

// NumBlocks implements BlockReader.
func (r *colReader) NumBlocks() int { return len(r.cf.locs[r.colIdx]) }

// Payload implements BlockReader: it returns block i's raw encoded
// bytes without CRC verification or decoding.
func (r *colReader) Payload(i int, scratch []byte) ([]byte, error) {
	loc := r.cf.locs[r.colIdx][i]
	n := int(loc.length)
	if cap(scratch) < n {
		scratch = make([]byte, n)
	}
	return r.cf.src.view(r.cf.payloadStart+loc.off, n, scratch[:n])
}

// BlockForm implements blocked.BlockSource: a hot block is one cache
// lookup returning the shared decoded form; a cold one goes through
// the coalesced fetch path, where its CRC is verified and its payload
// decoded once, on first touch.
func (r *colReader) BlockForm(i int) (*core.Form, error) {
	cf := r.cf
	if cf.cache != nil {
		if f, ok := cf.cache.get(cacheKey{owner: cf.owner, col: r.colIdx, block: i}); ok {
			cf.localHits.Add(1)
			return f, nil
		}
		cf.localMisses.Add(1)
	}
	return cf.fetchForm(r.colIdx, i)
}

// PrefetchBlock implements blocked.BlockPrefetcher: it hints that
// block i will be needed soon, staging it into the block cache in the
// background so the demand fetch hits a verified, decoded form.
// Best-effort — no cache, a resident block, a full queue, or
// an expired ctx all drop the hint.
func (r *colReader) PrefetchBlock(ctx context.Context, i int) {
	r.cf.prefetchAsync(ctx, r.colIdx, i)
}

// Close forwards to the container: the column handle and the
// container share one lifetime.
func (r *colReader) Close() error { return r.cf.Close() }

// CacheStats implements blocked.CacheStatsSource: it snapshots the
// container's shared block cache, so a column handle can report cache
// traffic without holding the ContainerFile. All columns of one
// container share one cache; per-column fetches land in the same
// counters.
func (r *colReader) CacheStats() blocked.CacheStats { return r.cf.cache.stats() }
