package storage

import (
	"container/list"
	"sync"
	"sync/atomic"

	"lwcomp/internal/blocked"
	"lwcomp/internal/core"
)

// DefaultBlockCacheBytes is the block-cache budget used when a
// container is opened lazily without an explicit cache size.
const DefaultBlockCacheBytes = 32 << 20

// payloadPool recycles the scratch buffers block fetches read
// payloads into. Nothing keeps a payload past its decode — the
// cache holds the decoded form, which does not alias the bytes — so
// every buffer comes back. The decoded forms' words have their own
// free list (slab.go).
var payloadPool = sync.Pool{New: func() any { return new([]byte) }}

// getPayloadBuf returns a pooled buffer of length n, behind the pointer
// the pool holds it by: handing that pointer back to putPayloadBuf
// keeps the round trip free of allocations.
func getPayloadBuf(n int) *[]byte {
	bp := payloadPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// putPayloadBuf returns a buffer to the pool.
func putPayloadBuf(bp *[]byte) {
	payloadPool.Put(bp)
}

// cacheKey addresses one block of one column of one container. The
// owner field is the opening container's unique id, so containers
// sharing one SharedCache never collide on (column, block).
type cacheKey struct {
	owner      uint64
	col, block int
}

// cacheEntry is one fetched block: its decoded form, charged at the
// length of the payload it was decoded from, and the slab the form's
// words live in. Forms are immutable once decoded (the
// blocked.BlockSource contract), so every reader shares one pointer
// outside the lock.
//
// The entry is also the readers' lease (blocked.Releaser). state is
// pins<<1 | evicted:
//   - a pin is taken under the cache mutex while the entry is resident
//     (get), or by the fetch that decoded it;
//   - eviction sets the bit once: under the mutex when the cache drops
//     the entry, at once when the cache refuses it or there is none;
//   - Release drops a pin with one atomic add.
//
// An evicted entry gains no new pin, so exactly one of those steps
// moves state to 1 — evicted, unpinned — and that step alone returns
// the slab to the free list: never twice, never under a reader.
type cacheEntry struct {
	key    cacheKey
	form   *core.Form
	size   int64
	slab   *slab
	reused bool
	state  atomic.Int64
}

// newCacheEntry returns the entry of a form just decoded into sl (nil
// when the form has no words), holding one pin for the decoder.
func newCacheEntry(f *core.Form, size int64, sl *slab, reused bool) *cacheEntry {
	e := &cacheEntry{form: f, size: size, slab: sl, reused: reused}
	e.state.Store(2)
	return e
}

// pin takes a lease.
func (e *cacheEntry) pin() { e.state.Add(2) }

// Release implements blocked.Releaser: it ends one lease.
func (e *cacheEntry) Release() {
	if e.state.Add(-2) == 1 {
		putSlab(e.slab)
	}
}

// evict marks the entry as out of the cache.
func (e *cacheEntry) evict() {
	if e.state.Add(1) == 1 {
		putSlab(e.slab)
	}
}

// blockCache is a byte-budgeted LRU over decoded block forms — CRC-
// verified and decoded once, on the way in — shared by every query on
// a container. The budget counts encoded payload bytes, not the forms'
// heap footprint. It is safe for concurrent use.
type blockCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	ll     *list.List // front = most recently used
	m      map[cacheKey]*list.Element

	hits, misses, evictions, decodes, reused int64
}

// newBlockCache returns a cache with the given byte budget, or nil
// when the budget admits nothing (caching disabled).
func newBlockCache(budget int64) *blockCache {
	if budget <= 0 {
		return nil
	}
	return &blockCache{budget: budget, ll: list.New(), m: make(map[cacheKey]*list.Element)}
}

// get returns the cached entry for key with a lease taken for the
// caller, promoting it to most recently used.
func (c *blockCache) get(key cacheKey) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(e)
	ent := e.Value.(*cacheEntry)
	ent.pin()
	return ent, true
}

// add records one payload→form decode and inserts its entry under key,
// charged its size (the encoded payload length), evicting least-
// recently-used entries until the budget holds. An entry larger than
// the whole budget, or a key that raced in from another goroutine, is
// not inserted but marked evicted, so its slab is recycled when its
// last lease ends. Nil-safe: an uncached container decodes without
// counting, and every entry is evicted at once.
func (c *blockCache) add(key cacheKey, e *cacheEntry) {
	if c == nil {
		e.evict()
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.decodes++
	if e.reused {
		c.reused++
	}
	if _, dup := c.m[key]; dup || e.size > c.budget {
		e.evict()
		return
	}
	for c.used+e.size > c.budget {
		c.evictOldestLocked()
	}
	e.key = key
	c.m[key] = c.ll.PushFront(e)
	c.used += e.size
}

// evictOldestLocked drops the least-recently-used entry. Callers hold
// c.mu and have ensured the cache is non-empty.
func (c *blockCache) evictOldestLocked() {
	e := c.ll.Back()
	if e == nil {
		return
	}
	ent := e.Value.(*cacheEntry)
	c.ll.Remove(e)
	delete(c.m, ent.key)
	c.used -= ent.size
	c.evictions++
	ent.evict()
}

// CacheStats reports a container's block-cache traffic. Zero values
// when the container was opened without a cache. The canonical type
// lives in package blocked so a lazily opened column can expose the
// same counters through Column.CacheStats without importing storage.
type CacheStats = blocked.CacheStats

// nextCacheOwner hands out the container ids that keep cache keys
// distinct across containers sharing one SharedCache.
var nextCacheOwner atomic.Uint64

// SharedCache is a block cache several containers share under one
// byte budget — the server's resource-governance primitive: however
// many tables a process mounts, their decoded blocks compete
// for one LRU budget instead of each container holding its own.
// Containers join it through OpenOptions.Shared (the public
// WithSharedBlockCache option); each opener gets a unique key space,
// so identical (column, block) coordinates in different containers
// never alias. A nil *SharedCache is valid and means "no cache".
type SharedCache struct {
	c *blockCache
}

// NewSharedCache returns a shared cache with the given byte budget,
// or nil when the budget admits nothing (budget <= 0), which opens
// containers uncached.
func NewSharedCache(budget int64) *SharedCache {
	c := newBlockCache(budget)
	if c == nil {
		return nil
	}
	return &SharedCache{c: c}
}

// Stats snapshots the cache's pooled counters: hits and misses summed
// across every member container, evictions, and resident bytes
// against the one shared budget. Per-container traffic comes from the
// members' own CacheStats.
func (s *SharedCache) Stats() CacheStats {
	if s == nil {
		return CacheStats{}
	}
	return s.c.stats()
}

// stats snapshots the cache counters.
func (c *blockCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Decodes:     c.decodes,
		Reused:      c.reused,
		BytesUsed:   c.used,
		BytesBudget: c.budget,
	}
}
