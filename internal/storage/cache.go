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
// every buffer comes back.
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

// cacheEntry is one cached block: its decoded form, charged at the
// length of the payload it was decoded from. Forms are immutable once
// inserted (the blocked.BlockSource contract), so get hands the same
// pointer to every reader outside the lock and eviction merely drops
// the reference.
type cacheEntry struct {
	key  cacheKey
	form *core.Form
	size int64
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

	hits, misses, evictions, decodes int64
}

// newBlockCache returns a cache with the given byte budget, or nil
// when the budget admits nothing (caching disabled).
func newBlockCache(budget int64) *blockCache {
	if budget <= 0 {
		return nil
	}
	return &blockCache{budget: budget, ll: list.New(), m: make(map[cacheKey]*list.Element)}
}

// get returns the cached form for key, promoting it to most recently
// used.
func (c *blockCache) get(key cacheKey) (*core.Form, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(e)
	return e.Value.(*cacheEntry).form, true
}

// peek returns the cached form for key without promoting it or
// touching the hit/miss counters — the presence probe the prefetcher
// uses to skip warm blocks and the fetch coalescer uses for its
// last-moment recheck. Nil-safe, like stats.
func (c *blockCache) peek(key cacheKey) (*core.Form, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return nil, false
	}
	return e.Value.(*cacheEntry).form, true
}

// add records one payload→form decode and inserts the form, charged
// size bytes (its encoded payload length), evicting least-recently-
// used entries until the budget holds. An entry larger than the whole
// budget, or a key that raced in from another goroutine, is not
// inserted. Nil-safe: an uncached container decodes without counting.
func (c *blockCache) add(key cacheKey, f *core.Form, size int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.decodes++
	if size > c.budget {
		return
	}
	if _, dup := c.m[key]; dup {
		return
	}
	for c.used+size > c.budget {
		c.evictOldestLocked()
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, form: f, size: size})
	c.used += size
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
		BytesUsed:   c.used,
		BytesBudget: c.budget,
	}
}
