package storage

import (
	"math/bits"
	"sync"
)

// This file is the slab free list: the word buffers a cold block fetch
// decodes its form's Packed and Leaf arms into. A fetched form's slab
// comes back here once the block cache has evicted the form and no
// reader still leases it (cacheEntry), and the next cold decode takes
// it instead of allocating — so a cache that evicts a block per cold
// fetch recycles the words it drops instead of handing them to the
// garbage collector. The lists are sync.Pools, which the collector
// trims, so they hold no memory a quiet process does not need.

// slab is one word buffer on its way through the free list. The lists
// hold slabs by pointer, so putting one back allocates nothing.
type slab struct{ words []uint64 }

// slabClasses bounds slabClass over every int.
const slabClasses = 16 + 8*(bits.UintSize-4)

// slabPools are the free lists, one per size class.
var slabPools [slabClasses]sync.Pool

// SlabFreeHook, when non-nil, sees every slab's words as the slab
// enters the free list — the seam tests poison recycled words through,
// so that a form read after its last lease ended shows as a wrong
// answer. Production code never sets it; the nil check is the only
// cost.
var SlabFreeHook func(words []uint64)

// slabClass returns the class of the slabs that hold n words and their
// length: n itself below 16, otherwise n rounded up to one of eight
// steps per doubling, which is less than an eighth more than n.
func slabClass(n int) (class, words int) {
	if n < 16 {
		return n, n
	}
	shift := bits.Len(uint(n)) - 4
	words = (n + 1<<shift - 1) >> shift << shift
	return 8*shift + words>>shift, words
}

// getSlab returns a slab of n words rounded up to its class, taken
// from the free list when it holds one (reused), otherwise newly
// allocated. A reused slab's words are stale: a decode overwrites the
// ones it hands out and nothing may read past them.
func getSlab(n int) (s *slab, reused bool) {
	c, words := slabClass(n)
	if s, ok := slabPools[c].Get().(*slab); ok {
		return s, true
	}
	return &slab{words: make([]uint64, words)}, false
}

// putSlab returns s to the free list; nil is a no-op. The caller must
// hold the only reference to s's words.
func putSlab(s *slab) {
	if s == nil {
		return
	}
	if h := SlabFreeHook; h != nil {
		h(s.words)
	}
	c, _ := slabClass(len(s.words))
	slabPools[c].Put(s)
}
