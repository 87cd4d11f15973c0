package storage

import (
	"math/bits"
	"runtime"
	"sync"
)

// This file is the slab free list: the word buffers a cold block fetch
// decodes its form's Packed and Leaf arms into. A fetched form's slab
// comes back here once the block cache has evicted the form and no
// reader still leases it (cacheEntry), and the next cold decode takes
// it instead of allocating — so a cache that evicts a block per cold
// fetch recycles the words it drops instead of handing them to the
// garbage collector. A list is capped (keepSlab); a slab freed past the
// cap goes to the collector, so the lists hold a few blocks' words a
// class, not a collection cycle's worth.

// slab is one word buffer on its way through the free list. The lists
// hold slabs by pointer, so putting one back allocates nothing.
type slab struct{ words []uint64 }

// slabClasses bounds slabClass over every int.
const slabClasses = 16 + 8*(bits.UintSize-4)

// slabList is one size class's free list, a stack.
type slabList struct {
	mu    sync.Mutex
	slabs []*slab
}

// slabLists are the free lists, one per size class.
var slabLists [slabClasses]slabList

// slabKeepBytes is the bytes of slabs a free list of small slabs may
// keep for every thread that can be decoding at once.
const slabKeepBytes = 16 << 10

// keepSlab reports whether a free list holding held slabs of the given
// words keeps one more: while it holds fewer than two for every thread
// that can be decoding at once, or while they fit in slabKeepBytes a
// thread. A cold fetch of a large block evicts several small ones, so
// a class of small slabs is refilled in bursts and needs the deeper
// list; on point queries over a 1 MiB cache two a thread reused 93 %
// of the slabs, this 98 %.
func keepSlab(held, words int) bool {
	procs := runtime.GOMAXPROCS(0)
	return held < 2*procs || (held+1)*words*8 <= slabKeepBytes*procs
}

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
	l := &slabLists[c]
	l.mu.Lock()
	if k := len(l.slabs) - 1; k >= 0 {
		s := l.slabs[k]
		l.slabs[k] = nil
		l.slabs = l.slabs[:k]
		l.mu.Unlock()
		return s, true
	}
	l.mu.Unlock()
	return &slab{words: make([]uint64, words)}, false
}

// putSlab returns s to the free list, or to the collector when the
// list is full; nil is a no-op. The caller must hold the only reference
// to s's words.
func putSlab(s *slab) {
	if s == nil {
		return
	}
	if h := SlabFreeHook; h != nil {
		h(s.words)
	}
	c, _ := slabClass(len(s.words))
	l := &slabLists[c]
	l.mu.Lock()
	if keepSlab(len(l.slabs), len(s.words)) {
		l.slabs = append(l.slabs, s)
	}
	l.mu.Unlock()
}
