package core

import "sync"

// Scratch is a reusable arena of decode temporaries. Decompressing a
// form tree needs short-lived buffers — the unpacked unsigned words
// of an NS leaf, the refs column of a FOR node, run lengths and
// values of an RLE node — and allocating them per call makes block
// decode allocation-bound instead of memory-bandwidth-bound.
//
// A Scratch holds freelists of int64 and uint64 buffers. Borrow with
// I64/U64, return with PutI64/PutU64; buffers keep their capacity, so
// after the first decode through a given form shape every subsequent
// decode is allocation-free. Scratches themselves come from a
// sync.Pool (GetScratch/Release), giving the steady state the paper's
// decomposition argument assumes: decode cost is the operator work,
// not the allocator.
//
// A Scratch is not safe for concurrent use; parallel block workers
// each hold their own. All methods tolerate a nil receiver (they fall
// back to plain allocation), so scratch-threading is always optional.
type Scratch struct {
	i64     freelist[int64]
	u64     freelist[uint64]
	routers []*router // Composite emit routers, see compress.go
}

// freelist is a capacity-retaining stack of returned buffers.
type freelist[T any] [][]T

// get borrows a length-n buffer with unspecified contents, reusing
// the smallest returned buffer that fits (the most recently returned
// among equals). Best fit keeps a small request from taking a buffer
// that a larger one would then have to allocate anew, so an arena
// retains about what its callers borrow at once, not more.
func (fl *freelist[T]) get(n int) []T {
	l := *fl
	best := -1
	for i := len(l) - 1; i >= 0; i-- {
		if c := cap(l[i]); c >= n && (best < 0 || c < cap(l[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]T, n)
	}
	b := l[best][:n]
	last := len(l) - 1
	l[best] = l[last]
	l[last] = nil
	*fl = l[:last]
	return b
}

// put returns a borrowed buffer to the freelist.
func (fl *freelist[T]) put(b []T) {
	if cap(b) > 0 {
		*fl = append(*fl, b[:0])
	}
}

var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// GetScratch returns a pooled Scratch. Pair it with Release.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release returns s (and the buffers it has accumulated) to the pool.
// The caller must not use s, or any buffer borrowed from it that was
// not returned, afterwards. Release on nil is a no-op.
func (s *Scratch) Release() {
	if s != nil {
		scratchPool.Put(s)
	}
}

// I64 borrows a length-n int64 buffer with unspecified contents.
// Return it with PutI64 when done.
func (s *Scratch) I64(n int) []int64 {
	if s == nil {
		return make([]int64, n)
	}
	return s.i64.get(n)
}

// PutI64 returns a buffer borrowed with I64 to the freelist.
func (s *Scratch) PutI64(b []int64) {
	if s != nil {
		s.i64.put(b)
	}
}

// U64 borrows a length-n uint64 buffer with unspecified contents.
// Return it with PutU64 when done.
func (s *Scratch) U64(n int) []uint64 {
	if s == nil {
		return make([]uint64, n)
	}
	return s.u64.get(n)
}

// PutU64 returns a buffer borrowed with U64 to the freelist.
func (s *Scratch) PutU64(b []uint64) {
	if s != nil {
		s.u64.put(b)
	}
}
