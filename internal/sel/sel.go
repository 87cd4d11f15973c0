package sel

import (
	"fmt"
	"math/bits"
	"sync"
)

// Selection is a set of row positions drawn from the domain [0, n).
// The zero value is an empty selection over an empty domain; use New
// or Get for a sized one.
type Selection struct {
	n     int
	words []uint64
	// Words [lo, hi) are the dirty span: every word of the backing
	// array outside it — up to the array's capacity, not just the
	// current domain — is zero, so Reset, Count, CountRange and Rank
	// touch what a scan set, not the whole domain. lo >= hi means
	// nothing is set (Reset leaves lo at the word count, so widening is
	// a plain min/max). Every method that can set a bit widens the
	// span; clearing bits never narrows it.
	lo, hi int
}

// New returns an empty selection over the domain [0, n).
func New(n int) *Selection {
	s := &Selection{}
	s.Reset(n)
	return s
}

var pool = sync.Pool{New: func() any { return &Selection{} }}

// Get returns an empty pooled selection over the domain [0, n).
// Release it when done to keep steady-state scans allocation-free.
func Get(n int) *Selection {
	s := pool.Get().(*Selection)
	s.Reset(n)
	return s
}

// Release clears s and returns it to the pool. The caller must not
// use s afterwards.
func (s *Selection) Release() {
	pool.Put(s)
}

// Reset clears the selection and resizes its domain to [0, n).
// Capacity is retained, so pooled selections reach a steady state
// with no allocation, and only the dirty span is zeroed: clearing a
// 4M-row selection that held one 35k-row window costs that window.
func (s *Selection) Reset(n int) {
	if n < 0 {
		n = 0
	}
	s.n = n
	nw := (n + 63) / 64
	if cap(s.words) < nw {
		s.words = make([]uint64, nw)
	} else if s.lo < s.hi {
		clear(s.words[s.lo:s.hi])
	}
	s.words = s.words[:nw]
	s.lo, s.hi = nw, 0
}

// touch widens the dirty span to cover words [first, last]. Another
// selection's empty span (its word count, -1) and the empty domain's
// (0, -1) widen nothing.
func (s *Selection) touch(first, last int) {
	s.lo = min(s.lo, first)
	s.hi = max(s.hi, last+1)
}

// Len returns the domain size n.
func (s *Selection) Len() int { return s.n }

// Add selects row i.
func (s *Selection) Add(i int) {
	s.words[i>>6] |= 1 << (uint(i) & 63)
	s.touch(i>>6, i>>6)
}

// Remove deselects row i.
func (s *Selection) Remove(i int) {
	s.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Contains reports whether row i is selected.
func (s *Selection) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// AddRun selects the contiguous rows [start, start+count). Interior
// words are filled whole, so the cost is O(count/64), not O(count) —
// this is the operation run-structured emitters (RLE runs, inside FOR
// segments, whole blocks) use.
func (s *Selection) AddRun(start, count int) {
	if count <= 0 {
		return
	}
	end := start + count
	firstWord := start >> 6
	lastWord := (end - 1) >> 6
	startBit := uint(start) & 63
	endBits := uint(end-1)&63 + 1 // bits used in the last word
	s.touch(firstWord, lastWord)
	if firstWord == lastWord {
		s.words[firstWord] |= (allOnes >> (64 - endBits + startBit)) << startBit
		return
	}
	s.words[firstWord] |= allOnes << startBit
	for w := firstWord + 1; w < lastWord; w++ {
		s.words[w] = allOnes
	}
	s.words[lastWord] |= allOnes >> (64 - endBits)
}

const allOnes = ^uint64(0)

// ClearRun deselects the contiguous rows [start, start+count), whole
// words at a time, as AddRun selects them.
func (s *Selection) ClearRun(start, count int) {
	for ; count > 0; start, count = start+64, count-64 {
		s.ClearWord(start, allOnes>>(64-uint(min(count, 64))))
	}
}

// ClearWord deselects the rows pos+j for the set bits j of mask, as
// OrWord selects them: bits beyond the domain must be zero in mask.
// It is how a conjunct that keeps clears one 64-row chunk's failing
// rows.
func (s *Selection) ClearWord(pos int, mask uint64) {
	word, off := pos>>6, uint(pos)&63
	s.words[word] &^= mask << off
	if hi := mask >> (64 - off); hi != 0 {
		s.words[word+1] &^= hi
	}
}

// Words returns the words that hold rows [pos, pos+n) and the bit of
// row pos in the first of them, for kernels that write a selection's
// bits in place (the fused selects of package bitpack): such a kernel
// may change only the bits of those rows. The dirty span widens to
// cover them.
func (s *Selection) Words(pos, n int) ([]uint64, int) {
	if n <= 0 {
		return nil, 0
	}
	first, last := pos>>6, (pos+n-1)>>6
	s.touch(first, last)
	return s.words[first : last+1], pos & 63
}

// OrWord ORs mask into the selection at bit offset pos: mask bit j
// selects row pos+j. pos need not be word-aligned; bits beyond the
// domain must be zero in mask. The plain, linear and delta select rules
// land their match masks through it.
func (s *Selection) OrWord(pos int, mask uint64) {
	if mask == 0 {
		return
	}
	word := pos >> 6
	off := uint(pos) & 63
	s.words[word] |= mask << off
	last := word
	if off != 0 && word+1 < len(s.words) {
		s.words[word+1] |= mask >> (64 - off)
		last++
	}
	s.touch(word, last)
}

// OrAt ORs the whole of o into s with its rows shifted by offset:
// row i of o selects row offset+i of s. It is the block-merge
// operation of the parallel scan: cost O(len(o)/64) regardless of how
// many rows are selected — and only o's dirty span is walked.
func (s *Selection) OrAt(o *Selection, offset int) {
	for w := o.lo; w < o.hi; w++ {
		s.OrWord(offset+w*64, o.words[w])
	}
}

// AndAt intersects the rows [offset, offset+o.Len()) of s with o: row
// offset+i stays selected only if o holds row i. Rows outside that span
// are untouched. It is the merge of a conjunct evaluated into a
// temporary of its own rows.
func (s *Selection) AndAt(o *Selection, offset int) {
	for w, m := range o.words {
		n := min(64, o.n-w*64)
		s.ClearWord(offset+w*64, ^m&(allOnes>>(64-uint(n))))
	}
}

// Union ORs o into s. The domains must match.
func (s *Selection) Union(o *Selection) error {
	if o.n != s.n {
		return fmt.Errorf("sel: Union domains differ: %d vs %d", s.n, o.n)
	}
	for w := o.lo; w < o.hi; w++ {
		s.words[w] |= o.words[w]
	}
	s.touch(o.lo, o.hi-1)
	return nil
}

// And intersects s with o in place: a row stays selected only if both
// selections hold it. One AND per word, no allocation — this is the
// conjunction operation of the table scan's per-block predicate
// intersection. The domains must match.
func (s *Selection) And(o *Selection) error {
	if o.n != s.n {
		return fmt.Errorf("sel: And domains differ: %d vs %d", s.n, o.n)
	}
	for w, m := range o.words {
		s.words[w] &= m
	}
	return nil
}

// AndNot removes o's rows from s in place (set difference s \ o), one
// AND-NOT per word. The domains must match.
func (s *Selection) AndNot(o *Selection) error {
	if o.n != s.n {
		return fmt.Errorf("sel: AndNot domains differ: %d vs %d", s.n, o.n)
	}
	for w, m := range o.words {
		s.words[w] &^= m
	}
	return nil
}

// Not complements s in place over its whole domain [0, n): every
// selected row is dropped and every unselected row selected. Bits
// beyond the domain in the last word stay zero, preserving the
// invariant Count relies on. It is how NOT nodes of a predicate tree
// evaluate once their operand's selection is known.
func (s *Selection) Not() {
	s.touch(0, len(s.words)-1)
	for w := range s.words {
		s.words[w] = ^s.words[w]
	}
	if tail := uint(s.n) & 63; tail != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= allOnes >> (64 - tail)
	}
}

// CountRange returns the number of selected rows in [lo, hi), reading
// only the words the range covers (edge words under a mask). It is
// the per-block cardinality probe of the table scan's aggregation
// paths: a block whose range counts zero is never fetched.
func (s *Selection) CountRange(lo, hi int) int {
	// Rows outside the dirty span are unselected.
	lo = max(lo, s.lo<<6)
	hi = min(hi, s.hi<<6, s.n)
	if lo >= hi {
		return 0
	}
	firstWord := lo >> 6
	lastWord := (hi - 1) >> 6
	startBit := uint(lo) & 63
	endBits := uint(hi-1)&63 + 1
	if firstWord == lastWord {
		m := (allOnes >> (64 - endBits + startBit)) << startBit
		return bits.OnesCount64(s.words[firstWord] & m)
	}
	c := bits.OnesCount64(s.words[firstWord] & (allOnes << startBit))
	for w := firstWord + 1; w < lastWord; w++ {
		c += bits.OnesCount64(s.words[w])
	}
	return c + bits.OnesCount64(s.words[lastWord]&(allOnes>>(64-endBits)))
}

// Window returns the bits of rows [pos, pos+64) as one word, bit j
// standing for row pos+j, with only the first n kept when fewer than
// 64 remain (0 < n, pos+n <= Len). pos need not be word-aligned: it is
// how consumers of a block's rows read a selection at the block's row
// offset.
func (s *Selection) Window(pos, n int) uint64 {
	m := s.words[pos>>6] >> (uint(pos) & 63)
	if pos&63 != 0 && pos>>6+1 < len(s.words) {
		m |= s.words[pos>>6+1] << (64 - uint(pos)&63)
	}
	if n < 64 {
		m &= 1<<uint(n) - 1
	}
	return m
}

// MaskedSum returns the wrapping sum of the vals[i] whose row pos+i is
// selected, word-at-a-time: full words add 64 values branch-free,
// sparse words walk their set bits. It is the masked aggregation over a
// decoded block.
func (s *Selection) MaskedSum(pos int, vals []int64) int64 {
	var total int64
	for r := 0; r < len(vals); r += 64 {
		switch m := s.Window(pos+r, len(vals)-r); m {
		case 0:
		case allOnes:
			for _, v := range vals[r : r+64] {
				total += v
			}
		default:
			for ; m != 0; m &= m - 1 {
				total += vals[r+bits.TrailingZeros64(m)]
			}
		}
	}
	return total
}

// Count returns the number of selected rows (the rank of the full
// domain), one popcount per word of the dirty span.
func (s *Selection) Count() int {
	if s.lo >= s.hi {
		return 0
	}
	c := 0
	for _, w := range s.words[s.lo:s.hi] {
		c += bits.OnesCount64(w)
	}
	return c
}

// Rank returns the number of selected rows strictly below position i.
func (s *Selection) Rank(i int) int { return s.CountRange(0, i) }

// Iterate visits the selected rows in ascending order, stopping early
// if visit returns false.
func (s *Selection) Iterate(visit func(i int) bool) {
	for wi, w := range s.words {
		base := wi << 6
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !visit(base + b) {
				return
			}
			w &= w - 1
		}
	}
}

// AppendRows appends the selected rows, each offset by base, to dst
// in ascending order and returns the extended slice. It is the
// conversion to the public []int64 row-position representation.
func (s *Selection) AppendRows(dst []int64, base int64) []int64 {
	for wi, w := range s.words {
		rowBase := base + int64(wi<<6)
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, rowBase+int64(b))
			w &= w - 1
		}
	}
	return dst
}

// Rows returns the selected rows as a fresh ascending row-position
// column (empty, non-nil for an empty selection).
func (s *Selection) Rows() []int64 {
	return s.AppendRows(make([]int64, 0, s.Count()), 0)
}
