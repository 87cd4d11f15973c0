package query

import (
	"fmt"
	"math/bits"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/vec"
)

// leaf is where every pushdown ends: a column the verbs run on
// directly. It has two implementations — packed NS/VNS words, scanned
// in place by the fused bitpack kernels, and a plain []int64, the one
// materialising fallback — and the rewrite in select.go never needs to
// know which it holds. A nil leaf stands for the all-zero column (a
// bare step model has no offsets).
type leaf interface {
	// extent bounds the values of rows [start, start+count) without
	// reading them: every value lies in [min, max].
	extent(start, count int) (min, max int64)
	// apply runs p's verb over the rows of [start, start+count) whose
	// value lies in [lo, hi] (a range inside the extent): each is
	// counted, selected at its own position, or summed with add on top.
	apply(p *pushdown, start, count int, lo, hi, add int64) error
	// sum returns the wrapping sum of rows [start, start+count).
	sum(start, count int) (int64, error)
	// sumSel returns the wrapping sum of the rows p's selection holds,
	// each value read through tab when tab is non-nil (a dictionary,
	// the leaf its codes).
	sumSel(p *pushdown, tab []int64) (int64, error)
	// prefixRange writes into masks[g] which of x plus the running sums
	// of rows [start, start+count) — start a multiple of 64 — lie in
	// [lo, hi] (bit j for row start+64g+j), wrapping, and returns the
	// last of them: a delta form's matches over its deltas.
	prefixRange(start, count int, x, lo, hi int64, masks []uint64) (last int64, err error)
	// prefixSel returns the wrapping sum of x plus the running sums of
	// rows [start, start+count) — start a multiple of 64 — at the rows
	// masks selects (bit j of masks[g] is row start+64g+j), and x plus
	// the sum of every one of them: a delta form's selection sum over
	// its deltas.
	prefixSel(start, count int, masks []uint64, x int64) (sum, last int64, err error)
	// at returns the value of row i.
	at(i int) int64
}

// leaves is the storage behind the leaf a pushdown holds. A pushdown
// has at most one leaf open at a time (the rewrite recurses into one
// child at a time and a leaf ends the recursion), so one of each kind,
// living in the pooled pushdown, hands out leaves without allocating.
type leaves struct {
	pk packed
	pl plain
}

// open returns the leaf over f: f's own words when f is an NS or VNS
// form whose layout the kernels can scan, an ID form's values as they
// are, and otherwise — here and nowhere else — f decoded into scratch
// storage, which is also how a corrupt packed layout reports itself:
// the decode it falls back to refuses it. Pair with close.
func (l *leaves) open(f *core.Form, s *core.Scratch) (leaf, error) {
	if f.Scheme == scheme.IDName && len(f.Leaf) == f.N {
		l.pl = plain{vals: f.Leaf}
		return &l.pl, nil
	}
	if l.pk.open(f, s) {
		return &l.pk, nil
	}
	vals := s.I64(f.N)
	if err := core.DecompressInto(f, vals, s); err != nil {
		s.PutI64(vals)
		return nil, err
	}
	l.pl = plain{vals: vals, borrowed: true}
	return &l.pl, nil
}

// close returns what open borrowed from s.
func (l *leaves) close(s *core.Scratch) {
	s.PutI64(l.pk.widths)
	s.PutI64(l.pk.offs)
	if l.pl.borrowed {
		s.PutI64(l.pl.vals)
	}
	l.pk, l.pl = packed{}, plain{}
}

// packed is the leaf over bit-packed words: a VNS payload is a row of
// mini-blocks, each packed at its own width, and an NS payload is the
// same with one mini-block spanning the column.
type packed struct {
	words []uint64
	n     int
	zz    bool
	// block is the mini-block length; mini-block b is packed at
	// widths[b] and starts at word offs[b]. An NS leaf keeps its single
	// width in one and leaves offs nil.
	block  int
	widths []int64
	offs   []int64
	one    [1]int64
}

// open points k at f's payload and reports whether the kernels can scan
// it: an NS or VNS form with a known zigzag flag, every width one the
// kernels compare correctly (the unsigned ones reinterpret stored words
// as non-negative values, so they stop at 63 bits; the zigzag ones
// decode inline and take all 64), and a payload that covers every
// mini-block.
func (k *packed) open(f *core.Form, s *core.Scratch) bool {
	zz := f.Params["zigzag"]
	if f.N == 0 || (zz != 0 && zz != 1) {
		return false
	}
	maxW := 63 + zz
	*k = packed{words: f.Packed, n: f.N, zz: zz == 1}
	switch f.Scheme {
	case scheme.NSName:
		w := f.Params["width"]
		k.block, k.one[0] = f.N, w
		return w >= 0 && w <= maxW && bitpack.PackedWords(f.N, uint(w)) <= len(f.Packed)
	case scheme.VNSName:
		k.block = int(f.Params["block"])
		if k.block < 1 {
			return false
		}
		widths, err := core.ChildScratch(f, "widths", s)
		if err != nil {
			return false // the decode open falls back to reports it
		}
		nblocks := (f.N + k.block - 1) / k.block
		offs := s.I64(nblocks + 1)
		offs[0] = 0
		ok := len(widths) == nblocks
		for b := 0; ok && b < nblocks; b++ {
			if w := widths[b]; w < 0 || w > maxW {
				ok = false
			} else {
				offs[b+1] = offs[b] + int64(bitpack.PackedWords(min(k.block, f.N-b*k.block), uint(w)))
			}
		}
		if !ok || int(offs[nblocks]) > len(f.Packed) {
			s.PutI64(widths)
			s.PutI64(offs)
			return false
		}
		k.widths, k.offs = widths, offs
		return true
	}
	return false
}

// miniBlock returns mini-block b's words, width and first row.
func (k *packed) miniBlock(b int) (words []uint64, w uint, first int) {
	if k.offs == nil {
		return k.words, uint(k.one[0]), 0
	}
	return k.words[k.offs[b]:k.offs[b+1]], uint(k.widths[b]), b * k.block
}

// overlap clips rows [start, end) to the mini-block starting at first,
// returning the overlap's first row relative to the block and its
// length.
func (k *packed) overlap(first, start, end int) (rel, count int) {
	lo, hi := max(start, first), min(end, first+k.block, k.n)
	return lo - first, hi - lo
}

func (k *packed) extent(start, count int) (int64, int64) {
	var w uint
	for b, end := start/k.block, start+count; b*k.block < end; b++ {
		_, bw, _ := k.miniBlock(b)
		w = max(w, bw)
	}
	switch {
	case !k.zz:
		return 0, int64(bitpack.Mask(w))
	case w == 0:
		return 0, 0
	}
	return -1 << (w - 1), 1<<(w-1) - 1
}

func (k *packed) apply(p *pushdown, start, count int, lo, hi, add int64) error {
	for b, end := start/k.block, start+count; b*k.block < end; b++ {
		words, w, first := k.miniBlock(b)
		rel, n := k.overlap(first, start, end)
		var c, s int64
		var err error
		switch {
		case p.verb == selectVerb || p.verb == keepVerb:
			dst, off := p.dst.Words(p.base+first+rel, n)
			err = k.selectWords(words, w, rel, n, lo, hi, p.verb == keepVerb, dst, off)
		case p.verb == CountVerb && k.zz:
			c, err = bitpack.CountRangeZZ(words, rel, n, w, lo, hi)
		case p.verb == CountVerb:
			c, err = bitpack.CountRangeU(words, rel, n, w, uint64(lo), uint64(hi))
		case k.zz:
			s, c, err = bitpack.SumRangeZZ(words, rel, n, w, lo, hi)
		default:
			var us uint64
			us, c, err = bitpack.SumRangeU(words, rel, n, w, uint64(lo), uint64(hi))
			s = int64(us)
		}
		if err != nil {
			return err
		}
		p.count += c
		p.sum += s + add*c
	}
	return nil
}

// selectWords selects, or keeps, the rows [rel, rel+n) of a
// mini-block's words against [lo, hi] into the selection words dst from
// bit off: the fused kernels write the selection in place.
func (k *packed) selectWords(words []uint64, w uint, rel, n int, lo, hi int64, keep bool, dst []uint64, off int) error {
	switch {
	case k.zz && keep:
		return bitpack.KeepRangeZZ(words, rel, n, w, lo, hi, dst, off)
	case k.zz:
		return bitpack.SelectRangeZZ(words, rel, n, w, lo, hi, dst, off)
	case keep:
		return bitpack.KeepRangeU(words, rel, n, w, uint64(lo), uint64(hi), dst, off)
	}
	return bitpack.SelectRangeU(words, rel, n, w, uint64(lo), uint64(hi), dst, off)
}

func (k *packed) sum(start, count int) (total int64, err error) {
	for b, end := start/k.block, start+count; b*k.block < end && err == nil; b++ {
		words, w, first := k.miniBlock(b)
		rel, n := k.overlap(first, start, end)
		if k.zz {
			var s int64
			s, err = bitpack.SumZZ(words, rel, n, w)
			total += s
		} else {
			// The wrapping uint64 sum is bit-identical to the wrapping
			// int64 sum of the reinterpreted values.
			var us uint64
			us, err = bitpack.SumU(words, rel, n, w)
			total += int64(us)
		}
	}
	return total, err
}

// sparseGroup is the most selected rows of a 64-row group that are
// read one value at a time where no masked kernel applies; past it,
// unpacking the whole group costs less.
const sparseGroup = 16

// sumSel walks each mini-block 64 rows at a time. Rows the selection
// skips are not read. The whole groups of plain values up to
// bitpack.MaxMaskedWidth bits are one bitpack.SumMaskedU call a
// mini-block, over the selection's own words where they line up with
// the groups, however many of their rows are selected. Every other
// group — dictionary codes, zigzag payloads, wider values and a
// mini-block's partial last group — goes through the fused sum kernels
// when fully selected of plain values, reads just its selected values
// when sparsely selected, and is otherwise unpacked and its selected
// values added.
func (k *packed) sumSel(p *pushdown, tab []int64) (total int64, err error) {
	buf := p.s.U64(bitpack.BlockLen)
	defer p.s.PutU64(buf)
	for b := 0; b*k.block < k.n; b++ {
		words, w, first := k.miniBlock(b)
		end := min(first+k.block, k.n)
		if w == 0 && tab == nil {
			continue // every value is 0, zigzag or not
		}
		r := first
		if full := (end - first) / bitpack.BlockLen; tab == nil && !k.zz && w <= bitpack.MaxMaskedWidth && full > 0 {
			s, err := k.sumMasked(p, words, w, first, full)
			if err != nil {
				return 0, err
			}
			total += s
			r += full * bitpack.BlockLen
		}
		for ; r < end; r += bitpack.BlockLen {
			c := min(bitpack.BlockLen, end-r)
			m := p.word(r, end)
			var s int64
			switch {
			case m == 0:
				continue
			case m == bitpack.Mask(uint(c)) && tab == nil:
				s, err = k.sum(r, c)
			case bits.OnesCount64(m) <= sparseGroup:
				n := 0
				for ; m != 0; m &= m - 1 {
					buf[n] = bitpack.ValueAt(words, r-first+bits.TrailingZeros64(m), w)
					n++
				}
				s, err = k.add(buf[:n], bitpack.Mask(uint(n)), tab)
			default:
				// r−first is a multiple of 64, so its values start on a word.
				if err = bitpack.UnpackInto(buf[:c], words[(r-first)/bitpack.BlockLen*int(w):], w); err == nil {
					s, err = k.add(buf[:c], m, tab)
				}
			}
			if err != nil {
				return 0, err
			}
			total += s
		}
	}
	return total, nil
}

// sumMasked sums the selected rows of the first full groups of a
// mini-block's plain words, whose first row is first, with one
// bitpack.SumMaskedU call: its masks are the selection's words when the
// groups start on one, and a copy of the groups' windows otherwise.
func (k *packed) sumMasked(p *pushdown, words []uint64, w uint, first, full int) (int64, error) {
	masks, off := p.dst.Words(p.base+first, full*bitpack.BlockLen)
	if off != 0 {
		masks = p.s.U64(full)
		defer p.s.PutU64(masks)
		for g := range masks {
			masks[g] = p.word(first+g*bitpack.BlockLen, first+full*bitpack.BlockLen)
		}
	}
	s, err := bitpack.SumMaskedU(words, 0, w, masks[:full])
	return int64(s), err
}

// add returns the wrapping sum of the packed values vals[j] for the set
// bits j of m, each zigzag-decoded for a zigzag payload and read
// through tab when tab is non-nil. Plain values, the common case, take
// a loop of their own.
func (k *packed) add(vals []uint64, m uint64, tab []int64) (int64, error) {
	var sum int64
	if tab == nil && !k.zz {
		for ; m != 0; m &= m - 1 {
			sum += int64(vals[bits.TrailingZeros64(m)])
		}
		return sum, nil
	}
	for ; m != 0; m &= m - 1 {
		u := vals[bits.TrailingZeros64(m)]
		v := int64(u)
		if k.zz {
			v = bitpack.Unzigzag(u)
		}
		if tab != nil {
			if uint64(v) >= uint64(len(tab)) {
				return 0, errCode(v)
			}
			v = tab[v]
		}
		sum += v
	}
	return sum, nil
}

// grouped reports whether every mini-block starts on a 64-row group,
// so that the kernels that work a group at a time take its words.
func (k *packed) grouped() bool {
	return k.offs == nil || k.block%bitpack.BlockLen == 0
}

// groupWords returns a mini-block's words from its row rel on, a
// multiple of 64: a whole group's values fill w words.
func groupWords(words []uint64, rel int, w uint) []uint64 {
	return words[rel/bitpack.BlockLen*int(w):]
}

// prefixSel hands the rows of each mini-block the range covers to
// bitpack.PrefixMaskedSum when mini-blocks start on groups, and reads
// the rows one at a time otherwise.
func (k *packed) prefixSel(start, count int, masks []uint64, x int64) (sum, last int64, err error) {
	if !k.grouped() {
		return prefixSelRows(k, start, count, masks, x)
	}
	for end := start + count; start < end; {
		words, w, first := k.miniBlock(start / k.block)
		rel, n := k.overlap(first, start, end)
		s, last, err := bitpack.PrefixMaskedSum(groupWords(words, rel, w), n, w, k.zz, x, masks)
		if err != nil {
			return 0, 0, err
		}
		sum, x = sum+s, last
		masks = masks[(n+bitpack.BlockLen-1)/bitpack.BlockLen:]
		start += n
	}
	return sum, x, nil
}

// prefixSelRows is prefixSel one row at a time.
func prefixSelRows(l leaf, start, count int, masks []uint64, x int64) (sum, last int64, err error) {
	for i := 0; i < count; i++ {
		x += l.at(start + i)
		sum += x & (int64(masks[i/bitpack.BlockLen]<<(63-uint(i)%bitpack.BlockLen)) >> 63)
	}
	return sum, x, nil
}

// prefixRange runs the fused kernel over the rows of each mini-block
// the range covers when mini-blocks start on groups, and reads the rows
// one at a time otherwise.
func (k *packed) prefixRange(start, count int, x, lo, hi int64, masks []uint64) (int64, error) {
	if !k.grouped() {
		return prefixRangeRows(k, start, count, x, lo, hi, masks)
	}
	for end := start + count; start < end; {
		words, w, first := k.miniBlock(start / k.block)
		rel, n := k.overlap(first, start, end)
		var err error
		if x, err = bitpack.PrefixRange(words, rel, n, w, k.zz, x, lo, hi, masks); err != nil {
			return 0, err
		}
		masks = masks[(n+bitpack.BlockLen-1)/bitpack.BlockLen:]
		start += n
	}
	return x, nil
}

// prefixRangeRows is prefixRange one row at a time.
func prefixRangeRows(l leaf, start, count int, x, lo, hi int64, masks []uint64) (last int64, err error) {
	for j := 0; j < count; j++ {
		if j%bitpack.BlockLen == 0 {
			masks[j/bitpack.BlockLen] = 0
		}
		x += l.at(start + j)
		if x >= lo && x <= hi {
			masks[j/bitpack.BlockLen] |= 1 << uint(j%bitpack.BlockLen)
		}
	}
	return x, nil
}

func (k *packed) at(i int) int64 {
	words, w, first := k.miniBlock(i / k.block)
	u := bitpack.ValueAt(words, i-first, w)
	if k.zz {
		return bitpack.Unzigzag(u)
	}
	return int64(u)
}

// plain is the leaf over materialised values. Its extent is all of
// int64: reading the values to bound them would cost what answering
// from them costs.
type plain struct {
	vals     []int64
	borrowed bool // vals came from the scratch arena
}

func (*plain) extent(int, int) (int64, int64) { return minInt64, maxInt64 }

func (v *plain) apply(p *pushdown, start, count int, lo, hi, add int64) error {
	rows := v.vals[start : start+count]
	switch p.verb {
	case selectVerb, keepVerb:
		SelectPlain(rows, lo, hi, p.dst, p.base+start, p.verb == keepVerb)
	case CountVerb:
		p.count += vec.CountRange(rows, lo, hi)
	default:
		s, c := vec.SumRange(rows, lo, hi)
		p.count += c
		p.sum += s + add*c
	}
	return nil
}

func (v *plain) sum(start, count int) (int64, error) {
	return vec.Sum(v.vals[start : start+count]), nil
}

func (v *plain) sumSel(p *pushdown, tab []int64) (int64, error) {
	if tab == nil {
		return p.dst.MaskedSum(p.base, v.vals), nil
	}
	var total int64
	for r := 0; r < len(v.vals); r += bitpack.BlockLen {
		for m := p.word(r, len(v.vals)); m != 0; m &= m - 1 {
			c := v.vals[r+bits.TrailingZeros64(m)]
			if uint64(c) >= uint64(len(tab)) {
				return 0, errCode(c)
			}
			total += tab[c]
		}
	}
	return total, nil
}

// errCode reports a dictionary code outside its dictionary.
func errCode(c int64) error {
	return fmt.Errorf("%w: dict code %d out of range", core.ErrCorruptForm, c)
}

func (v *plain) prefixSel(start, count int, masks []uint64, x int64) (int64, int64, error) {
	return prefixSelRows(v, start, count, masks, x)
}

func (v *plain) prefixRange(start, count int, x, lo, hi int64, masks []uint64) (int64, error) {
	return prefixRangeRows(v, start, count, x, lo, hi, masks)
}

func (v *plain) at(i int) int64 { return v.vals[i] }
