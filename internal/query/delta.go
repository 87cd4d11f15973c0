package query

import (
	"math/bits"
	"slices"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
)

// This file is push's and sumSel's rule for a delta form: row r holds
// first + d[0] + … + d[r], wrapping as decode's prefix sum does. A
// framed form records each segment's first value and [min, max]
// (scheme.Delta): a segment clear of the range is not read and one
// inside it lands whole, and the rest of the rule runs inside the
// other segments only, each from the value before it; a form without
// a frame is one such segment. Inside a segment the deltas leaf is
// walked one 64-row group at a time, carrying the value before the
// group, which the leaf's group sums (one sum kernel call a
// mini-block, lane-parallel on the packed words) advance without
// unpacking it. A group running from x to e whose deltas lie in the leaf's
// extent can only reach values inside two cones, one out of x and one
// back from e; their intersection bounds a band (cone.band). A group
// clear of the range is skipped and one inside it lands whole; only a
// straddling group is unpacked, prefix-summed and compared, in one
// fused kernel call for each run of straddling groups
// (bitpack.PrefixRange). A sum then adds up the matches of every group
// segment by segment (bitpack.PrefixMaskedSum), which is also the
// whole of a selection sum: a segment the selection holds no row of is
// not read, and a group it holds no row of is passed over by its sum
// kernel. Keep has no rule here: it selects into a
// temporary (selectThenAnd). What no band bounds — a plain leaf,
// deltas wider than bandWidth, a band that wraps — is prefix-summed and
// compared too, so the rule is exact at the int64 extremes by
// construction.

// bandWidth bounds the delta extents a band is computed for: inside
// ±2^bandWidth, a 64-row group's cone stays far inside an int64.
const bandWidth = 24

// addOK returns a + b and whether the sum did not wrap.
func addOK(a, b int64) (int64, bool) {
	c := a + b
	return c, (c > a) == (b > 0)
}

// subOK returns a − b and whether the difference did not wrap.
func subOK(a, b int64) (int64, bool) {
	c := a - b
	return c, (c < a) == (b > 0)
}

// cone is the extent [dmin, dmax] of a leaf's deltas, which bounds
// where the running sums from a known value can go. A packed leaf's
// extent is [0, 2^w−1], or [−2^(w−1), 2^(w−1)−1] for a zigzag one
// (shift is then w); any other extent has no band.
type cone struct {
	dmin, dmax int64
	zz         bool
	shift      uint
	ok         bool
}

// coneOf returns the cone of the extent [dmin, dmax].
func coneOf(dmin, dmax int64) cone {
	c := cone{dmin: dmin, dmax: dmax}
	switch {
	case dmax < 0 || dmax >= 1<<bandWidth:
	case dmin == 0:
		c.ok = true
	case dmin == -dmax-1:
		c.ok, c.zz, c.shift = true, true, uint(bits.Len64(uint64(-dmin)))
	}
	return c
}

// band bounds the values of the n rows that run from after x to e;
// ok is false when it cannot. Row t (1-based) is at least
// max(x + t·dmin, e − (n−t)·dmax) and at most
// min(x + t·dmax, e − (n−t)·dmin). A convex combination of the two
// sides is no greater than their maximum (no less than their minimum),
// and the one weighting them dmax : −dmin (−dmin : dmax) cancels t:
// every row is at least x − (−dmin)·A/(dmax−dmin) and at most
// x + dmax·B/(dmax−dmin), A = n·dmax − (e−x) and B = (e−x) − n·dmin.
// Without negative deltas that is [x, e]. With a zigzag extent the two
// factors are 2^(w−1)/(2^w−1) ≤ 1/2 + 2^−w and (2^(w−1)−1)/(2^w−1)
// ≤ 1/2, so shifts bound them, rounded outward: no division.
func (c *cone) band(x, e int64, n int) (vmin, vmax int64, ok bool) {
	if !c.ok {
		return 0, 0, false
	}
	k := int64(n)
	d, ok := subOK(e, x) // in [k·dmin, k·dmax] when nothing wrapped
	if !ok || d < k*c.dmin || d > k*c.dmax {
		return 0, 0, false
	}
	if !c.zz {
		return x, e, true
	}
	a, b := k*c.dmax-d, d-k*c.dmin
	vmin, ok0 := subOK(x, a>>1+a>>c.shift+3)
	vmax, ok1 := addOK(x, b>>1+1)
	return vmin, vmax, ok0 && ok1
}

// segs is a delta form's segments as the rule reads them: n rows
// each and, for a framed form, its frame column — per segment the
// first value, the minimum and the maximum, offsets from base — read
// in place, one value at a time. A form without a frame is one
// segment of N rows with no recorded extremes.
type segs struct {
	n     int
	frame leaf // nil without a frame
	base  int64
	first int64
}

// segsOf returns f's segments, the frame leaf opened in p.frame (close
// it with p.frame.close); l is f's deltas leaf. f has passed its check,
// so a frame holds three values a segment.
func (p *pushdown) segsOf(f *core.Form, l leaf) (segs, error) {
	sg := segs{n: max(f.N, 1), first: scheme.DeltaFirst(f)}
	segLen, frame := scheme.DeltaFrame(f)
	if frame == nil {
		return sg, nil
	}
	fl, err := p.frame.open(frame, p.s)
	if err != nil {
		return sg, err
	}
	sg.n, sg.frame = segLen, fl
	sg.base = sg.first + l.at(0) - fl.at(0)
	return sg, nil
}

// extent returns the recorded [min, max] of segment s; ok is false
// without a frame.
func (sg *segs) extent(s int) (lo, hi int64, ok bool) {
	if sg.frame == nil {
		return 0, 0, false
	}
	return sg.base + sg.frame.at(3*s+1), sg.base + sg.frame.at(3*s+2), true
}

// anchor returns the value of segment s's first row, for s > 0 of a
// framed form.
func (sg *segs) anchor(s int) int64 { return sg.base + sg.frame.at(3*s) }

// before returns the value before segment s's first row: first for
// the first segment, otherwise its anchor less its own delta.
func (sg *segs) before(s int, l leaf) int64 {
	if s == 0 {
		return sg.first
	}
	return sg.anchor(s) - l.at(s*sg.n)
}

// groupsOf returns the number of 64-row groups of n rows.
func groupsOf(n int) int { return (n + bitpack.BlockLen - 1) / bitpack.BlockLen }

// deltas is push's walk over a delta form: each segment its frame
// puts clear of the range or inside it is decided whole, and the
// groups of the others are decided by their bands or made by the
// leaf's prefixRange, from the value before the segment. The matches
// go into one word a group of a mask array, which the verb then takes
// whole.
func (p *pushdown) deltas(f *core.Form, lo, hi, add int64) error {
	l, err := p.leafOf(f.Children["deltas"])
	if err != nil {
		return err
	}
	defer p.close(p.s)
	sg, err := p.segsOf(f, l)
	if err != nil {
		return err
	}
	defer p.frame.close(p.s)
	masks := p.s.U64(groupsOf(f.N))
	defer p.s.PutU64(masks)
	sums := p.s.I64(groupsOf(min(sg.n, f.N)))
	defer p.s.PutI64(sums)
	// One extent for the whole leaf: an NS leaf has only one, and a VNS
	// leaf's widest bounds each of its mini-blocks.
	c := coneOf(l.extent(0, f.N))
	for s := 0; s*sg.n < f.N; s++ {
		a, b := s*sg.n, min(f.N, (s+1)*sg.n)
		m := masks[a/bitpack.BlockLen : groupsOf(b)]
		if vmin, vmax, ok := sg.extent(s); ok {
			switch {
			case vmax < lo || vmin > hi:
				clear(m)
				continue
			case lo <= vmin && vmax <= hi:
				for g := range m {
					m[g] = bitpack.Mask(uint(min(bitpack.BlockLen, b-a-g*bitpack.BlockLen)))
				}
				continue
			}
		}
		if err := walk(l, &c, a, b-a, sg.before(s, l), lo, hi, sums[:len(m)], m); err != nil {
			return err
		}
	}
	var count int64
	for g, m := range masks {
		count += int64(bits.OnesCount64(m))
		if p.verb == selectVerb {
			p.dst.OrWord(p.base+g*bitpack.BlockLen, m)
		}
	}
	p.count += count
	if p.verb == SumVerb && count > 0 {
		sum, err := sg.prefixSel(l, masks, f.N)
		p.sum += sum + add*count
		return err
	}
	return nil
}

// walk makes the masks of the count rows from start — a multiple of
// 64 — whose running sums start after x: each group's band, from its
// sum and the cone c, decides it, and the groups no band decides are
// made and compared by runs, one prefixRange call a run. sums holds a
// value a group.
func walk(l leaf, c *cone, start, count int, x, lo, hi int64, sums []int64, masks []uint64) error {
	if err := l.groups(start, count, sums); err != nil {
		return err
	}
	// run is the first group of the pending run (-1 for none) and rx
	// the value before it.
	run, rx := -1, x
	for g, sum := range sums {
		k := min(bitpack.BlockLen, count-g*bitpack.BlockLen)
		e := x + sum
		vmin, vmax, ok := c.band(x, e, k)
		switch {
		case ok && (vmax < lo || vmin > hi):
			masks[g] = 0
		case ok && lo <= vmin && vmax <= hi:
			masks[g] = bitpack.Mask(uint(k))
		default:
			if run < 0 {
				run, rx = g, x
			}
			x = e
			continue
		}
		if err := straddling(l, start, run, g, count, rx, lo, hi, masks); err != nil {
			return err
		}
		run, x = -1, e
	}
	return straddling(l, start, run, len(sums), count, rx, lo, hi, masks)
}

// straddling makes the masks of groups [run, end) of the count rows
// from start, whose running sums start after x, with one prefixRange
// call: the groups no band decided. A run of -1 is none.
func straddling(l leaf, start, run, end, count int, x, lo, hi int64, masks []uint64) error {
	if run < 0 {
		return nil
	}
	a := run * bitpack.BlockLen
	_, err := l.prefixRange(start+a, min(end*bitpack.BlockLen, count)-a, x, lo, hi, masks[run:end])
	return err
}

// prefixSel returns the wrapping sum of the rows of an n-row delta
// form that masks selects (one word a 64-row group): the leaf's
// prefixSel over each segment that holds a selected row, from the
// value before it — carried over from the segment before when that one
// was walked, taken from the frame otherwise. A segment with no
// selected row is not read.
func (sg *segs) prefixSel(l leaf, masks []uint64, n int) (int64, error) {
	var sum int64
	x, next := sg.first, 0 // x is the value before row next
	for s := 0; s*sg.n < n; s++ {
		a, b := s*sg.n, min(n, (s+1)*sg.n)
		m := masks[a/bitpack.BlockLen : groupsOf(b)]
		if !slices.ContainsFunc(m, nonZero) {
			continue
		}
		if a != next {
			x = sg.before(s, l)
		}
		ss, last, err := l.prefixSel(a, b-a, m, x)
		if err != nil {
			return 0, err
		}
		sum, x, next = sum+ss, last, b
	}
	return sum, nil
}

func nonZero(w uint64) bool { return w != 0 }

// deltaSel is sumSel's walk over a delta form: the selection, one
// word per 64-row group, goes to the leaf's prefixSel segment by
// segment, which passes over a group it holds no row of by the group's
// sum and prefix-sums the others (bitpack.PrefixMaskedSum).
func (p *pushdown) deltaSel(f *core.Form) (int64, error) {
	l, err := p.leafOf(f.Children["deltas"])
	if err != nil {
		return 0, err
	}
	defer p.close(p.s)
	sg, err := p.segsOf(f, l)
	if err != nil {
		return 0, err
	}
	defer p.frame.close(p.s)
	masks := p.s.U64(groupsOf(f.N))
	defer p.s.PutU64(masks)
	for g := range masks {
		masks[g] = p.word(g*bitpack.BlockLen, f.N)
	}
	return sg.prefixSel(l, masks, f.N)
}

// deltaGather writes a delta form's values at the ascending positions
// into out: the value before each is first plus the leaf's sum up to
// it, advanced from the one before — or, where the position's segment
// starts past the rows summed so far, from that segment's anchor.
func (p *pushdown) deltaGather(f *core.Form, positions, out []int64) error {
	l, err := p.leafOf(f.Children["deltas"])
	if err != nil {
		return err
	}
	defer p.close(p.s)
	sg, err := p.segsOf(f, l)
	if err != nil {
		return err
	}
	defer p.frame.close(p.s)
	x, next := sg.first, 0 // x is the value before row next
	for i, pos := range positions {
		if s := int(pos) / sg.n; sg.frame != nil && s > 0 && s*sg.n >= next {
			x, next = sg.anchor(s), s*sg.n+1
		}
		if k := int(pos) + 1 - next; k > 0 {
			s, err := l.sum(next, k)
			if err != nil {
				return err
			}
			x += s
			next = int(pos) + 1
		}
		out[i] = x
	}
	return nil
}
