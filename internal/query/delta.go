package query

import (
	"math/bits"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
)

// This file is push's and sumSel's rule for a delta form: row r holds
// first + d[0] + … + d[r], wrapping as decode's prefix sum does. The
// deltas leaf is walked one 64-row group at a time, carrying the value
// before the group, which the leaf's group sums (one sum kernel call a
// mini-block, lane-parallel on the packed words) advance without unpacking
// it. A group running from x to e whose deltas lie in the leaf's
// extent can only reach values inside two cones, one out of x and one
// back from e; their intersection bounds a band (cone.band), as a
// line's ends bound one in linear.go. A group clear of the range is
// skipped and one inside it lands whole; only a straddling group is
// unpacked, prefix-summed and compared, in one fused kernel call for
// each run of straddling groups (bitpack.PrefixRange). A sum then adds
// up the matches of every group in one pass (bitpack.PrefixMaskedSum),
// which is also the whole of a selection sum: a group the selection
// holds no row of is passed over by its sum kernel. Keep has no rule
// here: it selects into a temporary (selectThenAnd). What no band
// bounds — a plain leaf, deltas wider
// than bandWidth, a band that wraps — is prefix-summed and compared
// too, so the rule is exact at the int64 extremes by construction.

// bandWidth bounds the delta extents a band is computed for: inside
// ±2^bandWidth, a 64-row group's cone stays far inside an int64.
const bandWidth = 24

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

// deltas is push's walk over a delta form: each group's matches, found
// by its band or by the leaf's prefixRange, go into one word of a mask
// array, which the verb then takes whole.
func (p *pushdown) deltas(f *core.Form, lo, hi, add int64) error {
	l, err := p.leafOf(f.Children["deltas"])
	if err != nil {
		return err
	}
	defer p.close(p.s)
	ngroups := (f.N + bitpack.BlockLen - 1) / bitpack.BlockLen
	sums := p.s.I64(ngroups)
	defer p.s.PutI64(sums)
	masks := p.s.U64(ngroups)
	defer p.s.PutU64(masks)
	if err := l.groups(sums); err != nil {
		return err
	}
	first := scheme.DeltaFirst(f)
	x := first
	// One extent for the whole leaf: an NS leaf has only one, and a VNS
	// leaf's widest bounds each of its mini-blocks.
	c := coneOf(l.extent(0, f.N))
	// Groups no band decides are made and compared by runs: run is the
	// first group of the pending one (-1 for none) and rx the value
	// before it.
	run, rx := -1, x
	for g, sum := range sums {
		k := min(bitpack.BlockLen, f.N-g*bitpack.BlockLen)
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
		if err := straddling(l, run, g, f.N, rx, lo, hi, masks); err != nil {
			return err
		}
		run, x = -1, e
	}
	if err := straddling(l, run, len(sums), f.N, rx, lo, hi, masks); err != nil {
		return err
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
		sum, _, err := l.prefixSel(masks, first)
		p.sum += sum + add*count
		return err
	}
	return nil
}

// straddling makes the masks of groups [run, end) of an n-row delta
// form, whose running sums start after x, with one prefixRange call:
// the groups no band decided. A run of -1 is none.
func straddling(l leaf, run, end, n int, x, lo, hi int64, masks []uint64) error {
	if run < 0 {
		return nil
	}
	a := run * bitpack.BlockLen
	_, err := l.prefixRange(a, min(end*bitpack.BlockLen, n)-a, x, lo, hi, masks[run:end])
	return err
}

// deltaSel is sumSel's walk over a delta form: the selection, one
// word per 64-row group, goes to the leaf's prefixSel, which passes
// over a group it holds no row of by the group's sum and prefix-sums
// the others (bitpack.PrefixMaskedSum).
func (p *pushdown) deltaSel(f *core.Form) (int64, error) {
	l, err := p.leafOf(f.Children["deltas"])
	if err != nil {
		return 0, err
	}
	defer p.close(p.s)
	masks := p.s.U64((f.N + bitpack.BlockLen - 1) / bitpack.BlockLen)
	defer p.s.PutU64(masks)
	for g := range masks {
		masks[g] = p.word(g*bitpack.BlockLen, f.N)
	}
	sum, _, err := l.prefixSel(masks, scheme.DeltaFirst(f))
	return sum, err
}

// deltaGather writes a delta form's values at the ascending positions
// into out: the value before each is first plus the leaf's sum up to
// it, advanced from the one before.
func (p *pushdown) deltaGather(f *core.Form, positions, out []int64) error {
	l, err := p.leafOf(f.Children["deltas"])
	if err != nil {
		return err
	}
	defer p.close(p.s)
	x, next := scheme.DeltaFirst(f), 0
	for i, pos := range positions {
		s, err := l.sum(next, int(pos)+1-next)
		if err != nil {
			return err
		}
		x += s
		next = int(pos) + 1
		out[i] = x
	}
	return nil
}
