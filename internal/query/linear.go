package query

import (
	"math/bits"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
)

// This file is push's rule for a linear model: a bare linear form, or
// the model of a plus over any residual. Inside a segment the model is
// b + (s·j)>>frac, monotone in j while s·j cannot overflow, so a run of
// rows bounds its predictions by its two ends, and the residual leaf's
// extent adds its own bounds. The band those make decides the rows as
// for's segment walk does: clear of the range they are skipped, inside
// it they land whole. A straddling 64-row group of packed residual
// words runs the fused select kernel twice: once for the residuals
// every prediction of the group admits, which match for certain, and
// once for those some prediction admits. Only the rows between are
// evaluated. What the band cannot bound (a band or slope that wraps) or
// the kernels cannot take (a plain residual, a group off a word
// boundary) is evaluated row by row with decode's own wrapping
// arithmetic, so the rule is exact at the int64 extremes by
// construction.

// line is one segment of a linear model: row start+j predicts
// b + (s·j)>>frac.
type line struct {
	b, s  int64
	frac  uint
	start int
}

// at returns the prediction at row i, exactly as decode computes it.
func (ln line) at(i int) int64 {
	return scheme.LinearPredict(ln.b, ln.s, i-ln.start, ln.frac)
}

// monotone reports whether s·j cannot overflow in a segment of n rows,
// which makes its predictions monotone in j.
func (ln line) monotone(n int) bool {
	m := int64(maxInt64) / max(int64(n-1), 1)
	return -m <= ln.s && ln.s <= m
}

// band bounds the values of a run of rows: a prediction in [pmin, pmax]
// plus a residual in [rmin, rmax].
type band struct{ pmin, pmax, rmin, rmax int64 }

// bandOf bounds rows [a, e) of a monotone segment whose rows add l's
// values: the predictions by the two ends, the residuals by l's extent
// (a nil l adds [0, 0]). It returns the band, the least and greatest
// value it admits, and false when any of them wraps.
func (ln line) bandOf(l leaf, a, e int) (bd band, vmin, vmax int64, ok bool) {
	t0, t1 := (ln.s*int64(a-ln.start))>>ln.frac, (ln.s*int64(e-1-ln.start))>>ln.frac
	if t0 > t1 {
		t0, t1 = t1, t0
	}
	if l != nil {
		bd.rmin, bd.rmax = l.extent(a, e-a)
	}
	var ok0, ok1, ok2, ok3 bool
	bd.pmin, ok0 = addOK(ln.b, t0)
	bd.pmax, ok1 = addOK(ln.b, t1)
	vmin, ok2 = addOK(bd.pmin, bd.rmin)
	vmax, ok3 = addOK(bd.pmax, bd.rmax)
	return bd, vmin, vmax, ok0 && ok1 && ok2 && ok3
}

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

// groupEnd returns where the 64-row group holding row a ends, or end if
// that comes first.
func groupEnd(a, end int) int {
	return min((a|(bitpack.BlockLen-1))+1, end)
}

// lines is the walk for a linear model whose rows add residual's values
// (a nil residual adds nothing): a monotone segment is decided by its
// band, or group by group, and any other is evaluated row by row.
func (p *pushdown) lines(model, residual *core.Form, lo, hi, add int64) error {
	bases, err := core.ChildScratch(model, "bases", p.s)
	if err != nil {
		return err
	}
	defer p.s.PutI64(bases)
	slopes, err := core.ChildScratch(model, "slopes", p.s)
	if err != nil {
		return err
	}
	defer p.s.PutI64(slopes)
	var l leaf
	if residual != nil {
		if err := check(residual); err != nil {
			return err
		}
		if l, err = p.leafOf(residual); err != nil {
			return err
		}
		defer p.close(p.s)
	}
	segLen, frac, n := int(model.Params["seglen"]), uint(model.Params["frac"]), model.N
	for seg, b := range bases {
		ln := line{b: b, s: slopes[seg], frac: frac, start: seg * segLen}
		end := ln.start + min(segLen, n-ln.start)
		if ln.monotone(end - ln.start) {
			if err := p.lineSpan(l, ln, ln.start, end, lo, hi, add); err != nil {
				return err
			}
			continue
		}
		for a := ln.start; a < end; a = groupEnd(a, end) {
			if err := p.lineRows(l, ln, a, groupEnd(a, end), lo, hi, add); err != nil {
				return err
			}
		}
	}
	return nil
}

// lineSpan applies the verb to rows [a, e) of the monotone segment ln,
// whose rows add l's values. A band clear of [lo, hi] skips the rows
// and one inside it lands them whole; otherwise a span longer than a
// group splits into its 64-row groups, and a straddling group is
// answered from its packed residual words or row by row.
func (p *pushdown) lineSpan(l leaf, ln line, a, e int, lo, hi, add int64) error {
	bd, vmin, vmax, ok := ln.bandOf(l, a, e)
	switch {
	case ok && (vmax < lo || vmin > hi):
		return nil
	case ok && lo <= vmin && vmax <= hi:
		return p.lineWhole(l, ln, a, e, add)
	case e-a > bitpack.BlockLen:
		for g := a; g < e; g = groupEnd(g, e) {
			if err := p.lineSpan(l, ln, g, groupEnd(g, e), lo, hi, add); err != nil {
				return err
			}
		}
		return nil
	}
	if k, isPacked := l.(*packed); ok && isPacked {
		if done, err := p.lineWindows(k, ln, a, e, bd, lo, hi, add); done || err != nil {
			return err
		}
	}
	return p.lineRows(l, ln, a, e, lo, hi, add)
}

// lineWhole lands rows [a, e) whole; under SumVerb they add up to their
// predictions plus l's sum.
func (p *pushdown) lineWhole(l leaf, ln line, a, e int, add int64) error {
	var sum int64
	if p.verb == SumVerb {
		for i := a; i < e; i++ {
			sum += ln.at(i)
		}
		if l != nil {
			rs, err := l.sum(a, e-a)
			if err != nil {
				return err
			}
			sum += rs
		}
		sum += add * int64(e-a)
	}
	p.whole(a, e-a, sum)
	return nil
}

// lineWindows answers the straddling rows [a, e) from the packed
// residual words when they are one word-aligned group of a mini-block,
// and reports whether they were. Residuals in [lo−pmin, hi−pmax] match
// under every prediction in the band, those outside [lo−pmax, hi−pmin]
// under none; the fused select kernel finds both sets, and only the
// rows between are evaluated.
func (p *pushdown) lineWindows(k *packed, ln line, a, e int, bd band, lo, hi, add int64) (bool, error) {
	words, w, first := k.miniBlock(a / k.block)
	rel := a - first
	if e-a != bitpack.BlockLen || rel%bitpack.BlockLen != 0 || rel+bitpack.BlockLen > k.block {
		return false, nil
	}
	sureLo, ok0 := subOK(lo, bd.pmin)
	sureHi, ok1 := subOK(hi, bd.pmax)
	mayLo, ok2 := subOK(lo, bd.pmax)
	mayHi, ok3 := subOK(hi, bd.pmin)
	if !(ok0 && ok1 && ok2 && ok3) {
		return false, nil
	}
	sure, err := k.groupMask(words, w, rel, max(sureLo, bd.rmin), min(sureHi, bd.rmax))
	if err != nil {
		return false, err
	}
	may, err := k.groupMask(words, w, rel, max(mayLo, bd.rmin), min(mayHi, bd.rmax))
	if err != nil {
		return false, err
	}
	for m := may &^ sure; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		r := bitpack.ValueAt(words, rel+j, w)
		v := int64(r)
		if k.zz {
			v = bitpack.Unzigzag(r)
		}
		if v += ln.at(a + j); v >= lo && v <= hi {
			sure |= 1 << uint(j)
		}
	}
	return true, p.lineMatches(k, ln, a, sure, add)
}

// lineRows applies the verb to rows [a, e), at most a group, each
// evaluated as decode evaluates it: its prediction plus l's value,
// wrapping.
func (p *pushdown) lineRows(l leaf, ln line, a, e int, lo, hi, add int64) error {
	var m uint64
	for i := a; i < e; i++ {
		v := ln.at(i)
		if l != nil {
			v += l.at(i)
		}
		if v >= lo && v <= hi {
			m |= 1 << uint(i-a)
		}
	}
	return p.lineMatches(l, ln, a, m, add)
}

// lineMatches applies the verb to rows a+j for the set bits j of m, all
// of which match; a sum adds their predictions and l's masked sum.
func (p *pushdown) lineMatches(l leaf, ln line, a int, m uint64, add int64) error {
	c := int64(bits.OnesCount64(m))
	p.count += c
	switch p.verb {
	case selectVerb:
		p.dst.OrWord(p.base+a, m)
	case SumVerb:
		p.sum += add * c
		for r := m; r != 0; r &= r - 1 {
			p.sum += ln.at(a + bits.TrailingZeros64(r))
		}
		if l != nil {
			rs, err := l.sumMask(a, m)
			p.sum += rs
			return err
		}
	}
	return nil
}
