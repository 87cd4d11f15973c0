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
// inside it lands whole, and the rows of every other segment are made
// and compared by one fused kernel call (the leaf's prefixRange, over
// bitpack.PrefixRange), from the value before the segment. A form
// without a frame is one segment whose extent is all of int64, so it is
// made and compared unless the range holds every int64, as a sum's
// does. The matches go into one mask word a 64-row group, which select
// ORs in, keep uses to clear the failing rows of its selection in place
// (a segment the selection holds no row of is not read), and a sum adds
// up segment by segment (bitpack.PrefixMaskedSum), which is also the
// whole of a selection sum: a segment the selection holds no row of is
// not read, and a group it holds no row of is passed over by its sum
// kernel. The kernels wrap as decode does, so the rule is exact at the
// int64 extremes by construction.

// segs is a delta form's segments as the rule reads them: n rows
// each and, for a framed form, its frame column — per segment the
// first value, the minimum and the maximum, offsets from base — read
// in place, one value at a time. A form without a frame is one
// segment of N rows whose extent is all of int64.
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

// extent returns the recorded [min, max] of segment s, and all of
// int64 without a frame.
func (sg *segs) extent(s int) (lo, hi int64) {
	if sg.frame == nil {
		return minInt64, maxInt64
	}
	return sg.base + sg.frame.at(3*s+1), sg.base + sg.frame.at(3*s+2)
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
// puts clear of the range or inside it is decided whole, and the rows
// of the others are made and compared by one prefixRange call each,
// from the value before the segment. The matches go into one word a
// group of a mask array, which the verb then takes whole.
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
	for s := 0; s*sg.n < f.N; s++ {
		a, b := s*sg.n, min(f.N, (s+1)*sg.n)
		m := masks[a/bitpack.BlockLen : groupsOf(b)]
		switch vmin, vmax := sg.extent(s); {
		case vmax < lo || vmin > hi, p.verb == keepVerb && p.selected(a, b) == 0:
			clear(m)
		case lo <= vmin && vmax <= hi:
			for g := range m {
				m[g] = bitpack.Mask(uint(min(bitpack.BlockLen, b-a-g*bitpack.BlockLen)))
			}
		default:
			if _, err := l.prefixRange(a, b-a, sg.before(s, l), lo, hi, m); err != nil {
				return err
			}
		}
	}
	var count int64
	for g, m := range masks {
		r := g * bitpack.BlockLen
		count += int64(bits.OnesCount64(m))
		switch p.verb {
		case selectVerb:
			p.dst.OrWord(p.base+r, m)
		case keepVerb:
			p.dst.ClearWord(p.base+r, ^m&bitpack.Mask(uint(min(bitpack.BlockLen, f.N-r))))
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
