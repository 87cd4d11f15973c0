package query

import (
	"fmt"

	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/vec"
)

// PointLookup returns element row of the column represented by f
// without decoding the rows around it where the form has random access:
// the one-position gather.
func PointLookup(f *core.Form, row int64) (int64, error) {
	if row < 0 || row >= int64(f.N) {
		return 0, fmt.Errorf("query: row %d out of range [0, %d)", row, f.N)
	}
	s := core.GetScratch()
	defer s.Release()
	p := pushdownPool.Get().(*pushdown)
	*p = pushdown{s: s}
	pos, out := [1]int64{row}, [1]int64{}
	err := p.gather(f, pos[:], out[:])
	*p = pushdown{}
	pushdownPool.Put(p)
	return out[0], err
}

// gather writes f's values at the given row positions — ascending, each
// inside [0, f.N) — into out, parallel to positions. Like push it is a
// rewrite over the decomposed form, of positions instead of ranges:
// models are indexed by segment (a line evaluated at the position's
// offset in it), runs are walked to the position (the
// lookup RPE gets for free, recovered for RLE by integrating its
// lengths — Algorithm 1's first operation only, the paper's
// partial-decompression reading), a sum of two columns gathers both, a
// dict gathers its codes, a patch its base with the exceptions laid
// over it, a delta form adds its deltas' sums up to each position to
// its first value, and packed words are unpacked one value at a time.
// What has no random access — the byte-stream codecs — is decoded
// once: the leaf fallback again.
func (p *pushdown) gather(f *core.Form, positions, out []int64) error {
	if len(positions) == 0 {
		return nil
	}
	if err := check(f); err != nil {
		return err
	}
	switch f.Scheme {
	case scheme.ConstName:
		vec.ConstantInto(out, f.Params["value"])
		return nil

	case scheme.RLEName, scheme.RPEName:
		bounds, values, err := p.runBoundariesScratch(f)
		if err != nil {
			return err
		}
		run := 0
		for i, pos := range positions {
			for bounds[run] <= pos {
				run++
			}
			out[i] = values[run]
		}
		p.s.PutI64(bounds)
		p.s.PutI64(values)
		return nil

	case scheme.StepName, scheme.FORName:
		refs, err := core.ChildScratch(f, "refs", p.s)
		if err != nil {
			return err
		}
		segLen := f.Params["seglen"]
		for i, pos := range positions {
			out[i] = refs[pos/segLen]
		}
		p.s.PutI64(refs)
		if f.Scheme == scheme.StepName {
			return nil
		}
		return p.gatherAdd(f.Children["offsets"], positions, out)

	case scheme.LinearName:
		bases, err := core.ChildScratch(f, "bases", p.s)
		if err != nil {
			return err
		}
		defer p.s.PutI64(bases)
		slopes, err := core.ChildScratch(f, "slopes", p.s)
		if err != nil {
			return err
		}
		defer p.s.PutI64(slopes)
		segLen, frac := f.Params["seglen"], uint(f.Params["frac"])
		for i, pos := range positions {
			seg := pos / segLen
			out[i] = scheme.LinearPredict(bases[seg], slopes[seg], int(pos-seg*segLen), frac)
		}
		return nil

	case scheme.PlusName:
		if err := p.gather(f.Children["model"], positions, out); err != nil {
			return err
		}
		return p.gatherAdd(f.Children["residual"], positions, out)

	case scheme.DictName:
		if err := p.gather(f.Children["codes"], positions, out); err != nil {
			return err
		}
		dict, err := core.ChildScratch(f, "dict", p.s)
		if err != nil {
			return err
		}
		defer p.s.PutI64(dict)
		for i, c := range out {
			if c < 0 || c >= int64(len(dict)) {
				return errCode(c)
			}
			out[i] = dict[c]
		}
		return nil

	case scheme.PatchName:
		if err := p.gather(f.Children["base"], positions, out); err != nil {
			return err
		}
		at, err := core.ChildScratch(f, "positions", p.s)
		if err != nil {
			return err
		}
		defer p.s.PutI64(at)
		values, err := core.ChildScratch(f, "values", p.s)
		if err != nil {
			return err
		}
		defer p.s.PutI64(values)
		e := 0
		for i, pos := range positions {
			for e < len(at) && at[e] < pos {
				e++
			}
			if e < len(at) && at[e] == pos {
				out[i] = values[e]
			}
		}
		return nil

	case scheme.DeltaName:
		return p.deltaGather(f, positions, out)
	}
	l, err := p.leafOf(f)
	if err != nil {
		return err
	}
	defer p.close(p.s)
	for i, pos := range positions {
		out[i] = l.at(int(pos))
	}
	return nil
}

// gatherAdd adds f's values at positions to out: the gather of the
// second column of a sum (for's offsets, plus's residual).
func (p *pushdown) gatherAdd(f *core.Form, positions, out []int64) error {
	vals := p.s.I64(len(positions))
	defer p.s.PutI64(vals)
	if err := p.gather(f, positions, vals); err != nil {
		return err
	}
	for i, v := range vals {
		out[i] += v
	}
	return nil
}
