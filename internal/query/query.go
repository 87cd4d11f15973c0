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
// models are indexed by segment, runs are walked to the position (the
// lookup RPE gets for free, recovered for RLE by integrating its
// lengths — Algorithm 1's first operation only, the paper's
// partial-decompression reading), a sum of two columns gathers both, a
// dict gathers its codes, a patch its base with the exceptions laid
// over it, and packed words are unpacked one value at a time. What has
// no random access — delta, the byte-stream codecs — is decoded once:
// the leaf fallback again.
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
		bounds, values, err := runBoundariesScratch(f, p.s)
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
		defer p.s.PutI64(refs)
		var l leaf
		if f.Scheme == scheme.FORName {
			if l, err = p.leafOf(f.Children["offsets"]); err != nil {
				return err
			}
			defer p.close(p.s)
		}
		segLen := f.Params["seglen"]
		for i, pos := range positions {
			out[i] = refs[pos/segLen]
			if l != nil {
				out[i] += l.at(int(pos))
			}
		}
		return nil

	case scheme.PlusName:
		if err := p.gather(f.Children["model"], positions, out); err != nil {
			return err
		}
		residual := p.s.I64(len(positions))
		defer p.s.PutI64(residual)
		if err := p.gather(f.Children["residual"], positions, residual); err != nil {
			return err
		}
		for i, r := range residual {
			out[i] += r
		}
		return nil

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
				return fmt.Errorf("%w: dict code %d out of range", core.ErrCorruptForm, c)
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
