package query

import (
	"fmt"
	"sync"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/sel"
	"lwcomp/internal/vec"
)

// This file is the pushdown: one recursive rewrite that turns a range
// predicate on a compressed form into range predicates on its
// constituents, parameterised by a verb — count the matching rows,
// select them into a bitmap, or sum them. Each scheme states once how
// [lo, hi] on the parent becomes a range on a child plus a way to
// combine the child's answer (push); the recursion ends in a leaf
// (leaf.go), packed words or materialised values, which is the only
// place the three verbs differ. A composition nobody wrote a kernel for
// is pushed down by construction, and count, select and sum cannot
// disagree about a scheme because they share its rule. A fourth verb,
// sum under a selection, has no range to move and so its own rule per
// scheme (the table's right-hand column), but the same pushdown, leaves
// and fallback. Select has a second mode, keep, which clears the bits
// of the rows that fail and reads only the rows a selection already
// holds: how a later conjunct runs (DESIGN.md §1.14).

// Verb is what a pushdown does with the rows whose value is in range.
type Verb uint8

const (
	CountVerb  Verb = iota // count them
	SumVerb                // count them and sum their values
	selectVerb             // set their bits in a selection (SelectRangeSel)
	keepVerb               // clear the bits of the rows that fail (KeepRangeSel)
	sumSelVerb             // no range: sum the rows a selection holds (SumSel)
)

// answer is what a pushdown accumulates.
type answer struct {
	// count and sum are CountVerb's and SumVerb's result, and sum is
	// sumSelVerb's; sums wrap mod 2^64 like plain int64 addition.
	count, sum int64
	// stats counts the leaf ranges the walk classified and the ones it
	// had to scan (SelectRangeFORWithStats reports it).
	stats SelectStats
	// materialised is set when some node had no rule and was decoded:
	// how the rewrite says a form was not pushable.
	materialised bool
}

// pushdown is the state of one verb running over one form.
type pushdown struct {
	verb Verb
	answer
	// dst holds row r of the form at bit base+r: selectVerb sets the
	// bits of matching rows, keepVerb clears those of the others, and
	// sumSelVerb reads which rows to sum.
	dst  *sel.Selection
	base int
	s    *core.Scratch
	leaves
	// frame holds the leaf over a delta form's frame column, open
	// beside the deltas leaf.
	frame leaves
}

var pushdownPool = sync.Pool{New: func() any { return new(pushdown) }}

// run pushes verb v with range [lo, hi] down f (sumSelVerb takes no
// range). The pushdown is pooled, so the steady state allocates
// nothing.
func run(v Verb, f *core.Form, lo, hi int64, dst *sel.Selection, base int, s *core.Scratch) (answer, error) {
	p := pushdownPool.Get().(*pushdown)
	*p = pushdown{verb: v, dst: dst, base: base, s: s}
	var err error
	if v == sumSelVerb {
		p.sum, err = p.sumSel(f)
	} else {
		err = p.push(f, lo, hi, 0)
	}
	a := p.answer
	*p = pushdown{}
	pushdownPool.Put(p)
	return a, err
}

// leafOf opens the leaf over f (see leaves.open), noting a decode.
func (p *pushdown) leafOf(f *core.Form) (leaf, error) {
	l, err := p.open(f, p.s)
	p.materialised = p.materialised || p.pl.borrowed
	return l, err
}

// SelectRange returns the row positions whose values fall in [lo, hi],
// evaluated on the compressed form (see push). The result is always
// exact. Internally the matches accumulate in a pooled bitmap
// selection vector (package sel); this function converts to an
// explicit row-position column at the boundary. Callers that can
// consume the bitmap directly should use SelectRangeSel.
func SelectRange(f *core.Form, lo, hi int64) ([]int64, error) {
	bm := sel.Get(f.N)
	defer bm.Release()
	if err := SelectRangeSel(f, lo, hi, bm, 0); err != nil {
		return nil, err
	}
	return bm.AppendRows(make([]int64, 0, bm.Count()), 0), nil
}

// SelectRangeSel ORs the row positions of f whose values fall in
// [lo, hi] into dst, each offset by base (row r of f sets bit base+r;
// bits dst already holds stay set). It is the zero-allocation core of
// SelectRange: runs arrive as word fills and packed words as fused
// 64-bit match masks.
func SelectRangeSel(f *core.Form, lo, hi int64, dst *sel.Selection, base int) error {
	s := core.GetScratch()
	defer s.Release()
	_, err := run(selectVerb, f, lo, hi, dst, base, s)
	return err
}

// KeepRangeSel clears the bit base+r of dst of each row r of f whose
// value falls outside [lo, hi], and touches no other bit: dst becomes
// its conjunction with the range. Where the form allows, only the rows
// dst holds are read — a packed word whose rows are all clear is passed
// over, a sparse one has just its rows' values read — and a range that
// moves onto a child as two pieces selects them into a pooled temporary
// that is ANDed in.
// Like SelectRangeSel it allocates nothing in the steady state.
func KeepRangeSel(f *core.Form, lo, hi int64, dst *sel.Selection, base int) error {
	s := core.GetScratch()
	defer s.Release()
	_, err := run(keepVerb, f, lo, hi, dst, base, s)
	return err
}

// CountRange returns |{i : lo ≤ col[i] ≤ hi}| on the compressed form,
// without materializing row ids — ranges the structure proves
// contribute their size in O(1) and packed payloads go through the
// fused count kernels, so the pushable forms allocate nothing.
func CountRange(f *core.Form, lo, hi int64) (int64, error) {
	count, _, err := Fold(f, lo, hi, CountVerb)
	return count, err
}

// SelectStats counts the leaf ranges (FOR segments) a selection
// classified and the ones whose offsets it had to scan; benchmarks
// report it to show pruning at work.
type SelectStats struct {
	Segments        int
	DecodedSegments int
}

// SelectRangeFORWithStats is SelectRange on a FOR form that also
// reports how many segments escaped scanning.
func SelectRangeFORWithStats(f *core.Form, lo, hi int64) ([]int64, SelectStats, error) {
	if f.Scheme != scheme.FORName {
		return nil, SelectStats{}, fmt.Errorf("query: SelectRangeFORWithStats on scheme %q", f.Scheme)
	}
	s := core.GetScratch()
	defer s.Release()
	bm := sel.Get(f.N)
	defer bm.Release()
	a, err := run(selectVerb, f, lo, hi, bm, 0, s)
	if err != nil {
		return nil, SelectStats{}, err
	}
	return bm.Rows(), a.stats, nil
}

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)

// push applies the verb to the rows of f whose value v satisfies
// lo ≤ v ≤ hi; under SumVerb a matching row contributes v + add (add is
// what the schemes above f contribute to each of its rows). The switch
// is the rewrite table: per scheme, the child range and the combinator.
// Its right-hand column is the fourth verb, the sum of the rows a
// selection holds (sumSel, sum.go): there is no range to move, and
// every child is summed under the parent's selection unchanged, since
// a constituent is position-aligned with its parent.
//
//	         range [lo, hi] (push)                  selection (sumSel)
//	const    decides for the whole column from      value·|sel|
//	         its one value
//	rle/rpe  test one value per run, expand         Σ value·|sel ∩ run|
//	         matches by the run bounds
//	step     a segment matches as a whole when      Σ ref·|sel ∩ segment|
//	         its reference is in range
//	for      v = ref + offset: per segment, the     step's sum plus the
//	         range moves by the reference onto      offsets' sum
//	         the offsets (window); segments the
//	         offsets' width proves inside or
//	         outside are not scanned
//	plus     v = model + residual: a const model    the model's sum plus
//	         moves the range once and recurses; a   the residual's, for
//	         step model is for's segment walk over  any model
//	         the residual
//	linear   (materialised)                         the line evaluated at
//	                                                the selected rows
//	dict     v = dict[code], dict sorted: value     dict[code] summed over
//	         bounds become code bounds, recurse     the selected rows
//	         into codes (count and select; a sum
//	         of dict[code] is not a sum of codes)
//	patch    run the verb on base, then correct it  the base's sum, then
//	         at the exception positions             values[i] − base at
//	                                                the selected exceptions
//	delta    v = first + a running sum of deltas:   the selected running
//	         per segment, the frame's [min, max]    sums, segment by
//	         skips it or lands it whole; the rest   segment, a group it
//	         make the running sums and compare      holds no row of passed
//	         them, one kernel call a segment        over by its sum
//	         (delta.go)                             (delta.go)
//	ns/vns   a leaf: the fused kernels scan the     a leaf: empty words
//	         packed words                           skipped, full ones
//	                                                summed in place, the
//	                                                selected values of
//	                                                others read or
//	                                                unpacked and added
//
// Anything else is materialised and scanned as a plain leaf: linear
// and poly models and plus over them (no workload ranges over a linear
// column, so no rule is kept for one; DESIGN.md §1.3), varint and elias
// (byte and bit streams without random access), a dict under a range
// sum, and any ns/vns layout the kernels cannot take. That fallback is
// leaves.open, and exists once; answer.materialised reports that it was
// taken.
func (p *pushdown) push(f *core.Form, lo, hi, add int64) error {
	if lo > hi {
		p.none(0, f.N)
		return nil
	}
	if f.N == 0 {
		return nil
	}
	if err := check(f); err != nil {
		return err
	}
	in := func(v int64) bool { return v >= lo && v <= hi }
	switch f.Scheme {
	case scheme.ConstName:
		if v := f.Params["value"]; in(v) {
			p.whole(0, f.N, (v+add)*int64(f.N))
		} else {
			p.none(0, f.N)
		}
		return nil

	case scheme.RLEName, scheme.RPEName:
		bounds, values, err := runBoundariesScratch(f, p.s)
		if err != nil {
			return err
		}
		var start int64
		for i, end := range bounds {
			if in(values[i]) {
				p.whole(int(start), int(end-start), (values[i]+add)*(end-start))
			} else {
				p.none(int(start), int(end-start))
			}
			start = end
		}
		p.s.PutI64(bounds)
		p.s.PutI64(values)
		return nil

	case scheme.StepName:
		return p.segments(f, nil, lo, hi, add)

	case scheme.FORName:
		return p.segments(f, f.Children["offsets"], lo, hi, add)

	case scheme.PlusName:
		model, residual := f.Children["model"], f.Children["residual"]
		if err := check(model); err != nil {
			return err
		}
		switch model.Scheme {
		case scheme.ConstName:
			m := model.Params["value"]
			w, n, _ := window(lo, hi, m, minInt64, maxInt64)
			return p.pieces(0, f.N, n, func() error {
				for _, r := range w[:n] {
					if err := p.push(residual, r[0], r[1], add+m); err != nil {
						return err
					}
				}
				return nil
			})
		case scheme.StepName:
			return p.segments(model, residual, lo, hi, add)
		}

	case scheme.DictName:
		if p.verb == SumVerb {
			break
		}
		dict, err := core.ChildScratch(f, "dict", p.s)
		if err != nil {
			return err
		}
		cLo := int64(vec.LowerBound(dict, lo))
		cHi := int64(vec.UpperBound(dict, hi)) - 1
		p.s.PutI64(dict)
		return p.push(f.Children["codes"], cLo, cHi, 0)

	case scheme.PatchName:
		return p.patch(f, lo, hi, add)

	case scheme.DeltaName:
		return p.deltas(f, lo, hi, add)
	}

	l, err := p.leafOf(f)
	if err != nil {
		return err
	}
	defer p.close(p.s)
	return p.leafRange(l, 0, f.N, lo, hi, 0, add)
}

// check runs f's scheme's own structural check on the node, so a form
// decode would refuse is refused by every verb with the same error
// instead of being walked.
func check(f *core.Form) error {
	s, ok := core.Lookup(f.Scheme)
	if !ok {
		return fmt.Errorf("%w: %q", core.ErrUnknownScheme, f.Scheme)
	}
	if v, ok := s.(core.Validator); ok {
		return v.ValidateForm(f)
	}
	return nil
}

// whole records that every row of [start, start+count) matches; sum is
// what they add up to. Keep leaves the rows as they are.
func (p *pushdown) whole(start, count int, sum int64) {
	p.count += int64(count)
	p.sum += sum
	if p.verb == selectVerb {
		p.dst.AddRun(p.base+start, count)
	}
}

// none records that no row of [start, start+count) matches: keep clears
// them, and every other verb has nothing to do.
func (p *pushdown) none(start, count int) {
	if p.verb == keepVerb {
		p.dst.ClearRun(p.base+start, count)
	}
}

// pieces runs eval, which applies the verb to each of the n pieces of a
// range over rows [start, start+count). Keep runs it as it is on one
// piece and clears the rows on none, but two pieces would each clear
// the other's matches: it selects them into a pooled temporary, whose
// complement it then clears.
func (p *pushdown) pieces(start, count, n int, eval func() error) error {
	switch {
	case p.verb != keepVerb || n == 1:
		return eval()
	case n == 0:
		p.none(start, count)
		return nil
	}
	tmp := sel.Get(count)
	defer tmp.Release()
	dst, base := p.dst, p.base
	p.verb, p.dst, p.base = selectVerb, tmp, -start
	err := eval()
	p.verb, p.dst, p.base = keepVerb, dst, base
	if err == nil {
		dst.AndAt(tmp, base+start)
	}
	return err
}

// segments is the walk for, step and plus(model=step) share: model is
// a step function (refs, one per seglen rows) and each row's value is
// its segment's reference plus its value in child — a nil child (a bare
// step model) adds nothing. The child is opened as a leaf once, and
// every segment hands its rows of it to leafRange with the range moved
// by the reference.
func (p *pushdown) segments(model, child *core.Form, lo, hi, add int64) error {
	refs, err := core.ChildScratch(model, "refs", p.s)
	if err != nil {
		return err
	}
	defer p.s.PutI64(refs)
	var l leaf
	if child != nil {
		if l, err = p.leafOf(child); err != nil {
			return err
		}
		defer p.close(p.s)
	}
	segLen, n := int(model.Params["seglen"]), model.N
	for seg, ref := range refs {
		start := seg * segLen
		if err := p.leafRange(l, start, min(segLen, n-start), lo, hi, ref, add); err != nil {
			return err
		}
	}
	return nil
}

// leafRange applies the verb to rows [start, start+count) of l, whose
// values are ref + l's: outside the range nothing happens, inside it
// the rows match as a whole without being read (under SumVerb, summed
// without being compared), and a straddling range is scanned by the
// leaf over the window's one or two child ranges.
func (p *pushdown) leafRange(l leaf, start, count int, lo, hi, ref, add int64) error {
	var lmin, lmax int64
	if l != nil {
		lmin, lmax = l.extent(start, count)
	}
	w, n, all := window(lo, hi, ref, lmin, lmax)
	p.stats.Segments++
	if all {
		var sum int64
		if p.verb == SumVerb && l != nil {
			var err error
			if sum, err = l.sum(start, count); err != nil {
				return err
			}
		}
		p.whole(start, count, sum+(ref+add)*int64(count))
		return nil
	}
	if n > 0 {
		p.stats.DecodedSegments++
	}
	return p.pieces(start, count, n, func() error {
		for _, r := range w[:n] {
			if err := l.apply(p, start, count, r[0], r[1], ref+add); err != nil {
				return err
			}
		}
		return nil
	})
}

// window moves the range lo ≤ v ≤ hi on v = ref + o onto o, for o known
// to lie in [omin, omax]: it returns the n ≤ 2 disjoint ranges of o
// inside [omin, omax] that match, ascending, and all when that is the
// whole of [omin, omax] (then w[0] is it). The arithmetic is unsigned
// and wrapping, exactly as decode's ref + o wraps, so the answer is
// exact at the int64 extremes: a range that wraps in o's domain comes
// back as two pieces, nothing saturates, and nothing overflows.
func window(lo, hi, ref, omin, omax int64) (w [2][2]int64, n int, all bool) {
	// Shift o to o' = o − omin ∈ [0, width]; the matches are the
	// circular range of span+1 values starting at o' = first.
	width := uint64(omax) - uint64(omin)
	span := uint64(hi) - uint64(lo)
	first := uint64(lo) - uint64(ref) - uint64(omin)
	if span == ^uint64(0) {
		first = 0 // every int64 matches, wherever the range starts
	}
	piece := func(a, b uint64) {
		w[n] = [2]int64{int64(uint64(omin) + a), int64(uint64(omin) + b)}
		n++
	}
	if zeroAt := -first; zeroAt <= span {
		// o' = 0 is the zeroAt'th value of the range, which runs on to
		// o' = end and, if it wrapped to get to 0, started at first.
		end := span - zeroAt
		if end >= width {
			piece(0, width)
			return w, n, true
		}
		piece(0, end)
		if first != 0 && first <= width {
			piece(first, width)
		}
	} else if first <= width {
		// No wrap: first+span < 2^64 because zeroAt > span.
		piece(first, min(first+span, width))
	}
	return w, n, false
}

// patch runs the verb on the base and corrects the answer at the
// exception positions, where the column holds values[i] and not what
// the base says: count and sum take the base's value back out and put
// the exception's in, each under the range test; select restores the
// bit to what the exception's value says — unless it was set before
// this call, since dst may hold another leaf's matches — and keep sets
// it back when it was set before this call and the exception's value
// matches, and clears it otherwise.
func (p *pushdown) patch(f *core.Form, lo, hi, add int64) error {
	base := f.Children["base"]
	positions, err := core.ChildScratch(f, "positions", p.s)
	if err != nil {
		return err
	}
	defer p.s.PutI64(positions)
	values, err := core.ChildScratch(f, "values", p.s)
	if err != nil {
		return err
	}
	defer p.s.PutI64(values)
	in := func(v int64) bool { return v >= lo && v <= hi }
	// was holds, per exception, the bit before the base ran (select) or
	// the base's value (count, sum).
	was := p.s.I64(len(positions))
	defer p.s.PutI64(was)
	selects := p.verb == selectVerb || p.verb == keepVerb
	if selects {
		for i, pos := range positions {
			was[i] = 0
			if p.dst.Contains(p.base + int(pos)) {
				was[i] = 1
			}
		}
	}
	if err := p.push(base, lo, hi, add); err != nil {
		return err
	}
	if selects {
		for i, pos := range positions {
			switch {
			case was[i] == 1 && p.verb == selectVerb:
			case in(values[i]) && (was[i] == 1 || p.verb == selectVerb):
				p.dst.Add(p.base + int(pos))
			default:
				p.dst.Remove(p.base + int(pos))
			}
		}
		return nil
	}
	if err := p.gather(base, positions, was); err != nil {
		return err
	}
	for i, v := range values {
		if b := was[i]; in(b) {
			p.count--
			p.sum -= b + add
		}
		if in(v) {
			p.count++
			p.sum += v + add
		}
	}
	return nil
}

// runBoundariesScratch returns (exclusive run end positions, run
// values) for RLE and RPE forms, both borrowed from s; the caller
// returns them with PutI64.
func runBoundariesScratch(f *core.Form, s *core.Scratch) ([]int64, []int64, error) {
	values, err := core.ChildScratch(f, "values", s)
	if err != nil {
		return nil, nil, err
	}
	var bounds []int64
	if f.Scheme == scheme.RLEName {
		bounds, err = core.ChildScratch(f, "lengths", s)
		if err == nil {
			_, err = vec.PrefixSumInclusiveInto(bounds, bounds)
		}
	} else {
		bounds, err = core.ChildScratch(f, "positions", s)
	}
	if err == nil && len(bounds) != len(values) {
		// The scalar decode path rejects this via checkRLE/checkRPE;
		// without the check here a short values child would panic in
		// the run walks instead of erroring.
		err = fmt.Errorf("%w: %s has %d runs but %d values",
			core.ErrCorruptForm, f.Scheme, len(bounds), len(values))
	}
	if err == nil {
		err = checkRunBounds(f, bounds)
	}
	if err != nil {
		if bounds != nil {
			s.PutI64(bounds)
		}
		s.PutI64(values)
		return nil, nil, err
	}
	return bounds, values, nil
}

// checkRunBounds validates exclusive run end positions: non-negative,
// non-decreasing, covering exactly [0, f.N). Without it, a corrupt
// form whose runs overshoot N would panic inside Selection.AddRun
// instead of erroring (decode validates the same invariant in
// vec.ExpandByBoundariesInto / RunExpandInto).
func checkRunBounds(f *core.Form, bounds []int64) error {
	var prev int64
	for _, end := range bounds {
		if end < prev {
			return fmt.Errorf("%w: %s run boundaries decrease (%d after %d)",
				core.ErrCorruptForm, f.Scheme, end, prev)
		}
		prev = end
	}
	if prev != int64(f.N) {
		return fmt.Errorf("%w: %s runs cover %d rows, form declares %d",
			core.ErrCorruptForm, f.Scheme, prev, f.N)
	}
	return nil
}

// SelectPlain evaluates lo ≤ v ≤ hi on decoded values into dst at
// base, 64 values at a time: select ORs each chunk's match mask in, and
// keep clears the bits of the values outside the range. One unsigned
// compare tests both bounds, branch-free. It is the plain leaf's verb
// and the table's over a window of a decoded block.
func SelectPlain(vals []int64, lo, hi int64, dst *sel.Selection, base int, keep bool) {
	if lo > hi {
		if keep {
			dst.ClearRun(base, len(vals))
		}
		return
	}
	span := uint64(hi) - uint64(lo)
	for chunk := 0; chunk < len(vals); chunk += 64 {
		var m uint64
		for j, v := range vals[chunk:min(chunk+64, len(vals))] {
			var bit uint64
			if uint64(v)-uint64(lo) <= span {
				bit = 1
			}
			m |= bit << uint(j)
		}
		if keep {
			dst.ClearWord(base+chunk, ^m&bitpack.Mask(uint(min(64, len(vals)-chunk))))
		} else {
			dst.OrWord(base+chunk, m)
		}
	}
}
