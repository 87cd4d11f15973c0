package table

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync/atomic"

	"lwcomp/internal/blocked"
	"lwcomp/internal/sel"
)

// Expr is a predicate over a table's columns: a tree of Range/Eq/In
// leaves under And/Or/Not combinators, built once and reusable across
// scans and tables. Expressions are immutable after construction and
// safe for concurrent use; Table.Scan evaluates them per block on the
// compressed columns. The interface is sealed — implementations live
// in this package and arrive through the constructors.
type Expr interface {
	// String renders the predicate in the mini-language Parse accepts.
	String() string
	// AppendString appends String's rendering to buf and returns the
	// extended buffer; String is this over a new buffer.
	AppendString(buf []byte) []byte

	// check validates the expression against a table (columns exist,
	// no nil children) and binds every leaf to its column's position in
	// it (colSlot), so the per-chunk calls of the plan built next look
	// no name up. It must not allocate on success: Scan calls it on the
	// steady-state path.
	check(t *Table) error
	// prune classifies chunk ck of the scan's cut (see chunks; on an
	// aligned table a chunk is a block) with stats only, never fetching
	// a payload.
	prune(ch *chunks, ck int) blocked.RangeClass
	// evalBlock evaluates the predicate on chunk ck alone into dst, a
	// cleared chunk-local selection (row r of the chunk is bit r). The
	// driver only calls it when prune returned RangePart.
	evalBlock(ch *chunks, ck int, dst *sel.Selection) error
	// estimate guesses the fraction of chunk ck's rows that match,
	// from stats alone; the conjunction planner evaluates the leaf
	// with the smallest estimate first.
	estimate(ch *chunks, ck int) float64
}

// Range returns the predicate lo ≤ col ≤ hi (both bounds inclusive).
// Use math.MinInt64 / math.MaxInt64 for half-open comparisons. An
// inverted range (lo > hi) matches nothing.
func Range(col string, lo, hi int64) Expr {
	return &rangeNode{col: col, lo: lo, hi: hi}
}

// Eq returns the predicate col == v.
func Eq(col string, v int64) Expr {
	return &rangeNode{col: col, lo: v, hi: v}
}

// In returns the predicate col ∈ vals. The values are copied, sorted
// and deduplicated; runs of consecutive integers evaluate as single
// range probes. In with no values matches nothing.
func In(col string, vals ...int64) Expr {
	vs := slices.Clone(vals)
	slices.Sort(vs)
	vs = slices.Compact(vs)
	return &inNode{col: col, vals: vs}
}

// And returns the conjunction of kids. And() with no operands matches
// every row. Direct Range/Eq operands over one column intersect into a
// single leaf — "qty >= a and qty <= b" is Range(qty, a, b): one block
// fetch and one kernel, not two and a bitmap intersection — and an
// empty intersection is the never-matching inverted range. A
// conjunction left with one leaf is that leaf.
func And(kids ...Expr) Expr {
	out := make([]Expr, 0, len(kids))
next:
	for _, k := range kids {
		if r, ok := k.(*rangeNode); ok {
			for i, o := range out {
				if p, ok := o.(*rangeNode); ok && p.col == r.col {
					out[i] = &rangeNode{col: r.col, lo: max(p.lo, r.lo), hi: min(p.hi, r.hi)}
					continue next
				}
			}
		}
		out = append(out, k)
	}
	if len(out) == 1 {
		if r, ok := out[0].(*rangeNode); ok {
			return r
		}
	}
	return &andNode{kids: out}
}

// Or returns the disjunction of kids. Or() with no operands matches
// nothing.
func Or(kids ...Expr) Expr {
	return &orNode{kids: slices.Clone(kids)}
}

// Not returns the negation of kid.
func Not(kid Expr) Expr {
	return &notNode{kid: kid}
}

// colSlot is a leaf's column position, bound by check to the table
// the leaf was last checked against: the table's id in the high half
// and the position in the low. A leaf shared by scans of two tables
// stays correct — a binding to the other table is not read, and the
// name is looked up instead — and the atomic keeps an expression safe
// for concurrent use.
type colSlot struct{ bound atomic.Uint64 }

// bind resolves name in t and records its position.
func (s *colSlot) bind(t *Table, name string) error {
	ci, err := t.colIndex(name)
	if err == nil {
		s.bound.Store(uint64(t.id)<<32 | uint64(ci))
	}
	return err
}

// pos returns name's position in t: the bound one when it was bound to
// t, and a lookup otherwise.
func (s *colSlot) pos(t *Table, name string) int {
	if b := s.bound.Load(); uint32(b>>32) == t.id {
		return int(uint32(b))
	}
	return t.index[name]
}

// rangeNode is the Range/Eq leaf: lo ≤ col ≤ hi.
type rangeNode struct {
	col    string
	lo, hi int64
	at     colSlot
}

func (n *rangeNode) String() string { return string(n.AppendString(nil)) }

func (n *rangeNode) AppendString(buf []byte) []byte {
	buf = append(buf, n.col...)
	switch {
	case n.lo > n.hi:
		return append(buf, " in ()"...) // the canonical never-matches form
	case n.lo == n.hi:
		return strconv.AppendInt(append(buf, " = "...), n.lo, 10)
	case n.lo == math.MinInt64:
		return strconv.AppendInt(append(buf, " <= "...), n.hi, 10)
	case n.hi == math.MaxInt64:
		return strconv.AppendInt(append(buf, " >= "...), n.lo, 10)
	default:
		buf = strconv.AppendInt(append(buf, " >= "...), n.lo, 10)
		buf = append(append(append(buf, " and "...), n.col...), " <= "...)
		return strconv.AppendInt(buf, n.hi, 10)
	}
}

func (n *rangeNode) check(t *Table) error { return n.at.bind(t, n.col) }

// pos returns the leaf's column position in ch's table.
func (n *rangeNode) pos(ch *chunks) int { return n.at.pos(ch.t, n.col) }

func (n *rangeNode) prune(ch *chunks, ck int) blocked.RangeClass {
	return ch.stats(n.pos(ch), ck).ClassifyRange(n.lo, n.hi)
}

func (n *rangeNode) evalBlock(ch *chunks, ck int, dst *sel.Selection) error {
	return ch.selectChunk(n.pos(ch), ck, n.lo, n.hi, dst, false)
}

func (n *rangeNode) estimate(ch *chunks, ck int) float64 {
	b := ch.stats(n.pos(ch), ck)
	if !b.HasStats || n.lo > n.hi {
		return 1
	}
	lo, hi := n.lo, n.hi
	if lo < b.Min {
		lo = b.Min
	}
	if hi > b.Max {
		hi = b.Max
	}
	if lo > hi {
		return 0
	}
	// Assume values spread uniformly over the block's [min, max]; the
	// float conversions keep full-int64 ranges from overflowing.
	return (float64(hi) - float64(lo) + 1) / (float64(b.Max) - float64(b.Min) + 1)
}

// inNode is the In leaf: col ∈ vals, vals sorted and deduplicated.
type inNode struct {
	col  string
	vals []int64
	at   colSlot
}

func (n *inNode) String() string { return string(n.AppendString(nil)) }

func (n *inNode) AppendString(buf []byte) []byte {
	buf = append(append(buf, n.col...), " in ("...)
	for i, v := range n.vals {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = strconv.AppendInt(buf, v, 10)
	}
	return append(buf, ')')
}

func (n *inNode) check(t *Table) error { return n.at.bind(t, n.col) }

// pos returns the leaf's column position in ch's table.
func (n *inNode) pos(ch *chunks) int { return n.at.pos(ch.t, n.col) }

// run returns the maximal run of consecutive values starting at
// vals[i] as an inclusive [lo, hi] range, and the index after it —
// In(3,4,5,9) probes [3,5] and [9,9]. No closure, so the serial scan
// paths walk runs without touching the heap.
func (n *inNode) run(i int) (lo, hi int64, next int) {
	next = i + 1
	for next < len(n.vals) && n.vals[next] == n.vals[next-1]+1 {
		next++
	}
	return n.vals[i], n.vals[next-1], next
}

func (n *inNode) prune(ch *chunks, ck int) blocked.RangeClass {
	if len(n.vals) == 0 {
		return blocked.RangeMiss
	}
	b := ch.stats(n.pos(ch), ck)
	if !b.HasStats {
		return blocked.RangePart
	}
	// First value ≥ min; the set overlaps the block iff it is ≤ max.
	i, _ := slices.BinarySearch(n.vals, b.Min)
	if i == len(n.vals) || n.vals[i] > b.Max {
		return blocked.RangeMiss
	}
	if b.Min == b.Max {
		// Constant block: overlap means the constant is in the set.
		return blocked.RangeAll
	}
	return blocked.RangePart
}

func (n *inNode) evalBlock(ch *chunks, ck int, dst *sel.Selection) error {
	ci := n.pos(ch)
	for i := 0; i < len(n.vals); {
		var lo, hi int64
		lo, hi, i = n.run(i)
		if err := ch.selectChunk(ci, ck, lo, hi, dst, false); err != nil {
			return err
		}
	}
	return nil
}

func (n *inNode) estimate(ch *chunks, ck int) float64 {
	b := ch.stats(n.pos(ch), ck)
	if !b.HasStats {
		return 1
	}
	width := float64(b.Max) - float64(b.Min) + 1
	if est := float64(len(n.vals)) / width; est < 1 {
		return est
	}
	return 1
}

// andNode is the conjunction combinator.
type andNode struct {
	kids []Expr
}

func (n *andNode) String() string { return string(n.AppendString(nil)) }

func (n *andNode) AppendString(buf []byte) []byte { return appendKids(buf, n.kids, " and ", "true") }

func (n *andNode) check(t *Table) error { return checkKids(t, n.kids) }

func (n *andNode) prune(ch *chunks, ck int) blocked.RangeClass {
	out := blocked.RangeAll
	for _, k := range n.kids {
		switch k.prune(ch, ck) {
		case blocked.RangeMiss:
			return blocked.RangeMiss
		case blocked.RangePart:
			out = blocked.RangePart
		}
	}
	return out
}

// evalBlock evaluates the conjunction on one undecided block: the
// undecided child with the smallest selectivity estimate runs first,
// and every later child is skipped once the intersection is empty —
// on a lazy container that means later columns' payloads are never
// fetched. Children the stats already prove contribute nothing to the
// intersection and are skipped outright. A later Range/Eq child keeps:
// it clears the rows it fails in dst itself, reading only the rows dst
// still holds (DESIGN.md §1.14). Any other child selects into a pooled
// temporary that is ANDed in.
func (n *andNode) evalBlock(ch *chunks, ck int, dst *sel.Selection) error {
	best, refuted := n.first(ch, ck)
	if refuted {
		// Defensive: the driver never sends a refuted chunk here.
		return nil
	}
	if best < 0 {
		// All children proved: the whole block matches.
		dst.AddRun(0, dst.Len())
		return nil
	}
	if err := n.kids[best].evalBlock(ch, ck, dst); err != nil {
		return err
	}
	for i, k := range n.kids {
		if i == best || k.prune(ch, ck) == blocked.RangeAll {
			continue
		}
		if dst.Count() == 0 {
			return nil
		}
		if r, ok := k.(*rangeNode); ok {
			if err := ch.selectChunk(r.pos(ch), ck, r.lo, r.hi, dst, true); err != nil {
				return err
			}
			continue
		}
		tmp := sel.Get(dst.Len())
		if err := k.evalBlock(ch, ck, tmp); err != nil {
			tmp.Release()
			return err
		}
		err := dst.And(tmp)
		tmp.Release()
		if err != nil {
			return err
		}
	}
	return nil
}

func (n *andNode) estimate(ch *chunks, ck int) float64 {
	est := 1.0
	for _, k := range n.kids {
		est *= k.estimate(ch, ck)
	}
	return est
}

// first picks the child evalBlock runs first on chunk ck: the
// undecided one with the smallest selectivity estimate, or -1 when the
// stats prove them all. refuted reports a child the stats refute.
func (n *andNode) first(ch *chunks, ck int) (best int, refuted bool) {
	best, bestEst := -1, math.Inf(1)
	for i, k := range n.kids {
		switch k.prune(ch, ck) {
		case blocked.RangeMiss:
			return -1, true
		case blocked.RangeAll:
			continue
		}
		if est := k.estimate(ch, ck); est < bestEst {
			best, bestEst = i, est
		}
	}
	return best, false
}

// orNode is the disjunction combinator.
type orNode struct {
	kids []Expr
}

func (n *orNode) String() string { return string(n.AppendString(nil)) }

func (n *orNode) AppendString(buf []byte) []byte { return appendKids(buf, n.kids, " or ", "false") }

func (n *orNode) check(t *Table) error { return checkKids(t, n.kids) }

func (n *orNode) prune(ch *chunks, ck int) blocked.RangeClass {
	out := blocked.RangeMiss
	for _, k := range n.kids {
		switch k.prune(ch, ck) {
		case blocked.RangeAll:
			return blocked.RangeAll
		case blocked.RangePart:
			out = blocked.RangePart
		}
	}
	return out
}

func (n *orNode) evalBlock(ch *chunks, ck int, dst *sel.Selection) error {
	for _, k := range n.kids {
		switch k.prune(ch, ck) {
		case blocked.RangeMiss:
			continue
		case blocked.RangeAll:
			// Defensive: the planner never sends a proved block here.
			dst.AddRun(0, dst.Len())
			return nil
		}
		// Leaves OR their matches into dst, so they accumulate the
		// union directly; composite children assume a cleared
		// destination (And intersects into it, Not complements it) and
		// must go through a pooled temporary.
		if isLeaf(k) {
			if err := k.evalBlock(ch, ck, dst); err != nil {
				return err
			}
			continue
		}
		tmp := sel.Get(dst.Len())
		if err := k.evalBlock(ch, ck, tmp); err != nil {
			tmp.Release()
			return err
		}
		err := dst.Union(tmp)
		tmp.Release()
		if err != nil {
			return err
		}
	}
	return nil
}

// isLeaf reports whether e ORs its matches into the destination (and
// so may share a partially filled one), as the Range/Eq/In leaves do.
func isLeaf(e Expr) bool {
	switch e.(type) {
	case *rangeNode, *inNode:
		return true
	}
	return false
}

func (n *orNode) estimate(ch *chunks, ck int) float64 {
	est := 0.0
	for _, k := range n.kids {
		est += k.estimate(ch, ck)
	}
	if est > 1 {
		return 1
	}
	return est
}

// notNode is the negation combinator.
type notNode struct {
	kid Expr
}

func (n *notNode) String() string { return string(n.AppendString(nil)) }

func (n *notNode) AppendString(buf []byte) []byte {
	return append(n.kid.AppendString(append(buf, "not ("...)), ')')
}

func (n *notNode) check(t *Table) error {
	if n.kid == nil {
		return fmt.Errorf("table: Not(nil) expression")
	}
	return n.kid.check(t)
}

func (n *notNode) prune(ch *chunks, ck int) blocked.RangeClass {
	switch n.kid.prune(ch, ck) {
	case blocked.RangeAll:
		return blocked.RangeMiss
	case blocked.RangeMiss:
		return blocked.RangeAll
	default:
		return blocked.RangePart
	}
}

func (n *notNode) evalBlock(ch *chunks, ck int, dst *sel.Selection) error {
	if err := n.kid.evalBlock(ch, ck, dst); err != nil {
		return err
	}
	dst.Not()
	return nil
}

func (n *notNode) estimate(ch *chunks, ck int) float64 {
	return 1 - n.kid.estimate(ch, ck)
}

// columnsOf appends the table positions of the columns e names to cols.
func columnsOf(t *Table, e Expr, cols []int) []int {
	var kids []Expr
	switch n := e.(type) {
	case *rangeNode:
		return append(cols, n.at.pos(t, n.col))
	case *inNode:
		return append(cols, n.at.pos(t, n.col))
	case *notNode:
		return columnsOf(t, n.kid, cols)
	case *andNode:
		kids = n.kids
	case *orNode:
		kids = n.kids
	}
	for _, k := range kids {
		cols = columnsOf(t, k, cols)
	}
	return cols
}

// appendKids renders a combinator's children, parenthesized and
// separated by sep, or the identity literal when there are none.
func appendKids(buf []byte, kids []Expr, sep, empty string) []byte {
	if len(kids) == 0 {
		return append(buf, empty...)
	}
	for i, k := range kids {
		if i > 0 {
			buf = append(buf, sep...)
		}
		if k == nil {
			buf = append(buf, "<nil>"...)
			continue
		}
		buf = append(k.AppendString(append(buf, '(')), ')')
	}
	return buf
}

// checkKids validates a combinator's children against t.
func checkKids(t *Table, kids []Expr) error {
	for _, k := range kids {
		if k == nil {
			return fmt.Errorf("table: nil expression operand")
		}
		if err := k.check(t); err != nil {
			return err
		}
	}
	return nil
}
