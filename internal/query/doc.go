// Package query evaluates analytic operations directly on compressed
// forms.
//
// It operationalizes the paper's Lessons 1: "there is no clear
// distinction between decompression and analytic query execution".
// Because a compressed form is just a set of pure constituent columns,
// aggregates and selections can often be answered from the
// constituents without materializing the column:
//
//   - a range predicate is pushed down the form by one rewrite — each
//     scheme says how the range on the parent becomes a range on a
//     child and how the child's answer is combined — under one of
//     three verbs (count, select into a bitmap, sum), ending in a leaf
//     of packed words or materialised values (select.go, leaf.go); so
//     SUM over RLE is Σ lengths·values, FOR prunes whole segments by
//     its refs and the offsets' width (the paper's "rough
//     correspondence of the column data to a simple model can be used
//     to speed up selections"), a delta form bounds each 64-row group
//     by its two ends and its deltas' extent (delta.go), and a patched
//     form runs its base's kernel and corrects at the exceptions;
//   - a fourth verb sums the rows a selection on another column holds,
//     handing the selection unchanged to the position-aligned
//     constituents: Σ (model + residual) = Σ model + Σ residual under
//     any selection (SumSel, sum.go);
//   - values at given rows are gathered the same way, by position
//     (query.go);
//   - SUM over FOR-like forms splits into an exact model part and a
//     bounded residual part, enabling the paper's "approximate or
//     gradual-refinement query processing" (approx.go).
//
// Every operation falls back to full decompression for forms it has
// no rule for — in one place, the leaf — so results are always exact
// and always available.
package query
