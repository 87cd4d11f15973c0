package lwcomp

import (
	"io"

	"lwcomp/internal/storage"
	"lwcomp/internal/table"
)

// This file is the table scan surface: composable predicates over the
// columns of a multi-column container, planned per block and pushed
// down onto the compressed forms, with late materialization of the
// survivors.
//
//	tbl, err := lwcomp.OpenTable("orders.lwc")
//	defer tbl.Close()
//	scan, err := tbl.Scan(lwcomp.And(
//	    lwcomp.Range("date", 730200, 730400),
//	    lwcomp.Eq("status", 1)))
//	defer scan.Release()
//	n := scan.Count()
//	revenue, err := scan.Sum("amount")
//
// Blocks any conjunct's [min, max] stats refute are skipped without
// fetching a single column payload; blocks the stats prove emit whole
// bitmap runs; only the undecided remainder evaluates, leaf by leaf
// on each leaf's own compressed column, intersecting as word-granular
// bitmap ANDs. On a lazily opened container that turns a selective
// multi-column scan into a handful of block reads.

// Table is a queryable handle over the equal-length named columns of
// one logical table. Scans plan predicate trees per block across all
// referenced columns when the columns share block boundaries (columns
// encoded with one block size from equal-length inputs always do);
// otherwise they plan per chunk — the row ranges that no block boundary
// of a column the scan reads cuts — through the same engine, with the
// same skipping and degraded-mode behaviour.
type Table = table.Table

// Scan is the result handle of Table.Scan: the surviving rows as a
// pooled bitmap selection plus projection and aggregation methods
// (Rows, Count, Sum, Materialize) that fetch and decode only the
// blocks still holding set bits. Release it when done.
type Scan = table.Scan

// ScanOptions configures one scan's failure handling — pass it to
// Table.ScanWith to run a single scan degraded (or fail-fast)
// regardless of the table's WithDegradedScan default.
type ScanOptions = table.ScanOptions

// DegradationManifest is the exact record of what a degraded scan
// omitted: one SkippedBlock per unreadable (column, block), with the
// row range the omission removed from the result. Scan.Manifest
// returns it; it stays valid after the scan is released.
type DegradationManifest = table.Manifest

// SkippedBlock describes one block a degraded scan omitted — the
// column, block index, omitted row range, and the permanent error
// that condemned it.
type SkippedBlock = table.SkippedBlock

// AggregateResult is what Table.Aggregate returns: the matched-row
// count, the per-column sums (parallel to the requested columns), and
// — when the aggregate ran degraded — the manifest of skipped blocks.
// Aggregate, CountWhere and SumWhere are the fused alternative to
// Scan + Count + Sum: one pass over the compressed blocks that never
// materializes the scan's selection.
type AggregateResult = table.AggregateResult

// Expr is a composable predicate over a table's columns: Range, Eq
// and In leaves under And, Or and Not combinators. Expressions are
// immutable, reusable across scans and tables, and render back to the
// ParsePredicate mini-language via String.
type Expr = table.Expr

// NewTable builds an in-memory table over cols. Every column must be
// non-nil, uniquely named, and of the same length.
func NewTable(cols []NamedColumn) (*Table, error) {
	return table.New(cols, nil)
}

// NewTableWithClosers builds a table whose columns come from several
// open containers — a server mounting one single-column container per
// column, for example. Close releases every closer exactly once, no
// matter how many times (or from how many goroutines) it is called.
func NewTableWithClosers(cols []NamedColumn, closers ...io.Closer) (*Table, error) {
	return table.NewWithClosers(cols, closers...)
}

// OpenTable opens a container file as a lazily backed table: only the
// header and block index are read, and scans fetch exactly the blocks
// their predicate stats admit. All open options apply (WithBlockCache,
// WithReadRetry, WithParallelism); Close the table to release the file.
func OpenTable(path string, opts ...Option) (*Table, error) {
	o := buildOptions(opts)
	cf, err := storage.OpenContainerFile(path, o.openOptions())
	if err != nil {
		return nil, err
	}
	applyColumnOptions(cf, &o)
	t, err := table.New(cf.Columns(), cf)
	if err != nil {
		cf.Close()
		return nil, err
	}
	t.Degraded = o.degraded
	return t, nil
}

// OpenTableReader opens a container from any io.ReaderAt covering
// size bytes as a table, with OpenTable's semantics — the instrument
// for tests that count how few bytes a pushed-down scan reads. If r
// also implements io.Closer, closing the table closes it.
func OpenTableReader(r io.ReaderAt, size int64, opts ...Option) (*Table, error) {
	o := buildOptions(opts)
	cf, err := storage.OpenContainer(r, size, o.openOptions())
	if err != nil {
		return nil, err
	}
	applyColumnOptions(cf, &o)
	t, err := table.New(cf.Columns(), cf)
	if err != nil {
		cf.Close()
		return nil, err
	}
	t.Degraded = o.degraded
	return t, nil
}

// Range returns the predicate lo ≤ col ≤ hi (inclusive). Use
// math.MinInt64 / math.MaxInt64 for one-sided comparisons; an
// inverted range matches nothing.
func Range(col string, lo, hi int64) Expr { return table.Range(col, lo, hi) }

// Eq returns the predicate col == v.
func Eq(col string, v int64) Expr { return table.Eq(col, v) }

// In returns the predicate col ∈ vals; runs of consecutive values
// evaluate as single range probes. In with no values matches nothing.
func In(col string, vals ...int64) Expr { return table.In(col, vals...) }

// And returns the conjunction of kids. The planner skips any block a
// conjunct's stats refute without fetching the other columns, and
// within an undecided block evaluates the most selective-looking leaf
// first, abandoning the block as soon as the intersection is empty.
// Range/Eq operands over one column fold into a single leaf, so
// "c >= a and c <= b" costs what Range(c, a, b) does. And() with no
// operands matches every row.
func And(kids ...Expr) Expr { return table.And(kids...) }

// Or returns the disjunction of kids; per-column results merge as
// word-granular bitmap ORs. Or() with no operands matches nothing.
func Or(kids ...Expr) Expr { return table.Or(kids...) }

// Not returns the negation of kid, evaluated as a word-granular
// bitmap complement.
func Not(kid Expr) Expr { return table.Not(kid) }

// ParseError is the structured error ParsePredicate returns for
// input outside the mini-language: the message, the byte offset of
// the offending token, and the token's text. Extract it with
// errors.As to surface the offset to users (a 400 body, an editor
// caret); its Error() string includes both fields.
type ParseError = table.ParseError

// ParsePredicate reads a predicate in the scan mini-language — the
// textual form `lwc query -where` accepts and Expr.String renders:
//
//	date >= 730200 and date <= 730400 and status = 1
//	status in (1, 2) or not (amount < 0)
//
// Comparisons (= == != < <= > >=) and in-lists form the leaves;
// and/or/not (case-insensitive, and binding tighter than or) combine
// them; parentheses group.
func ParsePredicate(s string) (Expr, error) { return table.Parse(s) }
