package lwcomp

import (
	"io"

	"lwcomp/internal/blocked"
	"lwcomp/internal/sel"
	"lwcomp/internal/storage"
)

// Column is the primary handle of the public API: a compressed
// column partitioned into blocks, each block compressed with its own
// independently re-composed scheme and indexed by [min, max] stats.
//
// Construct one with Encode (batch) or a ColumnBuilder (streaming),
// adopt an existing Form with ColumnFromForm, or read one back with
// ReadColumns. All queries are methods and aggregate across blocks
// with stat-based skipping: a SelectRange that misses a block's
// [min, max] never decodes it, and PointLookup binary-searches the
// block index.
type Column = blocked.Column

// Block is one entry of a Column's block index.
type Block = blocked.Block

// Selection is a bitmap-backed selection vector: the result of a
// range predicate over a column, one bit per row. Column.SelectRangeSel
// returns one, and it is the zero-allocation alternative to the
// []int64 row lists of SelectRange: whole matching runs cost O(rows/64)
// word fills, per-block results merge with word-granular ORs, and
// Release returns the vector to a pool. Use Rows or AppendRows to
// convert to explicit row positions, Count for the match cardinality,
// and Iterate to visit matches without materializing them.
type Selection = sel.Selection

// NewSelection returns an empty selection over the row domain [0, n).
func NewSelection(n int) *Selection { return sel.New(n) }

// ColumnBuilder ingests values incrementally and produces a Column;
// see NewColumnBuilder.
type ColumnBuilder = blocked.Builder

// NamedColumn pairs a name with a Column inside a container file.
type NamedColumn = storage.BlockedColumn

// Encode compresses src into a Column under the given options:
//
//	col, err := lwcomp.Encode(values,
//	    lwcomp.WithBlockSize(1<<16),
//	    lwcomp.WithParallelism(8))
//
// With no options the whole column becomes a single block whose
// scheme the analyzer picks — Encode(src) is CompressBest(src) with
// a handle around it. With a block size, every block runs its own
// analyzer search concurrently, so differently-structured regions of
// the column end up under different composite schemes (the paper's
// re-composition argument applied per data region).
func Encode(src []int64, opts ...Option) (*Column, error) {
	return blocked.Encode(src, buildOptions(opts).enc)
}

// NewColumnBuilder returns a streaming ingest handle:
//
//	b := lwcomp.NewColumnBuilder(lwcomp.WithBlockSize(1 << 16))
//	for batch := range source {
//	    if err := b.Append(batch); err != nil { ... }
//	}
//	col, err := b.Flush()
//
// Blocks are compressed in the background as they fill, bounded by
// WithParallelism. A zero or negative block size falls back to
// DefaultBlockSize (a streaming builder cannot defer to "the whole
// column").
func NewColumnBuilder(opts ...Option) *ColumnBuilder {
	return blocked.NewBuilder(buildOptions(opts).enc)
}

// ColumnFromForm adopts a compressed Form as a single-block Column,
// computing the block's [min, max] stats from the form so range
// queries can skip it. `lwc upgrade` adopts every column of a v1
// container the same way.
func ColumnFromForm(f *Form) (*Column, error) {
	return blocked.FromForm(f, true)
}

// WriteColumns writes named columns as a v3 container: a
// self-contained block index up front (per-block [min, max] stats,
// payload extents, and CRC-32C checksums) followed by the block
// payloads, so OpenFile can later serve queries without reading the
// payloads it does not touch. Columns may themselves be lazily
// opened handles — their blocks are fetched through their source as
// they are written.
func WriteColumns(w io.Writer, cols []NamedColumn) error {
	return storage.WriteContainerV3(w, cols)
}

// WriteColumnsFile writes named columns as a v3 container file,
// crash-safely: the container is written to a temporary file in the
// destination's directory, fsynced, and renamed over path. A crash at
// any point — power loss, kill -9 mid-write — leaves either the old
// file or the complete new one under the final name, never a torn
// container. `lwc compress` writes through this.
func WriteColumnsFile(path string, cols []NamedColumn) error {
	return storage.AtomicWriteFile(path, func(w io.Writer) error {
		return storage.WriteContainerV3(w, cols)
	})
}

// ReadColumns reads a whole container written by WriteColumns, with
// every block form resident. Any other format is rejected after its
// 4-byte magic; a v1 or v2 container's error names `lwc upgrade`.
// Prefer OpenFile/OpenContainer to query a container without
// materializing it.
func ReadColumns(r io.Reader) ([]NamedColumn, error) {
	return storage.LoadContainer(r)
}
