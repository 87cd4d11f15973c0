// Package blocked implements the block-partitioned column handle
// behind the public lwcomp.Column API.
//
// The paper argues that compression schemes decompose into
// constituents so the right composite can be re-composed per data
// region. This package applies that thesis at storage granularity:
// the input column is partitioned into fixed-size blocks, the
// composite-scheme analyzer runs independently on every block
// (concurrently, bounded by a worker count), and each block records
// the [min, max] of its raw values. Queries then aggregate across
// blocks and use the stats to skip blocks entirely — a SelectRange
// that misses a block's [min, max] never decodes it, and a
// PointLookup binary-searches the block index.
//
// Because every block is compressed independently, a block is also
// *decodable* independently — which is what makes columns
// file-backed: a Column whose Source is set may leave its Blocks'
// Forms nil, and every query path fetches just the forms it touches
// through the BlockSource at first use (the lazy path behind
// lwcomp.OpenFile), under a Lease it releases when the block's work is
// done, so that the source may recycle the form's words. In-memory
// columns keep their forms resident and never consult a source, so the
// hot scan paths stay allocation-free.
//
// The package also owns the scan driver (scan.go): the one loop —
// classify chunks from stats, evaluate the undecided ones
// serially or in parallel, hand the outcome to a sink — that both the
// column's own range queries and package table's expression scans run
// through. A Plan says how the rows split into chunks and what the
// stats know about each; a Sink says what becomes of the chunks the
// stats did not refute. DESIGN.md §1.9 has the picture.
package blocked
