// Package scheme implements the concrete lightweight compression
// schemes of the lwcomp framework, in the paper's decomposed columnar
// view: each scheme's compressed form is a set of pure constituent
// columns plus scalar parameters (a core.Form), and where the paper
// gives one (Algorithms 1 and 2), decompression is also available as
// an operator plan.
//
// Form layouts are the canonical contracts used by the rewrite rules
// and the storage format; they are documented per scheme.
//
// Each scheme's file holds its one split and its one reconstruction:
// CompressParts hands its constituent columns to the caller (Compress
// is that body with core.LeafEmit over an arena from the pool), and
// DecompressInto fills the caller's destination, borrowing temporaries
// from the core.Scratch it is handed. The whole-column API, the blocked
// path and every composition therefore run the same code; nothing
// selects between bodies. The model compositions — PFOR, the model
// plus NS residuals, patched lines — are Compose values over Plus and
// Patch, which fit a Model (Step, Linear, Poly2) through its own Fit.
package scheme
