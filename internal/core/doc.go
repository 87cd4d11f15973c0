// Package core implements the primary contribution of Rozenberg
// (ICDE 2018): a compositional algebra of lightweight compression
// schemes.
//
// The paper's key move is to view a compressed column as a set of
// "pure" constituent columns plus scalar parameters, with
// decompression expressed as a plan of ordinary columnar operators.
// Under that view, schemes compose (apply a scheme to a constituent
// column of another scheme's compressed form) and decompose (rewrite a
// scheme as a composition of simpler ones: RLE ≡ (ID, DELTA) ∘ RPE,
// FOR ≡ STEPFUNCTION + NS).
//
// core defines:
//
//   - Form: the recursive compressed representation (a tree whose
//     internal nodes are schemes and whose leaves are raw or
//     physically packed columns);
//   - Scheme: the compressor/decompressor contract — one split
//     (Compress) and one reconstruction (DecompressInto) per scheme,
//     run alike by the whole-column API and the pooled block path —
//     with optional operator-plan decompression (Planner), the
//     paper's specification the one decoder is tested against;
//   - Composite: the composition operator ∘;
//   - rewrite rules realizing the paper's decomposition identities;
//   - a cost model and an analyzer that searches the composite-scheme
//     space, the "richer view" the paper argues for.
package core
