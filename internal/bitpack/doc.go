// Package bitpack is the physical null-suppression (NS) substrate of
// lwcomp.
//
// In the paper's terms, NS "discards redundant bits": a column whose
// values all fit in w bits is stored as a dense stream of w-bit
// fields. bitpack provides:
//
//   - horizontal bit packing of 64-value blocks at any width 0..64,
//     with generated, fully unrolled, branch-free kernels per width
//     (the scalar stand-in for the SIMD kernels used by the paper's
//     lineage — see DESIGN.md, "Hardware substitution");
//   - fused range kernels that count or select a block's values in
//     [lo, hi] straight from the packed words; up to 16 bits they are
//     lane-parallel, each 64-bit word testing all ⌊64/w⌋ of its
//     values at once (SWAR), and wider they test one value at a time;
//   - a generic bit-granular fallback for partial tail blocks;
//   - zigzag mapping between signed and unsigned domains;
//   - LEB128 varints and Elias gamma/delta codes for the paper's
//     bit-metric, variable-width extension.
//
// All whole-column packing is block-structured: ⌊n/64⌋ full blocks
// followed by one generic tail. A 64-value block at width w occupies
// exactly w 64-bit words, so offsets are computable without headers.
package bitpack
