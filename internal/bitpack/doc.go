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
//     generated and lane-parallel, each 64-bit word testing all
//     ⌊64/w⌋ of its values at once (SWAR);
//   - fused sums over a range and under a mask; up to 16 bits they add
//     the lanes a mask keeps on the packed words, and a sum over a
//     range is the select kernel's mask, then that masked sum;
//   - one hand-written unpack-then-loop per operator for every block
//     without a lane kernel: wider than 16 bits, zigzag compares, and
//     dictionary gathers;
//   - one block walk for every scan: a head, a tail or a short last
//     block runs the same kernel on a zero-padded copy;
//   - zigzag mapping between signed and unsigned domains;
//   - LEB128 varints and Elias gamma/delta codes for the paper's
//     bit-metric, variable-width extension.
//
// All whole-column packing is block-structured: ⌊n/64⌋ full blocks
// followed by one generic tail. A 64-value block at width w occupies
// exactly w 64-bit words, so offsets are computable without headers.
package bitpack
