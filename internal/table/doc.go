// Package table implements the multi-column scan engine behind the
// public lwcomp.Table API: composable predicate expressions evaluated
// as operator plans directly on compressed columns, with cross-column
// pushdown and late materialization.
//
// The paper's decomposition argument is that queries should run on the
// compressed constituents themselves; packages query and blocked apply
// it one column at a time. This package extends it to whole analytical
// predicates over several columns. An expression tree built from
// Range/Eq/In leaves under And/Or/Not combinators is handed, as a
// blocked.Plan, to the one scan driver in package blocked, which plans
// it per block:
//
//   - every leaf is first classified against its own column's
//     per-block [min, max] stats, giving a three-valued verdict per
//     block (refuted / proved / undecided) that propagates through the
//     combinators — a block any conjunct refutes is skipped without
//     fetching any column's payload, and a block every predicate
//     proves emits its whole row span as one bitmap run;
//   - undecided blocks evaluate each undecided leaf on its own
//     column's compressed form through the fused unpack-and-compare
//     kernels, producing block-local bitmap selections that intersect
//     as word-granular ANDs (package sel); conjunctions evaluate their
//     cheapest-looking leaf first (the stats-overlap estimate) and
//     stop fetching further columns once the intersection is empty;
//   - the surviving selection drives projection and aggregation
//     (Scan.Rows, Count, Sum, Materialize), which fetch and decode
//     only the blocks still holding set bits — on a lazily opened
//     container, columns never touched by the predicate or the
//     projection never leave the file.
//
// Columns that share block boundaries (those encoded from equal-length
// inputs with one block size always do) plan per block. Otherwise a
// scan refines the boundaries of the columns it reads into chunks — row
// ranges none of them cuts — and the same driver plans per chunk,
// pruning each chunk with the stats of the blocks that hold it.
//
// All per-scan state — the selection, the undecided-chunk list, the
// per-chunk scratch selections — is pooled, so a steady-state scan
// with a prebuilt expression allocates nothing.
package table
