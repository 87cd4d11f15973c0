// Package bench is the experiment harness that regenerates the paper
// reproduction's tables (EXP-A … EXP-M; see DESIGN.md §2 for the
// experiment ↔ paper-claim index).
//
// Each experiment is a Table generator; cmd/lwcbench renders them,
// and EXPERIMENTS.md records one run. The system's own performance is
// measured elsewhere: end to end by the benchmark/ module (declared in
// BENCHMARK.json) and per code path by the testing.B benchmarks in the
// repository root's bench_test.go.
package bench
