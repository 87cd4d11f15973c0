package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef declares one metric the benchmark emits. The tables below
// are the single source of names and units inside the program;
// BENCHMARK.json at the repo root repeats them for the driver and the
// package test checks the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: allowed regression as a share of the parent's median
}

// endToEnd is what a caller of lwcd (or of the write path) sees. The
// same seven names are emitted by every workload with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"rss_mib", "MiB", "lower", 0.10},
	{"stored_bytes_per_value", "bytes/value", "lower", 0.005},
}

// perLayer is what -trace 1 emits: one entry per row of the README's
// per-layer table. A metric whose layer the workload never enters
// (compact.* on a serve workload, server.* on write-maintain) is
// emitted as 0.
var perLayer = []metricDef{
	{Name: "server.handler_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "server.self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "server.wire_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	{Name: "server.timeouts", Unit: "count", Better: "lower"},
	{Name: "table.parse_us_per_op", Unit: "us", Better: "lower"},
	{Name: "table.aggregate_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "table.self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "table.scan_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "table.stream_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "table.blocks_skipped_per_op", Unit: "count", Better: "higher"},
	{Name: "table.blocks_proved_per_op", Unit: "count", Better: "higher"},
	{Name: "table.blocks_fetched_per_op", Unit: "count", Better: "lower"},
	{Name: "table.skip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "blocked.block_eval_us_per_block", Unit: "us", Better: "lower"},
	{Name: "blocked.decompress_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "query.count_range_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "query.sum_range_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "query.select_range_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "core.decompress_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "bitpack.unpack_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "bitpack.count_range_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "sel.and_count_ns_per_word", Unit: "ns", Better: "lower"},
	{Name: "storage.block_form_cold_us_per_block", Unit: "us", Better: "lower"},
	{Name: "storage.block_form_hot_us_per_block", Unit: "us", Better: "lower"},
	{Name: "storage.cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "storage.cache_misses_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.cache_evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.read_retries", Unit: "count", Better: "lower"},
	{Name: "storage.open_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.write_ms_per_chunk", Unit: "ms", Better: "lower"},
	{Name: "storage.verify_ms_per_chunk", Unit: "ms", Better: "lower"},
	{Name: "core.collect_stats_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "core.analyze_us_per_block", Unit: "us", Better: "lower"},
	{Name: "blocked.encode_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "compact.file_ms_per_chunk", Unit: "ms", Better: "lower"},
	{Name: "compact.bytes_reclaimed_per_value", Unit: "bytes/value", Better: "higher"},
	{Name: "compact.rewritten_share", Unit: "ratio", Better: "higher"},
	{Name: "scrub.file_ms_per_chunk", Unit: "ms", Better: "lower"},
	{Name: "scrub.blocks_scanned", Unit: "count", Better: "higher"},
	{Name: "client.op_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.op_max_ms", Unit: "ms", Better: "lower"},
	{Name: "client.ttfb_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.body_read_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is everything one run of one workload produced: the values
// by metric name, the op tally, and free-form detail lines for the
// human-readable report (scheme mix, per-column kernel numbers, …).
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	failures  []string // first few failure reasons, for the report
	detail    []string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) notef(format string, args ...any) {
	o.detail = append(o.detail, fmt.Sprintf(format, args...))
}

// fail records one failed op; only the first few reasons are kept.
func (o *outcome) fail(reason string) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, reason)
	}
}

// result projects the outcome onto the declared metric list. A
// declared end-to-end metric the run did not produce is a bug in the
// benchmark and is reported as an error; a per-layer metric the
// workload does not exercise is 0.
func (o *outcome) result(defs []metricDef, required bool) (result, error) {
	r := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok && required {
			return r, fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r, nil
}

// printReport writes the human-readable part: every metric by name
// with its unit, then the detail lines.
func printReport(w io.Writer, defs []metricDef, res result, o *outcome) {
	fmt.Fprintf(w, "ops: attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, f := range o.failures {
		fmt.Fprintf(w, "  failed op: %s\n", f)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	for _, line := range o.detail {
		fmt.Fprintf(w, "  # %s\n", line)
	}
}

// printResultLine writes the machine-readable last line.
func printResultLine(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// percentile returns the nearest-rank q-quantile of sorted (ascending)
// samples; q in (0, 1].
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(q*float64(len(sorted))+0.999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

func msOf(ns int64) float64 { return float64(ns) / 1e6 }

// perOr0 is num/den, or 0 when the denominator is empty — a layer the
// workload never entered.
func perOr0(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
