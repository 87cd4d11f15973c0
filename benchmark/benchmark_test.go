package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for lwcd exactly as the
// benchmark binary does: startChild re-execs os.Executable().
func TestMain(m *testing.M) {
	daemonIfChild()
	os.Exit(m.Run())
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesProgram: BENCHMARK.json declares exactly the
// workloads and metrics the program knows, with the same units,
// directions and bounds, inside the driver's limits.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i])
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s/%s, program %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s[%d]: name %q or unit %q is malformed or repeated", kind, i, g.Name, g.Unit)
			}
			seen[g.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the program", kind, g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
}

// smokeRun drives the real command-line path at smoke scale and
// returns the decoded result line.
func smokeRun(t *testing.T, workload string, trace int) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{
		"-workload", workload, "-seed", "7", "-seconds", "20", "-scale", "smoke",
		"-trace", fmt.Sprint(trace), "-workdir", t.TempDir(),
	}
	if code := cli(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s -trace %d exited %d\nstdout:\n%s\nstderr:\n%s", workload, trace, code, stdout.String(), stderr.String())
	}
	var res result
	dec := json.NewDecoder(bytes.NewReader(lastLine(stdout.Bytes())))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s -trace %d: last line is not a result object: %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s -trace %d: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	for _, key := range []string{"nproc=", "GOMAXPROCS=", "cpu=", "go=", "kernel=", "load1=", "benchmark_tree="} {
		if !strings.Contains(stdout.String(), key) {
			t.Errorf("%s -trace %d: fingerprint lacks %s", workload, trace, key)
		}
	}
	return res
}

// TestSmokeEmitsDeclaredMetrics runs all four workloads untraced and
// traced at smoke scale and checks that each emits exactly the
// declared metric names, once, with the declared unit.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	m := readManifest(t)
	for _, w := range m.Workloads {
		for trace, declared := range [][]manifestMetric{m.EndToEnd, m.PerLayer} {
			res := smokeRun(t, w.Name, trace)
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s -trace %d: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				got, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s -trace %d: %s not emitted", w.Name, trace, d.Name)
					continue
				}
				if got.Unit != d.Unit {
					t.Errorf("%s -trace %d: %s has unit %q, declared %q", w.Name, trace, d.Name, got.Unit, d.Unit)
				}
				if trace == 0 && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, d.Name, got.Value)
				}
			}
		}
	}
}

// TestSeedDeterminesInputs: the same seed gives the same dataset and
// request lists, another seed gives others.
func TestSeedDeterminesInputs(t *testing.T) {
	const rows = 1 << 15
	a, b, c := generateDataset(rows, 3), generateDataset(rows, 3), generateDataset(rows, 4)
	if a.sha256Hex() != b.sha256Hex() {
		t.Error("same seed, different dataset")
	}
	if a.sha256Hex() == c.sha256Hex() {
		t.Error("different seed, same dataset")
	}
	for workload := range templatesOf {
		ra := requestsSHA256(generateRequests(workload, a, 3, 1, 200))
		rb := requestsSHA256(generateRequests(workload, b, 3, 1, 200))
		rc := requestsSHA256(generateRequests(workload, c, 4, 1, 200))
		if ra != rb {
			t.Errorf("%s: same seed, different request list", workload)
		}
		if ra == rc {
			t.Errorf("%s: different seed, same request list", workload)
		}
	}
	x, y, z := make([]int64, 4096), make([]int64, 4096), make([]int64, 4096)
	for i := 0; i < numCols; i++ {
		genChunk(i, x, 3)
		genChunk(i, y, 3)
		genChunk(i, z, 4)
		if !slices.Equal(x, y) {
			t.Errorf("chunk %d: same seed, different values", i)
		}
		// A constant column aside, another seed must give other values.
		if slices.Equal(x, z) {
			t.Errorf("chunk %d: different seed, same values", i)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v; Python gives 1.5, 4.5", q1, q3)
	}
}

// TestStretch pins the host-speed correction: readings at probeQuiet
// stretch nothing, a probe 40 % slower stretches a fully host-bound
// workload by 40 % and one with a share of 0.65 by 26 %.
func TestStretch(t *testing.T) {
	q := probeQuiet.Seconds()
	for _, c := range []struct {
		readings    probeLog
		share, want float64
	}{
		{probeLog{q, q, q}, 1, 1},
		{probeLog{1.3 * q, 1.5 * q}, 1, 1.4},
		{probeLog{1.3 * q, 1.5 * q}, 0.65, 1.26},
		{probeLog{1.3 * q, 1.5 * q}, 0, 1},
	} {
		if got := c.readings.stretch(c.share); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("stretch(%v, share %v) = %v, want %v", c.readings, c.share, got, c.want)
		}
	}
}
