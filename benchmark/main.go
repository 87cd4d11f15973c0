// Command benchmark is the repository's performance gate: four long
// closed-loop workloads against the real lwcd daemon (and the write
// path), seven end-to-end metrics, and a per-layer traced replay. See
// README.md in this directory for the definitions.
//
//	bash benchmark/run.sh --workload scan-hot --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload scan-hot --seed 1 --seconds 20 --trace 1
//	bash benchmark/run.sh --workload scan-hot --selfcheck
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"lwcomp/internal/server"
)

// workloads lists the four workloads in report order.
var workloads = []string{"scan-hot", "point-cold", "rows-stream", "write-maintain"}

// scaleDef sizes a run. "full" is the only scale whose numbers mean
// anything; "smoke" exists so the package test can drive every code
// path in a few seconds.
type scaleDef struct {
	name      string
	rows      int // rows of table orders
	blockSize int
	chunkRows int // rows per write-maintain chunk
	setupReps int // set-ups per run; setup_s is their median
	sizes     map[string]workloadSize
	deadline  time.Duration
}

// workloadSize sizes one workload's run at a scale.
type workloadSize struct {
	// opsPerSecond is the op count timed per requested second: the
	// reference box's closed-loop rate as measured while its neighbours
	// were busy, so -seconds 20 times ~20 s then and less when they are
	// quiet. The count is fixed by the flag, never by the clock —
	// every run of a given -seconds executes the same number of ops.
	opsPerSecond float64
	// warmupOps is the length of the untimed warm-up prefix: enough to
	// fill the caches the workload leaves enabled and reach a steady
	// heap.
	warmupOps int
	// slices is the number of equal slices the timed phase runs as;
	// the metrics are medians over them. Ten, unless a slice would then
	// hold fewer than ten ops beyond its own p95.
	slices int
	// parts is the number of equal parts a slice runs as, with a
	// host-probe reading between them (probe.go).
	parts int
	// hostShare is the share of the workload's time that slows one to
	// one with the host probe; the rest — system calls, fsync waits,
	// page-cache copies — does not slow with it at all. All of the
	// serve workloads' time does; of write-maintain's, two thirds
	// (README.md, "Host-speed correction").
	hostShare float64
}

var scales = map[string]scaleDef{
	"full": {
		name: "full", rows: 4 << 20, blockSize: 16384, chunkRows: 65536, setupReps: 3,
		sizes: map[string]workloadSize{
			"scan-hot":       {opsPerSecond: 100, warmupOps: 24, slices: 10, parts: 5, hostShare: 1},
			"point-cold":     {opsPerSecond: 5400, warmupOps: 2000, slices: 10, parts: 6, hostShare: 1},
			"rows-stream":    {opsPerSecond: 360, warmupOps: 100, slices: 10, parts: 6, hostShare: 1},
			"write-maintain": {opsPerSecond: 54, warmupOps: 36, slices: 5, parts: 6, hostShare: 0.65},
		},
		deadline: 170 * time.Second,
	},
	"smoke": {
		name: "smoke", rows: 1 << 17, blockSize: 16384, chunkRows: 8192, setupReps: 1,
		sizes: map[string]workloadSize{
			"scan-hot":       {opsPerSecond: 1.2, warmupOps: 4, slices: 2, parts: 1, hostShare: 1},
			"point-cold":     {opsPerSecond: 6, warmupOps: 16, slices: 2, parts: 1, hostShare: 1},
			"rows-stream":    {opsPerSecond: 0.8, warmupOps: 4, slices: 2, parts: 1, hostShare: 1},
			"write-maintain": {opsPerSecond: 0.6, warmupOps: 2, slices: 2, parts: 1, hostShare: 0.65},
		},
		deadline: 60 * time.Second,
	},
}

// ops is the timed op count for -seconds: the nearest whole number of
// units to rate × seconds, a unit being one template rotation per
// part of a slice, so that every part times the same mix of shapes.
func (s scaleDef) ops(workload string, seconds float64) int {
	size := s.sizes[workload]
	unit := size.slices * size.parts * rotation(workload)
	return unit * max(1, int(size.opsPerSecond*seconds/float64(unit)+0.5))
}

// rotation is the period of a workload's op shapes: its template
// count, or the six chunk shapes of write-maintain.
func rotation(workload string) int {
	if t, ok := templatesOf[workload]; ok {
		return len(t)
	}
	return numCols
}

// config is one invocation's parsed flags.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	scale    scaleDef
	workDir  string
}

func main() {
	daemonIfChild()
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// daemonIfChild turns a re-exec marked with childEnv into the server
// under test — from here on the process is cmd/lwcd, line for line —
// and does not return then.
func daemonIfChild() {
	if os.Getenv(childEnv) != "lwcd" {
		return
	}
	if err := server.Main(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "lwcd: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// cli parses flags and runs; it returns the process exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "workload to run: scan-hot, point-cold, rows-stream, write-maintain, or all")
		seed      = fs.Int64("seed", 1, "seed of the dataset and the request list")
		seconds   = fs.Float64("seconds", 20, "length of the timed phase on the reference box; fixes the op count")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from the traced replay")
		traceOut  = fs.String("trace-out", "", "where -trace 1 writes its spans (default <workdir>/trace-<workload>-<seed>.ndjson)")
		scaleName = fs.String("scale", "full", "full, or smoke (tiny sizes for the package test; numbers are meaningless)")
		workDir   = fs.String("workdir", ".bench_build", "directory for temporary data; created if missing")
		selfcheck = fs.Bool("selfcheck", false, "A/A check: run the workload's set of runs twice and compare the two sets against the declared bounds")
		runs      = fs.Int("runs", 5, "runs per set for -selfcheck")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown -scale %q\n", *scaleName)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || *runs < 2 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, -trace 0 or 1, -runs at least 2")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	for _, name := range names {
		if _, ok := sc.sizes[name]; !ok {
			fmt.Fprintf(stderr, "benchmark: unknown -workload %q (want one of %v, or all)\n", name, workloads)
			return 2
		}
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if err := probeInit(); err != nil {
		fmt.Fprintf(stderr, "benchmark: mapping the host probe's buffer: %v\n", err)
		return 1
	}

	// Ctrl-C and SIGTERM cancel the run's context; every blocking step
	// watches it, so the deferred clean-ups (daemon stopped, temporary
	// directory removed) run on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	code := 0
	for _, name := range names {
		cfg := &config{
			workload: name, seed: *seed, seconds: *seconds, trace: *trace == 1,
			traceOut: *traceOut, scale: sc, workDir: *workDir,
		}
		if cfg.trace && cfg.traceOut == "" {
			cfg.traceOut = filepath.Join(cfg.workDir, fmt.Sprintf("trace-%s-%d.ndjson", name, cfg.seed))
		}
		var err error
		if *selfcheck {
			err = runSelfcheck(ctx, cfg, *runs, stdout, stderr)
		} else {
			err = runAndReport(ctx, cfg, stdout, stderr)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// errIncorrect is returned when a run completed but some op failed.
var errIncorrect = errors.New("run completed with failed ops")

// runAndReport runs one workload under its hard deadline, prints the
// report and, as the last line, the result object. A run that cannot
// produce every metric prints no result line at all.
func runAndReport(ctx context.Context, cfg *config, stdout, stderr io.Writer) error {
	fp := takeFingerprint()
	if fp.busy() {
		fmt.Fprintf(stderr, "benchmark: warning: 1-minute load average %.2f exceeds half of %d cores; numbers from this run are suspect\n", fp.Load1, fp.NProc)
	}
	ctx, cancel := context.WithTimeout(ctx, cfg.scale.deadline)
	defer cancel()

	var host probeLog
	host.read()
	out, err := runWorkload(ctx, cfg)
	host.read()
	if err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return fmt.Errorf("hard deadline of %v reached, run reported as failed: %w", cfg.scale.deadline, err)
		}
		return err
	}
	defs, required := endToEnd, true
	if cfg.trace {
		defs, required = perLayer, false
	}
	res, err := out.result(defs, required)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "lwcomp benchmark: workload=%s seed=%d seconds=%g scale=%s trace=%v\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.scale.name, cfg.trace)
	fmt.Fprintf(stdout, "env: %s\n", fp)
	out.notef("host probe before and after the run: %.3f ms, %.3f ms (%.3f ms on the quiet reference host); only the end-to-end time metrics are corrected for it",
		host[0]*1e3, host[1]*1e3, probeQuiet.Seconds()*1e3)
	printReport(stdout, defs, res, out)
	if err := printResultLine(stdout, res); err != nil {
		return err
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runWorkload dispatches one run; ctx carries the hard deadline.
func runWorkload(ctx context.Context, cfg *config) (*outcome, error) {
	out := newOutcome()
	var err error
	switch {
	case cfg.workload == "write-maintain" && cfg.trace:
		err = traceWrite(ctx, cfg, out)
	case cfg.workload == "write-maintain":
		err = runWrite(ctx, cfg, out)
	case cfg.trace:
		err = traceServe(ctx, cfg, out)
	default:
		err = runServe(ctx, cfg, out)
	}
	return out, err
}
