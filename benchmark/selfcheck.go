package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// median returns the middle value of xs (mean of the middle two for
// an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive"
// method), so the spreads printed here are the spreads the driver
// computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// runSelfcheck is the A/A check: the same code, the same seeds, two
// sets of runs back to back. For every end-to-end metric it prints
// each set's median and quartiles, the inter-quartile spread as a
// share of the median, and the gap between the two medians against
// the declared bound. Each run is a fresh process, exactly as the
// driver runs the benchmark.
func runSelfcheck(ctx context.Context, cfg *config, runs int, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "selfcheck: workload=%s, 2 sets x %d runs, seeds %d..%d, seconds=%g scale=%s\n",
		cfg.workload, runs, cfg.seed, cfg.seed+int64(runs)-1, cfg.seconds, cfg.scale.name)
	fmt.Fprintf(stdout, "env: %s\n", takeFingerprint())
	var sets [2]map[string][]float64
	for s := range sets {
		sets[s] = map[string][]float64{}
		for r := 0; r < runs; r++ {
			cmd := exec.CommandContext(ctx, exe,
				"-workload", cfg.workload,
				"-seed", strconv.FormatInt(cfg.seed+int64(r), 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"-scale", cfg.scale.name,
				"-workdir", cfg.workDir,
				"-trace", "0")
			cmd.Stderr = stderr
			outBytes, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("set %d run %d: %w", s+1, r+1, err)
			}
			var res result
			if err := json.Unmarshal(lastLine(bytes.TrimSpace(outBytes)), &res); err != nil {
				return fmt.Errorf("set %d run %d: undecodable result line: %w", s+1, r+1, err)
			}
			if !res.Correct {
				return fmt.Errorf("set %d run %d: %d of %d ops failed", s+1, r+1, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				sets[s][name] = append(sets[s][name], m.Value)
			}
			fmt.Fprintf(stderr, "selfcheck: set %d run %d/%d done\n", s+1, r+1, runs)
		}
	}

	fmt.Fprintf(stdout, "%-24s %-8s | %12s %12s %12s %7s | %12s %12s %12s %7s | %7s %7s  %s\n",
		"metric", "unit", "A median", "A q1", "A q3", "A iqr%", "B median", "B q1", "B q3", "B iqr%", "gap%", "bound%", "verdict")
	ok := true
	for _, d := range endToEnd {
		a, b := sets[0][d.Name], sets[1][d.Name]
		ma, mb := median(a), median(b)
		a1, a3 := quartiles(a)
		b1, b3 := quartiles(b)
		sa, sb := (a3-a1)/ma, (b3-b1)/mb
		// gap > 0 means set B is worse than set A.
		gap := (mb - ma) / ma
		if d.Better == "higher" {
			gap = -gap
		}
		verdict := "ok"
		switch {
		case gap > d.Bound:
			verdict, ok = "GAP EXCEEDS BOUND", false
		case d.Name != "setup_s" && max(sa, sb) > d.Bound:
			verdict, ok = "SPREAD EXCEEDS BOUND", false
		case d.Name != "setup_s" && max(sa, sb) > d.Bound/3:
			verdict = "ok (spread above bound/3)"
		}
		fmt.Fprintf(stdout, "%-24s %-8s | %12.6g %12.6g %12.6g %7.2f | %12.6g %12.6g %12.6g %7.2f | %+7.2f %7.2f  %s\n",
			d.Name, d.Unit, ma, a1, a3, sa*100, mb, b1, b3, sb*100, gap*100, d.Bound*100, verdict)
	}
	if !ok {
		return fmt.Errorf("two sets of runs of the same code disagree beyond the declared bounds")
	}
	return nil
}
