// Command lwcbench regenerates the paper reproduction's experiment
// tables (EXP-A … EXP-M; see DESIGN.md §2 for the experiment ↔
// paper-claim index and EXPERIMENTS.md for a recorded run).
//
// Usage:
//
//	lwcbench                 # run every experiment at full scale
//	lwcbench -exp A,C,F      # run a subset (IDs A..M)
//	lwcbench -n 262144       # reduced column length
//	lwcbench -list           # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lwcomp/internal/bench"
)

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiment IDs (A..M) or 'all'")
		nFlag    = flag.Int("n", 1<<20, "base column length")
		seedFlag = flag.Int64("seed", 42, "workload seed")
		repsFlag = flag.Int("reps", 3, "timing repetitions (best kept)")
		listFlag = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *listFlag {
		for _, e := range bench.All() {
			fmt.Printf("EXP-%s  %s\n       %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}

	cfg := bench.Config{N: *nFlag, Seed: *seedFlag, Reps: *repsFlag}
	var selected []bench.Experiment
	if *expFlag == "all" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(strings.TrimPrefix(strings.ToUpper(id), "EXP-"))
			e, ok := bench.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "lwcbench: unknown experiment %q\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	start := time.Now()
	for i, e := range selected {
		if i > 0 {
			fmt.Println()
		}
		t0 := time.Now()
		table, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lwcbench: EXP-%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Print(table.Render())
		fmt.Printf("(%.1fs)\n", time.Since(t0).Seconds())
	}
	fmt.Printf("\ntotal: %.1fs, n=%d, seed=%d\n", time.Since(start).Seconds(), cfg.N, cfg.Seed)
}
