package bench

import (
	"fmt"

	"lwcomp"
	"lwcomp/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "R",
		Title: "Statistics-driven encode: estimate-pruned search vs exhaustive trial compression",
		Claim: "ranking candidates by a size-estimating cost model and trial-encoding only the top few preserves the exhaustive search's choices (≤1.05x bits) while encoding several times faster (this repo's extension)",
		Run:   runExpR,
	})
}

func runExpR(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "R",
		Title: "Statistics-driven encode: estimate-pruned search vs exhaustive trial compression",
		Claim: "the pruned analyzer matches exhaustive choices at a fraction of the encode cost",
		Headers: []string{
			"workload", "chosen scheme", "pruned MB/s", "exhaustive MB/s", "speedup", "size ratio",
		},
	}
	workloads := []struct {
		name string
		data []int64
	}{
		{"ship dates (runs 64)", workload.OrderShipDates(cfg.N, 64, 730120, cfg.Seed)},
		{"random walk ±10", workload.RandomWalk(cfg.N, 10, 1<<33, cfg.Seed)},
		{"outlier walk 1%", workload.OutlierWalk(cfg.N, 10, 0.01, 1<<38, cfg.Seed)},
		{"trend slope 8", workload.TrendNoise(cfg.N, 8, 12, cfg.Seed)},
		{"low card 32", workload.LowCardinality(cfg.N, 32, cfg.Seed)},
		{"skewed widths", workload.SkewedMagnitude(cfg.N, 40, cfg.Seed)},
		{"uniform 12-bit", workload.UniformBits(cfg.N, 12, cfg.Seed)},
		{"sorted", workload.Sorted(cfg.N, 1<<40, cfg.Seed)},
	}

	encodeOpts := func(exhaustive bool) []lwcomp.Option {
		opts := []lwcomp.Option{lwcomp.WithBlockSize(1 << 16), lwcomp.WithParallelism(1)}
		if exhaustive {
			opts = append(opts, lwcomp.WithExhaustiveSearch())
		}
		return opts
	}

	mbps := func(n int, secs float64) string {
		return fmt.Sprintf("%.0f", float64(n)*8/secs/1e6)
	}

	for _, w := range workloads {
		var prunedCol, exhaustiveCol *lwcomp.Column
		dPruned, err := timeBest(cfg.Reps, func() error {
			c, err := lwcomp.Encode(w.data, encodeOpts(false)...)
			prunedCol = c
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: pruned: %w", w.name, err)
		}
		dExh, err := timeBest(cfg.Reps, func() error {
			c, err := lwcomp.Encode(w.data, encodeOpts(true)...)
			exhaustiveCol = c
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: exhaustive: %w", w.name, err)
		}
		back, err := prunedCol.Decompress()
		if err != nil {
			return nil, fmt.Errorf("%s: decompress: %w", w.name, err)
		}
		for i := range back {
			if back[i] != w.data[i] {
				return nil, fmt.Errorf("%s: pruned encode is lossy at row %d", w.name, i)
			}
		}
		prunedBits := prunedCol.EncodedBits()
		exhBits := exhaustiveCol.EncodedBits()
		allocs, err := allocsPerRun(3, func() error {
			_, err := lwcomp.Encode(w.data, encodeOpts(false)...)
			return err
		})
		if err != nil {
			return nil, err
		}

		desc := prunedCol.BlockSchemes()[0]
		t.AddRow(
			w.name,
			desc,
			mbps(cfg.N, dPruned.Seconds()),
			mbps(cfg.N, dExh.Seconds()),
			f2(dExh.Seconds()/dPruned.Seconds()),
			f2(float64(prunedBits)/float64(exhBits)),
		)
		t.AddMetric("encode/"+w.name+"/pruned", cfg.N, dPruned, allocs)
		t.AddMetric("encode/"+w.name+"/exhaustive", cfg.N, dExh, 0)
	}
	t.Notes = append(t.Notes,
		"single worker, 64Ki blocks; 'size ratio' = pruned bits / exhaustive bits (≤ 1.05 is the acceptance bound)",
		"'exhaustive' lets no heuristic estimate exclude a candidate: every size is proved from the block stats or measured by compressing",
		fmt.Sprintf("n = %d per workload, seed = %d", cfg.N, cfg.Seed),
	)
	return t, nil
}
