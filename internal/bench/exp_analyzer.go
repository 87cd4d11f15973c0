package bench

import (
	"fmt"

	"lwcomp/internal/blocked"
	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/storage"
	"lwcomp/internal/vec"
	"lwcomp/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "K",
		Title: "The richer scheme space pays: analyzer vs best single scheme",
		Claim: `§I: the paper argues "for a richer view of the space of lightweight compression schemes"; searching compositions must dominate any fixed single scheme.`,
		Run:   runExpK,
	})
}

func runExpK(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "K",
		Title: "The richer scheme space pays: analyzer vs best single scheme",
		Claim: "the analyzer's composite choice is never worse than the best terminal scheme, and is often far better",
		Headers: []string{
			"workload", "chosen scheme", "ratio", "best single", "single ratio", "gain",
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
		{"constant", workload.UniformBits(cfg.N, 0, cfg.Seed)},
	}
	// Terminal (single, non-composite) baselines.
	singles := []core.Scheme{scheme.NS{}, scheme.Varint{}, scheme.Elias{}, scheme.ID{}}

	for _, w := range workloads {
		raw := len(w.data) * 8
		choice, _, _, err := blocked.Search(w.data, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		back, err := core.Decompress(choice.Form)
		if err != nil {
			return nil, err
		}
		if !vec.Equal(back, w.data) {
			return nil, fmt.Errorf("%s: winner %q lossy", w.name, choice.Desc)
		}
		chosenSz, err := storage.EncodedSize(choice.Form)
		if err != nil {
			return nil, err
		}

		bestSingleName := ""
		bestSingleSz := 0
		for _, s := range singles {
			f, err := s.Compress(w.data)
			if err != nil {
				continue
			}
			sz, err := storage.EncodedSize(f)
			if err != nil {
				return nil, err
			}
			if bestSingleSz == 0 || sz < bestSingleSz {
				bestSingleSz = sz
				bestSingleName = s.Name()
			}
		}
		t.AddRow(
			w.name,
			choice.Desc,
			ratio(raw, chosenSz),
			bestSingleName,
			ratio(raw, bestSingleSz),
			f2(float64(bestSingleSz)/float64(chosenSz)),
		)
	}
	t.Notes = append(t.Notes,
		"'gain' = best-single bytes / chosen bytes; ≥ 1.00 everywhere is the claim under test",
		fmt.Sprintf("n = %d per workload; analyzer samples the first %d values", cfg.N, blocked.SearchSample),
	)
	return t, nil
}
