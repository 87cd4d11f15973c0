package bench

import (
	"fmt"

	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/storage"
	"lwcomp/internal/vec"
	"lwcomp/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "F",
		Title: "L0 patches: PFOR vs FOR across outlier rates",
		Claim: `§II-B: "For the L0 metric … we could add patches to the basic model; this would represent columns whose data is 'really' a step function, but with the occasional divergent arbitrary-value element."`,
		Run:   runExpF,
	})
}

func runExpF(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "F",
		Title: "L0 patches: PFOR vs FOR across outlier rates",
		Claim: "patching wins at low outlier rates, converges to FOR as outliers vanish, and loses its edge as they dominate",
		Headers: []string{
			"outlier rate", "for+ns bytes", "pfor bytes", "exceptions", "pfor/for", "patching wins",
		},
	}
	segLen := 1024
	for _, rate := range []float64{0, 0.0001, 0.001, 0.01, 0.05, 0.1, 0.3} {
		data := workload.OutlierWalk(cfg.N, 10, rate, 1<<38, cfg.Seed)

		forForm, err := scheme.FORComposite(segLen).Compress(data)
		if err != nil {
			return nil, err
		}
		pforForm, err := scheme.PFORComposite(segLen).Compress(data)
		if err != nil {
			return nil, err
		}
		for _, f := range []*core.Form{forForm, pforForm} {
			got, err := core.Decompress(f)
			if err != nil {
				return nil, err
			}
			if !vec.Equal(got, data) {
				return nil, fmt.Errorf("rate %.4f: lossy roundtrip", rate)
			}
		}
		positions, err := core.DecompressChild(pforForm, "positions")
		if err != nil {
			return nil, err
		}
		forSz, err := storage.EncodedSize(forForm)
		if err != nil {
			return nil, err
		}
		pforSz, err := storage.EncodedSize(pforForm)
		if err != nil {
			return nil, err
		}
		wins := "-"
		if pforSz < forSz {
			wins = "yes"
		}
		t.AddRow(
			fmt.Sprintf("%.4f", rate),
			fmt.Sprintf("%d", forSz),
			fmt.Sprintf("%d", pforSz),
			fmt.Sprintf("%d", len(positions)),
			f2(float64(pforSz)/float64(forSz)),
			wins,
		)
	}
	t.Notes = append(t.Notes,
		"a single 2^38 outlier forces FOR's offsets to ≈38 bits for the whole segment; patches keep the base narrow",
		"at rate 0 the width chooser still trims the natural tail of the offset distribution, so PFOR ≈ FOR (ratio ≈ 1)",
		fmt.Sprintf("random walk ±10/step with spikes of ≈2^38, segment length %d, n = %d", segLen, cfg.N),
	)
	return t, nil
}
