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
		ID:    "M",
		Title: "Model ladder: step → linear → quadratic, with and without patches",
		Claim: `§II-B: "more generally, we would replace step functions with stepwise low-degree polynomials"; and the L0/L∞ extensions compose.`,
		Run:   runExpM,
	})
}

// runExpM fits the model ladder to three curvature classes and, on a
// spiked variant, shows the patch combinator composing with the
// linear model.
func runExpM(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "M",
		Title: "Model ladder: step → linear → quadratic, with and without patches",
		Claim: "each model enrichment pays exactly on the data class it captures; patches compose with any model",
		Headers: []string{
			"workload", "model", "resid bits", "bytes", "ratio",
		},
	}

	segLen := 1024
	quad := make([]int64, cfg.N)
	for i := range quad {
		x := float64(i % segLen)
		quad[i] = int64(0.03*x*x) + int64(i%9)
	}
	flat := workload.RandomWalk(cfg.N, 12, 1<<30, cfg.Seed)
	trend := workload.TrendNoise(cfg.N, 8, 12, cfg.Seed)

	models := []struct {
		name string
		s    core.Scheme
	}{
		{"step+ns (FOR)", scheme.StepNS(segLen)},
		{"linear+ns", scheme.LinearNS(segLen)},
		{"poly2+ns", scheme.Poly2NS(segLen)},
	}
	datasets := []struct {
		name string
		data []int64
	}{
		{"flat walk", flat},
		{"linear trend", trend},
		{"quadratic", quad},
	}
	for _, ds := range datasets {
		raw := len(ds.data) * 8
		for _, m := range models {
			f, err := m.s.Compress(ds.data)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", m.name, ds.name, err)
			}
			back, err := core.Decompress(f)
			if err != nil {
				return nil, err
			}
			if !vec.Equal(back, ds.data) {
				return nil, fmt.Errorf("%s on %s: lossy", m.name, ds.name)
			}
			resid, err := f.Child("residual")
			if err != nil {
				return nil, err
			}
			sz, err := storage.EncodedSize(f)
			if err != nil {
				return nil, err
			}
			t.AddRow(ds.name, m.name,
				fmt.Sprintf("%d", resid.Params["width"]),
				fmt.Sprintf("%d", sz), ratio(raw, sz))
		}
	}

	// Patches composing with the linear model: spiked trend.
	spiked := make([]int64, len(trend))
	copy(spiked, trend)
	for i := 97; i < len(spiked); i += 701 {
		spiked[i] += 1 << 36
	}
	raw := len(spiked) * 8
	for _, m := range []struct {
		name string
		s    core.Scheme
	}{
		{"linear+ns (unpatched)", scheme.LinearNS(segLen)},
		{"pfor (patched step)", scheme.PFORComposite(segLen)},
		{"patched linear", scheme.PatchedLinearNS(segLen)},
	} {
		f, err := m.s.Compress(spiked)
		if err != nil {
			return nil, fmt.Errorf("%s on spiked trend: %w", m.name, err)
		}
		back, err := core.Decompress(f)
		if err != nil {
			return nil, err
		}
		if !vec.Equal(back, spiked) {
			return nil, fmt.Errorf("%s on spiked trend: lossy", m.name)
		}
		sz, err := storage.EncodedSize(f)
		if err != nil {
			return nil, err
		}
		t.AddRow("spiked trend", m.name, "-", fmt.Sprintf("%d", sz), ratio(raw, sz))
	}

	t.Notes = append(t.Notes,
		"resid bits is the NS width of the residual column — the L∞ radius around each model",
		"on the spiked trend only the patched linear model keeps both the slope (L∞) and the outliers (L0) out of the residual width",
		fmt.Sprintf("segment length %d, n = %d", segLen, cfg.N),
	)
	return t, nil
}
