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
		ID:    "E",
		Title: "FOR ≡ (STEPFUNCTION + NS)",
		Claim: `§II-B: "FOR captures all columns which are L∞-metric-close to the evaluation of a step function (with the distance determined by the allowed width of the offsets column)".`,
		Run:   runExpE,
	})
	register(Experiment{
		ID:    "H",
		Title: "Piecewise-linear models shrink residual widths on trends",
		Claim: `§II-B: "It is appealing to consider piecewise-linear functions, i.e. keep an offset from a diagonal line at some slope rather than the offset from a horizontal step".`,
		Run:   runExpH,
	})
}

func runExpE(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "E",
		Title: "FOR ≡ (STEPFUNCTION + NS)",
		Claim: "identity holds bit-exactly; offset width (the L∞ radius) grows with segment length",
		Headers: []string{
			"seg len", "offset bits", "bytes", "ratio", "identity",
		},
	}
	data := workload.RandomWalk(cfg.N, 15, 1<<34, cfg.Seed)
	raw := len(data) * 8
	for _, segLen := range []int{64, 256, 1024, 4096, 16384} {
		forForm, err := scheme.FORComposite(segLen).Compress(data)
		if err != nil {
			return nil, err
		}
		offsets, err := forForm.Child("offsets")
		if err != nil {
			return nil, err
		}
		width := offsets.Params["width"]

		// Identity check both directions.
		plusForm, err := scheme.DecomposeFOR(forForm)
		if err != nil {
			return nil, err
		}
		a, err := core.Decompress(plusForm)
		if err != nil {
			return nil, err
		}
		identity := "holds"
		if !vec.Equal(a, data) {
			identity = "VIOLATED"
		}
		back, err := scheme.RecomposeFOR(plusForm)
		if err != nil {
			return nil, err
		}
		encA, err := storage.EncodeForm(forForm)
		if err != nil {
			return nil, err
		}
		encB, err := storage.EncodeForm(back)
		if err != nil {
			return nil, err
		}
		if string(encA) != string(encB) {
			identity = "VIOLATED (recompose)"
		}

		sz, err := storage.EncodedSize(forForm)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%d", segLen),
			fmt.Sprintf("%d", width),
			fmt.Sprintf("%d", sz),
			ratio(raw, sz),
			identity,
		)
	}
	t.Notes = append(t.Notes,
		"offset width = max bits of v − min(segment): the L∞ distance from the fitted step function",
		"short segments: tighter model, more refs; long segments: looser model, fewer refs — the ratio optimum is interior",
		fmt.Sprintf("random walk ±15/step, n = %d", cfg.N),
	)
	return t, nil
}

func runExpH(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "H",
		Title: "Piecewise-linear models shrink residual widths on trends",
		Claim: "LINEAR+NS beats FOR+NS once a slope exists; equal when flat",
		Headers: []string{
			"slope", "step resid bits", "linear resid bits", "step ratio", "linear ratio", "linear wins",
		},
	}
	segLen := 1024
	for _, slope := range []float64{0, 0.5, 2, 8, 32} {
		data := workload.TrendNoise(cfg.N, slope, 12, cfg.Seed)
		raw := len(data) * 8

		stepForm, err := scheme.StepNS(segLen).Compress(data)
		if err != nil {
			return nil, err
		}
		linForm, err := scheme.LinearNS(segLen).Compress(data)
		if err != nil {
			return nil, err
		}
		for _, f := range []*core.Form{stepForm, linForm} {
			got, err := core.Decompress(f)
			if err != nil {
				return nil, err
			}
			if !vec.Equal(got, data) {
				return nil, fmt.Errorf("slope %.1f: lossy model roundtrip", slope)
			}
		}
		stepResid, err := stepForm.Child("residual")
		if err != nil {
			return nil, err
		}
		linResid, err := linForm.Child("residual")
		if err != nil {
			return nil, err
		}
		stepSz, err := storage.EncodedSize(stepForm)
		if err != nil {
			return nil, err
		}
		linSz, err := storage.EncodedSize(linForm)
		if err != nil {
			return nil, err
		}
		wins := "-"
		if linSz < stepSz {
			wins = "yes"
		}
		t.AddRow(
			fmt.Sprintf("%.1f", slope),
			fmt.Sprintf("%d", stepResid.Params["width"]),
			fmt.Sprintf("%d", linResid.Params["width"]),
			ratio(raw, stepSz),
			ratio(raw, linSz),
			wins,
		)
	}
	t.Notes = append(t.Notes,
		"step residual width grows as log2(slope·seglen); linear residual width stays at the noise amplitude",
		fmt.Sprintf("noise ±12, segment length %d, n = %d", segLen, cfg.N),
	)
	return t, nil
}
