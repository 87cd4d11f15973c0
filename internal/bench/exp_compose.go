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
		ID:    "A",
		Title: "Composition beats single schemes on shipped-order dates",
		Claim: `§I: "Applying an RLE scheme to the dates, then applying DELTA to the run values, achieves a much stronger compression ratio than any single scheme individually."`,
		Run:   runExpA,
	})
}

// runExpA compresses the §I date column under every single scheme and
// the paper's composition, across run lengths.
func runExpA(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "A",
		Title: "Composition beats single schemes on shipped-order dates",
		Claim: "composite RLE∘DELTA ≫ best single scheme; gap grows with run length",
		Headers: []string{
			"avg run", "scheme", "bytes", "ratio", "vs best single",
		},
	}

	type entry struct {
		name string
		s    core.Scheme
	}
	singles := []entry{
		{"ns", scheme.NS{}},
		{"varint", scheme.Varint{}},
		{"delta+ns", scheme.DeltaNS()},
		{"for+ns", scheme.FORComposite(1024)},
		{"rle+ns", scheme.RLEComposite()},
	}
	composites := []entry{
		{"rle(delta+ns)   [paper §I]", scheme.RLEDeltaComposite()},
	}

	for _, runLen := range []float64{16, 64, 256, 1024} {
		dates := workload.OrderShipDates(cfg.N, runLen, 730120, cfg.Seed)
		raw := len(dates) * 8

		bestSingle := 0
		sizes := map[string]int{}
		check := func(e entry) error {
			f, err := e.s.Compress(dates)
			if err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			back, err := core.Decompress(f)
			if err != nil {
				return err
			}
			if !vec.Equal(back, dates) {
				return fmt.Errorf("%s: lossy roundtrip", e.name)
			}
			sz, err := storage.EncodedSize(f)
			if err != nil {
				return err
			}
			sizes[e.name] = sz
			return nil
		}
		for _, e := range singles {
			if err := check(e); err != nil {
				return nil, err
			}
			if bestSingle == 0 || sizes[e.name] < bestSingle {
				bestSingle = sizes[e.name]
			}
		}
		for _, e := range composites {
			if err := check(e); err != nil {
				return nil, err
			}
		}

		for _, e := range append(singles, composites...) {
			sz := sizes[e.name]
			t.AddRow(
				fmt.Sprintf("%.0f", runLen),
				e.name,
				fmt.Sprintf("%d", sz),
				ratio(raw, sz),
				f2(float64(bestSingle)/float64(sz)),
			)
		}
	}
	t.Notes = append(t.Notes,
		"'vs best single' > 1 means the composite beats every non-composite scheme",
		"DELTA keeps its first value as a parameter, so NS packs the run-head deltas at their own width, not the first value's",
		fmt.Sprintf("n = %d date values per row group", cfg.N),
	)
	return t, nil
}
