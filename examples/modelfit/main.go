// Model fitting: the paper's §II-B generalizations in action, on
// the blocked Column API.
//
// A metering column (rising trend + noise + rare spikes) is
// compressed under progressively richer models:
//
//   - FOR            = step-function model + NS residuals (L∞)
//   - LINEAR + NS    = piecewise-linear model (the paper's "diagonal
//     line at some slope")
//   - PFOR           = step model + NS + L0 patches for the spikes
//
// and then queried approximately: the model alone gives certain
// bounds on SUM, refined gradually to exactness — the paper's
// "approximate or gradual-refinement query processing".
//
//	go run ./examples/modelfit
package main

import (
	"fmt"
	"log"

	"lwcomp"
	"lwcomp/internal/workload"
)

func main() {
	const n = 1 << 20

	// Sensor readings: slope 8 per tick, ±12 noise.
	base := workload.TrendNoise(n, 8, 12, 5)

	ladder := func(title string, data []int64, schemes []lwcomp.Scheme) {
		fmt.Println(title)
		fmt.Printf("%-48s %12s %8s\n", "scheme", "bytes", "ratio")
		for _, s := range schemes {
			col, err := lwcomp.Encode(data, lwcomp.WithScheme(s))
			if err != nil {
				log.Fatal(err)
			}
			back, err := col.Decompress()
			if err != nil {
				log.Fatal(err)
			}
			for i := range data {
				if back[i] != data[i] {
					log.Fatalf("%s: lossy at %d", s.Name(), i)
				}
			}
			size := int(col.EncodedBits() / 8)
			fmt.Printf("%-48s %12d %8.1f\n", s.Name(), size, float64(n*8)/float64(size))
		}
		fmt.Println()
	}

	// On the smooth trend, a horizontal step model pays log2(slope·ℓ)
	// bits per offset; a linear model pays only the noise width.
	ladder("smooth trend (slope 8, noise ±12): step vs linear model",
		base, []lwcomp.Scheme{
			lwcomp.NS(),
			lwcomp.FORNS(1024),
			lwcomp.LinearNS(1024),
		})

	// Add rare spikes (0.1%): any pure L∞ model is ruined — the L0
	// patch combinator isolates them.
	readings := make([]int64, n)
	copy(readings, base)
	for i := 500; i < n; i += 1000 {
		readings[i] += 1 << 30
	}
	ladder("same trend + 0.1% spikes of 2^30: patches restore the model",
		readings, []lwcomp.Scheme{
			lwcomp.FORNS(1024),
			lwcomp.PFOR(1024),
		})

	// Approximate aggregation on the smooth part, over a *blocked*
	// column: per-block model bounds aggregate by interval
	// arithmetic, no offsets decoded anywhere.
	smooth := base
	col, err := lwcomp.Encode(smooth,
		lwcomp.WithBlockSize(1<<16),
		lwcomp.WithScheme(lwcomp.FORNS(1024)))
	if err != nil {
		log.Fatal(err)
	}
	var truth int64
	for _, v := range smooth {
		truth += v
	}

	iv, err := col.ApproxSum()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("approximate SUM from the step models only (%d blocks, no offsets decoded):\n", col.NumBlocks())
	fmt.Printf("  sum ∈ [%d, %d], midpoint off by %.4f%%\n",
		iv.Lower, iv.Upper,
		100*abs(float64(iv.Estimate()-truth))/float64(truth))

	// Gradual refinement runs at form level on one block's FOR form.
	form, err := lwcomp.FORNS(1024).Compress(smooth)
	if err != nil {
		log.Fatal(err)
	}
	g, err := lwcomp.NewGradualSummer(form)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ngradual refinement (segments decoded → interval width):")
	fmt.Printf("  %4d/%4d segments: width %d\n", g.Refined(), g.Segments(), g.Bounds().Width())
	for !g.Done() {
		if _, err := g.Refine(g.Segments() / 4); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %4d/%4d segments: width %d\n", g.Refined(), g.Segments(), g.Bounds().Width())
	}
	final := g.Bounds()
	if final.Lower != truth || final.Width() != 0 {
		log.Fatalf("gradual sum did not converge: %+v vs %d", final, truth)
	}
	fmt.Printf("  exact sum recovered: %d\n", final.Lower)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
