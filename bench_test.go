// Benchmarks, one per reproduction experiment (EXP-A … EXP-M; see
// DESIGN.md §2), the per-code-path benchmarks DESIGN.md §2 maps the
// system's own perf checks onto (blocked, fused, lazy, table, encode,
// compact), and micro-benchmarks of the NS kernels. Run:
//
//	go test -bench=. -benchmem
//
// The paper's experiment *tables* (ratios, crossovers, pruning counts)
// are produced by cmd/lwcbench; the benchmarks here measure code paths
// under the Go benchmark harness, reporting ns/op, MB/s-style element
// throughput and allocations.
package lwcomp_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"lwcomp"
	"lwcomp/internal/bitpack"
	"lwcomp/internal/compact"
	"lwcomp/internal/core"
	"lwcomp/internal/query"
	"lwcomp/internal/scheme"
	"lwcomp/internal/sel"
	"lwcomp/internal/vec"
	"lwcomp/internal/workload"
)

// benchN is the column length benchmarks operate on.
const benchN = 1 << 18

// reportElems reports element throughput.
func reportElems(b *testing.B, n int) {
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Melem/s")
}

// BenchmarkEXPA_Composition measures compression of the §I dates
// column under the single schemes and the paper's composition (table:
// lwcbench -exp A).
func BenchmarkEXPA_Composition(b *testing.B) {
	dates := workload.OrderShipDates(benchN, 64, 730120, 1)
	for _, tc := range []struct {
		name string
		s    lwcomp.Scheme
	}{
		{"ns", lwcomp.NS()},
		{"delta+ns", scheme.DeltaNS()},
		{"rle+ns", lwcomp.RLENS()},
		{"rle-delta", lwcomp.RLEDeltaNS()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var form *lwcomp.Form
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				form, err = tc.s.Compress(dates)
				if err != nil {
					b.Fatal(err)
				}
			}
			sz, err := lwcomp.EncodedSize(form)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(benchN*8)/float64(sz), "ratio")
			reportElems(b, benchN)
		})
	}
}

// benchDecompressRoutes benches kernel vs literal plan vs fused plan
// decompression of one form (EXP-B for RLE, EXP-D for FOR).
func benchDecompressRoutes(b *testing.B, form *lwcomp.Form, want []int64) {
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := lwcomp.Decompress(form)
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != len(want) {
				b.Fatal("length mismatch")
			}
		}
		reportElems(b, len(want))
	})
	b.Run("plan-literal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lwcomp.DecompressViaPlan(form, false); err != nil {
				b.Fatal(err)
			}
		}
		reportElems(b, len(want))
	})
	b.Run("plan-fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lwcomp.DecompressViaPlan(form, true); err != nil {
				b.Fatal(err)
			}
		}
		reportElems(b, len(want))
	})
}

// BenchmarkEXPB_RLEAlgorithm1 measures RLE decompression through the
// fused kernel, the literal Algorithm 1 plan, and the idiom-fused
// plan (table: lwcbench -exp B).
func BenchmarkEXPB_RLEAlgorithm1(b *testing.B) {
	data := workload.Runs(benchN, 64, 1<<16, 1)
	form, err := lwcomp.RLE().Compress(data)
	if err != nil {
		b.Fatal(err)
	}
	benchDecompressRoutes(b, form, data)
}

// BenchmarkEXPC_RLEvsRPE measures the ratio-for-ease trade: RPE
// decompresses without Algorithm 1's first prefix sum (table:
// lwcbench -exp C).
func BenchmarkEXPC_RLEvsRPE(b *testing.B) {
	data := workload.Runs(benchN, 64, 1<<20, 1)
	rleForm, err := lwcomp.RLENS().Compress(data)
	if err != nil {
		b.Fatal(err)
	}
	rpeForm, err := scheme.RPEComposite().Compress(data)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		form *lwcomp.Form
	}{{"rle", rleForm}, {"rpe", rpeForm}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lwcomp.Decompress(tc.form); err != nil {
					b.Fatal(err)
				}
			}
			sz, err := lwcomp.EncodedSize(tc.form)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(benchN*8)/float64(sz), "ratio")
			reportElems(b, benchN)
		})
	}
}

// BenchmarkEXPD_FORAlgorithm2 measures FOR decompression through the
// three routes (table: lwcbench -exp D).
func BenchmarkEXPD_FORAlgorithm2(b *testing.B) {
	data := workload.RandomWalk(benchN, 20, 1<<30, 1)
	form, err := lwcomp.FOR(1024).Compress(data)
	if err != nil {
		b.Fatal(err)
	}
	benchDecompressRoutes(b, form, data)
}

// BenchmarkEXPE_FORDecomposition measures decompression of a FOR form
// and of its STEP+NS decomposition — the identity must also cost the
// same (table: lwcbench -exp E).
func BenchmarkEXPE_FORDecomposition(b *testing.B) {
	data := workload.RandomWalk(benchN, 15, 1<<34, 1)
	forForm, err := lwcomp.FORNS(1024).Compress(data)
	if err != nil {
		b.Fatal(err)
	}
	plusForm, err := lwcomp.DecomposeFOR(forForm)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		form *lwcomp.Form
	}{{"for", forForm}, {"step-plus-ns", plusForm}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lwcomp.Decompress(tc.form); err != nil {
					b.Fatal(err)
				}
			}
			reportElems(b, benchN)
		})
	}
}

// BenchmarkEXPF_Patching measures FOR vs PFOR on 1%-outlier data,
// compress and decompress (table: lwcbench -exp F).
func BenchmarkEXPF_Patching(b *testing.B) {
	data := workload.OutlierWalk(benchN, 10, 0.01, 1<<38, 1)
	for _, tc := range []struct {
		name string
		s    lwcomp.Scheme
	}{{"for+ns", lwcomp.FORNS(1024)}, {"pfor", lwcomp.PFOR(1024)}} {
		form, err := tc.s.Compress(data)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/compress", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tc.s.Compress(data); err != nil {
					b.Fatal(err)
				}
			}
			reportElems(b, benchN)
		})
		b.Run(tc.name+"/decompress", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lwcomp.Decompress(form); err != nil {
					b.Fatal(err)
				}
			}
			reportElems(b, benchN)
		})
	}
}

// BenchmarkEXPG_VariableWidth measures decode throughput across the
// width-granularity spectrum (table: lwcbench -exp G).
func BenchmarkEXPG_VariableWidth(b *testing.B) {
	data := workload.SkewedMagnitude(benchN, 40, 1)
	for _, tc := range []struct {
		name string
		s    lwcomp.Scheme
	}{
		{"ns", lwcomp.NS()},
		{"vns-128", lwcomp.VNS(128)},
		{"varint", lwcomp.Varint()},
		{"elias", lwcomp.Elias()},
	} {
		form, err := tc.s.Compress(data)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lwcomp.Decompress(form); err != nil {
					b.Fatal(err)
				}
			}
			sz, err := lwcomp.EncodedSize(form)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(benchN*8)/float64(sz), "ratio")
			reportElems(b, benchN)
		})
	}
}

// BenchmarkEXPH_Models measures step vs linear model fitting on a
// trend (table: lwcbench -exp H).
func BenchmarkEXPH_Models(b *testing.B) {
	data := workload.TrendNoise(benchN, 8, 12, 1)
	for _, tc := range []struct {
		name string
		s    lwcomp.Scheme
	}{{"step+ns", lwcomp.StepNS(1024)}, {"linear+ns", lwcomp.LinearNS(1024)}} {
		b.Run(tc.name, func(b *testing.B) {
			var form *lwcomp.Form
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				form, err = tc.s.Compress(data)
				if err != nil {
					b.Fatal(err)
				}
			}
			sz, err := lwcomp.EncodedSize(form)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(benchN*8)/float64(sz), "ratio")
			reportElems(b, benchN)
		})
	}
}

// BenchmarkEXPI_PrunedSelection measures the model-pruned range
// selection against decompress-then-filter at 1% selectivity (table:
// lwcbench -exp I).
func BenchmarkEXPI_PrunedSelection(b *testing.B) {
	data := workload.Sorted(benchN, 1<<40, 1)
	form, err := lwcomp.FORNS(1024).Compress(data)
	if err != nil {
		b.Fatal(err)
	}
	lo := data[benchN/2]
	hi := data[benchN/2+benchN/100]
	b.Run("pruned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lwcomp.SelectRange(form, lo, hi); err != nil {
				b.Fatal(err)
			}
		}
		reportElems(b, benchN)
	})
	b.Run("decompress-filter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			col, err := lwcomp.Decompress(form)
			if err != nil {
				b.Fatal(err)
			}
			_ = vec.SelectRange(col, lo, hi)
		}
		reportElems(b, benchN)
	})
}

// BenchmarkEXPJ_ApproxSum measures model-only bounds vs gradual
// refinement vs the exact fused sum (table: lwcbench -exp J).
func BenchmarkEXPJ_ApproxSum(b *testing.B) {
	data := workload.RandomWalk(benchN, 12, 1<<33, 1)
	form, err := lwcomp.FORNS(1024).Compress(data)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("model-only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lwcomp.ApproxSum(form); err != nil {
				b.Fatal(err)
			}
		}
		reportElems(b, benchN)
	})
	b.Run("gradual-to-exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := lwcomp.NewGradualSummer(form)
			if err != nil {
				b.Fatal(err)
			}
			for !g.Done() {
				if _, err := g.Refine(64); err != nil {
					b.Fatal(err)
				}
			}
		}
		reportElems(b, benchN)
	})
	b.Run("exact-sum", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lwcomp.Sum(form); err != nil {
				b.Fatal(err)
			}
		}
		reportElems(b, benchN)
	})
}

// BenchmarkEXPK_Analyzer measures the full scheme-space search on the
// dates workload (table: lwcbench -exp K).
func BenchmarkEXPK_Analyzer(b *testing.B) {
	data := workload.OrderShipDates(benchN, 64, 730120, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lwcomp.CompressBest(data); err != nil {
			b.Fatal(err)
		}
	}
	reportElems(b, benchN)
}

// BenchmarkEXPL_SumOnRLE measures SUM over runs vs
// decompress-then-scan vs plain scan (table: lwcbench -exp L).
func BenchmarkEXPL_SumOnRLE(b *testing.B) {
	data := workload.Runs(benchN, 256, 1<<16, 1)
	form, err := lwcomp.RLENS().Compress(data)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := query.Sum(form); err != nil {
				b.Fatal(err)
			}
		}
		reportElems(b, benchN)
	})
	b.Run("decompress-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			col, err := core.Decompress(form)
			if err != nil {
				b.Fatal(err)
			}
			_ = vec.Sum(col)
		}
		reportElems(b, benchN)
	})
	b.Run("plain-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = vec.Sum(data)
		}
		reportElems(b, benchN)
	})
}

// BenchmarkTreePlan measures whole-tree plan decompression of the §I
// composite (RLE over DELTA over NS) against per-node kernels — the
// "composition happens in the plan algebra" ablation.
func BenchmarkTreePlan(b *testing.B) {
	dates := workload.OrderShipDates(benchN, 64, 730120, 1)
	form, err := lwcomp.RLEDeltaNS().Compress(dates)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("kernels", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lwcomp.Decompress(form); err != nil {
				b.Fatal(err)
			}
		}
		reportElems(b, benchN)
	})
	b.Run("tree-plan-literal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lwcomp.DecompressViaTreePlan(form, false); err != nil {
				b.Fatal(err)
			}
		}
		reportElems(b, benchN)
	})
	b.Run("tree-plan-fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lwcomp.DecompressViaTreePlan(form, true); err != nil {
				b.Fatal(err)
			}
		}
		reportElems(b, benchN)
	})
}

// BenchmarkBitpack measures the generated NS kernels at
// representative widths — the scalar stand-ins for the paper
// lineage's SIMD kernels (DESIGN.md, hardware substitution).
func BenchmarkBitpack(b *testing.B) {
	for _, w := range []uint{1, 4, 8, 16, 32, 64} {
		src := make([]uint64, benchN)
		for i := range src {
			src[i] = uint64(i) & bitpack.Mask(w)
		}
		packed, err := bitpack.Pack(src, w)
		if err != nil {
			b.Fatal(err)
		}
		dst := make([]uint64, benchN)
		b.Run("unpack-w"+itoa(int(w)), func(b *testing.B) {
			b.SetBytes(int64(benchN * 8))
			for i := 0; i < b.N; i++ {
				if err := bitpack.UnpackInto(dst, packed, w); err != nil {
					b.Fatal(err)
				}
			}
			reportElems(b, benchN)
		})
		b.Run("pack-w"+itoa(int(w)), func(b *testing.B) {
			b.SetBytes(int64(benchN * 8))
			for i := 0; i < b.N; i++ {
				if _, err := bitpack.Pack(src, w); err != nil {
					b.Fatal(err)
				}
			}
			reportElems(b, benchN)
		})
	}
}

// BenchmarkBlockedEncode compares whole-column encode against
// blocked encode at 1, 4 and NumCPU workers. The column mixes
// run-heavy, noisy and sorted regions so per-block re-composition has
// something to win.
func BenchmarkBlockedEncode(b *testing.B) {
	third := benchN / 3
	data := append(workload.OrderShipDates(third, 256, 730120, 1),
		workload.UniformBits(third, 40, 2)...)
	data = append(data, workload.Sorted(benchN-2*third, 1<<40, 3)...)

	b.Run("whole-column", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lwcomp.Encode(data); err != nil {
				b.Fatal(err)
			}
		}
		reportElems(b, len(data))
	})
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		b.Run("blocked-64Ki/workers-"+itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := lwcomp.Encode(data,
					lwcomp.WithBlockSize(1<<16),
					lwcomp.WithParallelism(workers))
				if err != nil {
					b.Fatal(err)
				}
			}
			reportElems(b, len(data))
		})
	}
}

// BenchmarkBlockedSelectRange measures a narrow range selection on a
// blocked sorted column with the [min,max] block index active and
// with it disabled — the block-skipping ablation.
func BenchmarkBlockedSelectRange(b *testing.B) {
	data := workload.Sorted(benchN, 1<<40, 1)
	col, err := lwcomp.Encode(data, lwcomp.WithBlockSize(1<<12))
	if err != nil {
		b.Fatal(err)
	}
	// Same column with stats stripped: every block must be consulted.
	noSkip := &lwcomp.Column{N: col.N, BlockSize: col.BlockSize}
	for _, blk := range col.Blocks {
		blk.HasStats = false
		noSkip.Blocks = append(noSkip.Blocks, blk)
	}
	lo := data[benchN/2]
	hi := data[benchN/2+benchN/100]
	want, err := col.SelectRange(lo, hi)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		c    *lwcomp.Column
	}{{"skipping", col}, {"no-skipping", noSkip}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var rows []int64
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = tc.c.SelectRange(lo, hi)
				if err != nil {
					b.Fatal(err)
				}
			}
			if len(rows) != len(want) {
				b.Fatalf("%d rows, want %d", len(rows), len(want))
			}
			reportElems(b, benchN)
		})
		// The bitmap boundary: same scan without the []int64
		// conversion — the steady-state zero-allocation path.
		b.Run(tc.name+"-sel", func(b *testing.B) {
			b.ReportAllocs()
			count := 0
			for i := 0; i < b.N; i++ {
				bm, err := tc.c.SelectRangeSel(lo, hi)
				if err != nil {
					b.Fatal(err)
				}
				count = bm.Count()
				bm.Release()
			}
			if count != len(want) {
				b.Fatalf("%d rows, want %d", count, len(want))
			}
			reportElems(b, benchN)
		})
	}
}

// BenchmarkBlockedSelectAllRuns is the blockAll regression pin: a
// range covering the whole column must emit each block as one run —
// O(blocks + rows/64) word fills — rather than one append per row.
// The "sel" variant is the run-emission path alone; "rows" adds the
// one []int64 materialization at the public boundary.
func BenchmarkBlockedSelectAllRuns(b *testing.B) {
	data := workload.Sorted(benchN, 1<<40, 1)
	col, err := lwcomp.Encode(data, lwcomp.WithBlockSize(1<<12))
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := data[0], data[benchN-1]
	b.Run("sel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bm, err := col.SelectRangeSel(lo, hi)
			if err != nil {
				b.Fatal(err)
			}
			if bm.Count() != benchN {
				b.Fatal("whole-range scan missed rows")
			}
			bm.Release()
		}
		reportElems(b, benchN)
	})
	b.Run("rows", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := col.SelectRange(lo, hi)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) != benchN {
				b.Fatal("whole-range scan missed rows")
			}
		}
		reportElems(b, benchN)
	})
}

// BenchmarkFusedScan measures the fused unpack-and-compare scan of an
// NS form against decompress-then-filter: the fused path touches only
// the packed words and allocates nothing.
func BenchmarkFusedScan(b *testing.B) {
	data := workload.UniformBits(benchN, 20, 1)
	form, err := lwcomp.NS().Compress(data)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := int64(1)<<18, int64(1)<<19
	b.Run("count-fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := query.CountRange(form, lo, hi); err != nil {
				b.Fatal(err)
			}
		}
		reportElems(b, benchN)
	})
	b.Run("count-decompress-filter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			col, err := lwcomp.Decompress(form)
			if err != nil {
				b.Fatal(err)
			}
			_ = vec.CountRange(col, lo, hi)
		}
		reportElems(b, benchN)
	})
	bm := lwcomp.NewSelection(benchN)
	b.Run("select-fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bm.Reset(benchN)
			if err := query.SelectRangeSel(form, lo, hi, bm, 0); err != nil {
				b.Fatal(err)
			}
		}
		reportElems(b, benchN)
	})
	b.Run("select-decompress-filter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			col, err := lwcomp.Decompress(form)
			if err != nil {
				b.Fatal(err)
			}
			_ = vec.SelectRange(col, lo, hi)
		}
		reportElems(b, benchN)
	})
}

// BenchmarkParallelScan measures block-parallel CountRange and
// SelectRangeSel on a column whose every block straddles the range
// (uniform noise), at 1 worker vs NumCPU workers.
func BenchmarkParallelScan(b *testing.B) {
	data := workload.UniformBits(benchN, 30, 2)
	lo, hi := int64(1)<<28, int64(1)<<29
	for _, workers := range []int{1, runtime.NumCPU()} {
		col, err := lwcomp.Encode(data,
			lwcomp.WithBlockSize(1<<13),
			lwcomp.WithParallelism(workers))
		if err != nil {
			b.Fatal(err)
		}
		b.Run("count/workers-"+itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := col.CountRange(lo, hi); err != nil {
					b.Fatal(err)
				}
			}
			reportElems(b, benchN)
		})
		b.Run("select/workers-"+itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bm, err := col.SelectRangeSel(lo, hi)
				if err != nil {
					b.Fatal(err)
				}
				bm.Release()
			}
			reportElems(b, benchN)
		})
	}
}

// BenchmarkConcurrentScans runs CountRange from GOMAXPROCS callers at
// once (b.RunParallel) over a column of 32 straddling blocks, more than
// there are cores: a server whose cores are all busy with queries,
// where a scan should start no helper to compete with another scan.
func BenchmarkConcurrentScans(b *testing.B) {
	data := workload.UniformBits(benchN, 30, 2)
	lo, hi := int64(1)<<28, int64(1)<<29
	col, err := lwcomp.Encode(data, lwcomp.WithBlockSize(1<<13))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := col.CountRange(lo, hi); err != nil {
				b.Error(err)
				return
			}
		}
	})
	reportElems(b, benchN)
}

// BenchmarkBlockedDecompress measures block-parallel decompression
// at 1 worker vs NumCPU workers.
func BenchmarkBlockedDecompress(b *testing.B) {
	data := workload.OrderShipDates(benchN, 64, 730120, 1)
	for _, workers := range []int{1, runtime.NumCPU()} {
		col, err := lwcomp.Encode(data,
			lwcomp.WithBlockSize(1<<14),
			lwcomp.WithParallelism(workers))
		if err != nil {
			b.Fatal(err)
		}
		b.Run("workers-"+itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := col.Decompress()
				if err != nil {
					b.Fatal(err)
				}
				if len(got) != benchN {
					b.Fatal("length mismatch")
				}
			}
			reportElems(b, benchN)
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [4]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkLazyOpen measures the file-backed path: cold open + point
// lookup (header, index and one block read per iteration), the warm
// cached lookup, and the eager whole-file baseline it replaces.
func BenchmarkLazyOpen(b *testing.B) {
	src := workload.OrderShipDates(1<<20, 64, 730120, 42)
	col, err := lwcomp.Encode(src, lwcomp.WithBlockSize(1<<16))
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.lwc")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := lwcomp.WriteColumns(f, []lwcomp.NamedColumn{{Name: "c", Col: col}}); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	row := int64(len(src) - 3)
	want := src[row]

	b.Run("cold-open-point", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := lwcomp.OpenFile(path)
			if err != nil {
				b.Fatal(err)
			}
			v, err := c.PointLookup(row)
			if err != nil || v != want {
				b.Fatalf("lookup = %d, %v", v, err)
			}
			c.Close()
		}
	})
	b.Run("warm-point", func(b *testing.B) {
		c, err := lwcomp.OpenFile(path)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		if _, err := c.PointLookup(row); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := c.PointLookup(row)
			if err != nil || v != want {
				b.Fatalf("lookup = %d, %v", v, err)
			}
		}
	})
	b.Run("eager-read-point", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rf, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			cols, err := lwcomp.ReadColumns(rf)
			rf.Close()
			if err != nil {
				b.Fatal(err)
			}
			v, err := cols[0].Col.PointLookup(row)
			if err != nil || v != want {
				b.Fatalf("lookup = %d, %v", v, err)
			}
		}
	})
}

// BenchmarkLazyHotScan measures a count over a lazily opened container
// whose every block is already in the block cache — the steady state
// of a served hot table: per block, one cache lookup and the pushed-down
// verb (the fused kernel on the ns column's words; on the patch column
// the same kernel over the base's for(ns) offsets plus a fix-up at the
// exceptions), with no payload parse and no per-query garbage. The
// patch-sum case is SumWhere over the predicate's own column: the sum
// verb down the same form.
func BenchmarkLazyHotScan(b *testing.B) {
	ctx := context.Background()
	_, _, _, data := cacheFixture(b, benchN, 1<<14)
	tbl, err := lwcomp.OpenTableReader(bytes.NewReader(data), int64(len(data)), lwcomp.WithParallelism(1))
	if err != nil {
		b.Fatal(err)
	}
	defer tbl.Close()
	for _, tc := range []struct {
		name string
		e    lwcomp.Expr
		sum  string
	}{
		{"ns", lwcomp.Range("qty", 9000, 41000), ""},
		{"patch", lwcomp.Range("price", 100, 700), ""},
		{"patch-sum", lwcomp.Range("price", 100, 700), "price"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			scan := func() (int64, error) {
				if tc.sum == "" {
					return tbl.CountWhere(ctx, tc.e)
				}
				_, n, err := tbl.SumWhere(ctx, tc.e, tc.sum)
				return n, err
			}
			if _, err := scan(); err != nil { // the warm pass
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n, err := scan(); err != nil || n == 0 {
					b.Fatalf("matched = %d, %v", n, err)
				}
			}
			reportElems(b, benchN)
		})
	}
}

// BenchmarkEncodeScheme measures the pooled fixed-scheme block
// encode path (ISSUE 5): per-worker scratch arenas make steady-state
// encode allocate only the retained forms, so throughput here is the
// kernel cost, not the allocator's.
func BenchmarkEncodeScheme(b *testing.B) {
	for _, tc := range []struct {
		name   string
		data   []int64
		scheme lwcomp.Scheme
	}{
		{"ns", workload.UniformBits(benchN, 20, 1), lwcomp.NS()},
		{"vns", workload.SkewedMagnitude(benchN, 40, 2), lwcomp.VNS(128)},
		{"for+ns", workload.RandomWalk(benchN, 12, 1<<30, 3), lwcomp.FORNS(1024)},
		{"rle+ns", workload.Runs(benchN, 64, 1<<16, 4), lwcomp.RLENS()},
		{"rle-delta", workload.OrderShipDates(benchN, 64, 730120, 5), lwcomp.RLEDeltaNS()},
		{"dict+ns", workload.LowCardinality(benchN, 32, 6), lwcomp.DictNS()},
		{"pfor", workload.OutlierWalk(benchN, 10, 0.01, 1<<38, 7), lwcomp.PFOR(1024)},
		{"linear+ns", workload.TrendNoise(benchN, 8, 12, 8), lwcomp.LinearNS(1024)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(benchN * 8))
			for i := 0; i < b.N; i++ {
				_, err := lwcomp.Encode(tc.data,
					lwcomp.WithBlockSize(1<<16),
					lwcomp.WithParallelism(1),
					lwcomp.WithScheme(tc.scheme))
				if err != nil {
					b.Fatal(err)
				}
			}
			reportElems(b, benchN)
		})
	}
}

// BenchmarkWholeColumnCodec measures the whole-column API —
// Scheme.Compress and lwcomp.Decompress on one 65,536-value column,
// no blocks, no caller-held scratch — which runs the same codec
// bodies as the blocked path.
func BenchmarkWholeColumnCodec(b *testing.B) {
	const n = 1 << 16
	for _, tc := range []struct {
		name   string
		data   []int64
		scheme lwcomp.Scheme
	}{
		{"dict+ns", workload.LowCardinality(n, 32, 6), lwcomp.DictNS()},
		{"for+ns", workload.RandomWalk(n, 12, 1<<30, 3), lwcomp.FORNS(1024)},
		{"pfor", workload.OutlierWalk(n, 10, 0.01, 1<<38, 7), lwcomp.PFOR(1024)},
		{"rle-delta", workload.OrderShipDates(n, 64, 730120, 5), lwcomp.RLEDeltaNS()},
	} {
		form, err := tc.scheme.Compress(tc.data)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/compress", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tc.scheme.Compress(tc.data); err != nil {
					b.Fatal(err)
				}
			}
			reportElems(b, n)
		})
		b.Run(tc.name+"/decompress", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lwcomp.Decompress(form); err != nil {
					b.Fatal(err)
				}
			}
			reportElems(b, n)
		})
	}
}

// BenchmarkEncodeAnalyzer measures the statistics-driven analyzer
// encode: candidates are priced from one-pass block stats and visited
// in ascending order of the size their price or floor proves, and one
// is compressed only while that bound can still beat the best size
// measured so far. pruned-default searches each 64Ki block whole;
// sampled encodes a 1Mi column as one block, as `lwc compress` does by
// default, so the search runs over the column's first
// blocked.SearchSample values and the winner compresses the rest.
func BenchmarkEncodeAnalyzer(b *testing.B) {
	column := func(n int) []int64 {
		third := n / 3
		data := append(workload.OrderShipDates(third, 256, 730120, 1),
			workload.RandomWalk(third, 10, 1<<33, 2)...)
		return append(data, workload.Sorted(n-2*third, 1<<40, 3)...)
	}
	for _, tc := range []struct {
		name      string
		n         int
		blockSize int
	}{
		{"pruned-default", benchN, 1 << 16},
		{"sampled", 1 << 20, 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			data := column(tc.n)
			b.ReportAllocs()
			b.SetBytes(int64(tc.n * 8))
			for i := 0; i < b.N; i++ {
				if _, err := lwcomp.Encode(data, lwcomp.WithBlockSize(tc.blockSize), lwcomp.WithParallelism(1)); err != nil {
					b.Fatal(err)
				}
			}
			reportElems(b, tc.n)
		})
	}
}

// compressedPerBlock returns how many candidates the search compressed,
// on average, over the blocks of data.
func compressedPerBlock(b *testing.B, data []int64) float64 {
	b.Helper()
	compressed, blocks := 0, 0
	for lo := 0; lo < len(data); lo += lwcomp.DefaultBlockSize {
		block := data[lo:min(lo+lwcomp.DefaultBlockSize, len(data))]
		choice, err := lwcomp.CompressBestChoice(block)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range choice.Ranking {
			if r.Trialed || r.Err != nil && r.EstBits != core.ImpossibleBits {
				compressed++
			}
		}
		blocks++
	}
	return float64(compressed) / float64(blocks)
}

// BenchmarkCompactFile measures background recompaction as the
// maintenance lifecycle runs it: a container of 64Ki-row blocks,
// compacted at any gain. The encoder certifies these blocks, so the
// compactor's whole cost per value is the index-only skip;
// compressed/block reports how many of a block's candidates the search
// compresses to establish every candidate's size — what re-analyzing a
// container the encoder could not certify costs.
func BenchmarkCompactFile(b *testing.B) {
	for _, sh := range workload.MaintainShapes(benchN, 1) {
		b.Run(sh.Name, func(b *testing.B) {
			col, err := lwcomp.Encode(sh.Data, lwcomp.WithBlockSize(lwcomp.DefaultBlockSize))
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), "bench."+sh.Name+".lwc")
			if err := lwcomp.WriteColumnsFile(path, []lwcomp.NamedColumn{{Name: sh.Name, Col: col}}); err != nil {
				b.Fatal(err)
			}
			c := compact.New(compact.Options{MinGainBytes: -1, Parallelism: 1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.CompactFile(path)
				if err != nil || res.Action == compact.ActionFailed {
					b.Fatal(err, res.Err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchN, "ns/value")
			b.ReportMetric(compressedPerBlock(b, sh.Data), "compressed/block")
		})
	}
}

// BenchmarkCollectStats measures the one-pass statistics collector
// that feeds both the block index and the analyzer's estimates.
func BenchmarkCollectStats(b *testing.B) {
	data := workload.OrderShipDates(benchN, 64, 730120, 1)
	s := core.GetScratch()
	defer s.Release()
	b.ReportAllocs()
	b.SetBytes(int64(benchN * 8))
	for i := 0; i < b.N; i++ {
		st := core.CollectStats(data, s)
		st.ReleaseSeg(s)
	}
	reportElems(b, benchN)
}

// BenchmarkTableScan measures the two-predicate table scan —
// cross-column per-block planning, fused leaf evaluation, bitmap
// intersection, late-materialized sum — against decompress-then-
// filter over the same columns.
func BenchmarkTableScan(b *testing.B) {
	date := workload.OrderShipDates(benchN, 64, 730120, 42)
	status := workload.LowCardinality(benchN, 8, 43)
	amount := workload.RandomWalk(benchN, 10, 1<<30, 44)
	var cols []lwcomp.NamedColumn
	for _, c := range []struct {
		name string
		data []int64
	}{{"date", date}, {"status", status}, {"amount", amount}} {
		col, err := lwcomp.Encode(c.data, lwcomp.WithBlockSize(1<<14))
		if err != nil {
			b.Fatal(err)
		}
		cols = append(cols, lwcomp.NamedColumn{Name: c.name, Col: col})
	}
	tbl, err := lwcomp.NewTable(cols)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := date[benchN/2], date[benchN/2+benchN/10]
	if lo > hi {
		lo, hi = hi, lo
	}
	expr := lwcomp.And(lwcomp.Range("date", lo, hi), lwcomp.Eq("status", status[benchN/2]))

	b.Run("pushdown-count-sum", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := tbl.Scan(expr)
			if err != nil {
				b.Fatal(err)
			}
			if s.Count() == 0 {
				b.Fatal("scan matched nothing")
			}
			if _, err := s.Sum("amount"); err != nil {
				b.Fatal(err)
			}
			s.Release()
		}
		reportElems(b, benchN)
	})
	b.Run("decompress-then-filter", func(b *testing.B) {
		bufs := [3][]int64{make([]int64, benchN), make([]int64, benchN), make([]int64, benchN)}
		sv := status[benchN/2]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for ci := range cols {
				if err := cols[ci].Col.DecompressInto(bufs[ci]); err != nil {
					b.Fatal(err)
				}
			}
			var count, sum int64
			for r := 0; r < benchN; r++ {
				if bufs[0][r] >= lo && bufs[0][r] <= hi && bufs[1][r] == sv {
					count++
					sum += bufs[2][r]
				}
			}
			if count == 0 && sum == 0 {
				b.Fatal("filter matched nothing")
			}
		}
		reportElems(b, benchN)
	})

	// The same logical table with date in 1Ki-row blocks and the other
	// two columns in 16Ki-row blocks: scans are cut into chunks by the
	// columns they read, and a block spanning several chunks must cost
	// one decode, not one per chunk. "wide" leaves every chunk
	// undecided; "one-column" must cost what it does on an aligned table.
	var misCols []lwcomp.NamedColumn
	for i, raw := range [][]int64{date, status, amount} {
		bs := 1 << 14
		if i == 0 {
			bs = 1 << 10
		}
		col, err := lwcomp.Encode(raw, lwcomp.WithBlockSize(bs))
		if err != nil {
			b.Fatal(err)
		}
		misCols = append(misCols, lwcomp.NamedColumn{Name: cols[i].Name, Col: col})
	}
	mis, err := lwcomp.NewTable(misCols)
	if err != nil || mis.Aligned() {
		b.Fatalf("misaligned fixture: aligned=%v err=%v", mis.Aligned(), err)
	}
	wide := lwcomp.And(lwcomp.Range("date", 0, date[benchN/2]), lwcomp.Not(lwcomp.Eq("status", status[benchN/2])))
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		e    lwcomp.Expr
	}{{"misaligned-count", expr}, {"misaligned-count-wide", wide}, {"misaligned-count-one-column", lwcomp.Eq("status", status[benchN/2])}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if n, err := mis.CountWhere(ctx, tc.e); err != nil || n == 0 {
					b.Fatalf("CountWhere = %d, %v", n, err)
				}
			}
			reportElems(b, benchN)
		})
	}
	// "stream" is the op=rows shape: a date window over a tenth of an
	// aligned table, whole blocks in the middle and a partial one at
	// either end, two columns projected.
	for _, tc := range []struct {
		name string
		t    *lwcomp.Table
		e    lwcomp.Expr
	}{{"stream", tbl, lwcomp.Range("date", lo, hi)}, {"misaligned-stream-wide", mis, wide}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := tc.t.Scan(tc.e)
				if err != nil {
					b.Fatal(err)
				}
				err = s.StreamBatches(ctx, []string{"date", "amount"}, 4096, func([]int64, [][]int64) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
				s.Release()
			}
			reportElems(b, benchN)
		})
	}
}

// BenchmarkFusedAggregate measures the fused one-pass aggregates
// (CountWhere / SumWhere) against the classic Scan+Count+Sum pipeline
// across data shapes that drive the encoder to different scheme
// families — runs (RLE), low cardinality (dict), step segments
// (model), a noisy ramp (plus∘linear), spikes (patch∘for) and a walk
// (for). fused-sum-other sums v under a predicate on a second, uniform
// column u at ~5 % and ~50 % selectivity: every block of v is only
// partly selected, so the sum runs under a selection.
func BenchmarkFusedAggregate(b *testing.B) {
	ctx := context.Background()
	u, err := lwcomp.Encode(workload.UniformBits(benchN, 16, 45), lwcomp.WithBlockSize(1<<14))
	if err != nil {
		b.Fatal(err)
	}
	for _, sh := range []struct {
		name string
		data []int64
	}{
		{"runs", workload.Runs(benchN, 64, 1<<20, 42)},
		{"lowcard", workload.LowCardinality(benchN, 64, 43)},
		{"step", workload.StepData(benchN, 512, 44)},
		{"ramp", workload.TrendNoise(benchN, 2.9, 40, 46)},
		{"spiky", workload.SpikedUniform(benchN, 10, 30, 0.001, 47)},
		{"walk", workload.RandomWalk(benchN, 12, 1<<30, 48)},
	} {
		col, err := lwcomp.Encode(sh.data, lwcomp.WithBlockSize(1<<14))
		if err != nil {
			b.Fatal(err)
		}
		tbl, err := lwcomp.NewTable([]lwcomp.NamedColumn{{Name: "v", Col: col}, {Name: "u", Col: u}})
		if err != nil {
			b.Fatal(err)
		}
		mn, mx := sh.data[0], sh.data[0]
		for _, v := range sh.data {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		span := mx - mn
		expr := lwcomp.Range("v", mn+span/5, mn+span*4/5)

		b.Run(sh.name+"/fused-count", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tbl.CountWhere(ctx, expr); err != nil {
					b.Fatal(err)
				}
			}
			reportElems(b, benchN)
		})
		b.Run(sh.name+"/fused-sum", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := tbl.SumWhere(ctx, expr, "v"); err != nil {
					b.Fatal(err)
				}
			}
			reportElems(b, benchN)
		})
		b.Run(sh.name+"/classic-scan-count-sum", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := tbl.Scan(expr)
				if err != nil {
					b.Fatal(err)
				}
				_ = s.Count()
				if _, err := s.Sum("v"); err != nil {
					b.Fatal(err)
				}
				s.Release()
			}
			reportElems(b, benchN)
		})
		for _, pct := range []int64{5, 50} {
			other := lwcomp.Range("u", 0, (1<<16)*pct/100-1)
			b.Run(fmt.Sprintf("%s/fused-sum-other-%dpct", sh.name, pct), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := tbl.SumWhere(ctx, other, "v"); err != nil {
						b.Fatal(err)
					}
				}
				reportElems(b, benchN)
			})
		}
	}
}

// BenchmarkLinearRange counts, selects and sums under a range on one
// 16,384-row plus(linear, ns) block in the shapes of the benchmark's
// level column (a noisy ramp) and amount column (a walk): narrow is
// ±40 around a stored value, half the middle half of the values. A
// linear model has no range rule, so every run decodes the block and
// filters it; DESIGN.md §1.3 sets these figures beside those of the
// rule that was removed. Reported in ns per value of the block.
func BenchmarkLinearRange(b *testing.B) {
	const n = 1 << 14
	for _, sh := range []struct {
		name string
		data []int64
	}{
		{"level", workload.TrendNoise(n, 2.9, 40, 61)},
		{"amount", workload.RandomWalk(n, 12, 1<<30, 62)},
	} {
		f, err := lwcomp.LinearNS(1024).Compress(sh.data)
		if err != nil {
			b.Fatal(err)
		}
		sorted := slices.Sorted(slices.Values(sh.data))
		v := sh.data[n/2]
		for _, r := range []struct {
			name   string
			lo, hi int64
		}{{"narrow", v - 40, v + 40}, {"half", sorted[n/4], sorted[3*n/4]}} {
			bm := lwcomp.NewSelection(n)
			for _, verb := range []struct {
				name string
				run  func() error
			}{
				{"count", func() error { _, err := query.CountRange(f, r.lo, r.hi); return err }},
				{"select", func() error { bm.Reset(n); return query.SelectRangeSel(f, r.lo, r.hi, bm, 0) }},
				{"sum", func() error { _, _, err := query.SumRange(f, r.lo, r.hi); return err }},
			} {
				b.Run(sh.name+"/"+r.name+"/"+verb.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := verb.run(); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/value")
				})
			}
		}
	}
}

// amountWalk returns n rows of the shape of an order amount: a ±12
// random walk near 2^30 that drifts up by one every eighth row on
// average.
func amountWalk(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	v := int64(1 << 30)
	for i := range out {
		v += rng.Int63n(25) - 12
		if rng.Intn(8) == 0 {
			v++
		}
		out[i] = v
	}
	return out
}

// BenchmarkDeltaRange measures the delta rule (internal/query/delta.go)
// on one 16,384-row amount-shaped block in four ways: the framed
// delta(ns) form the analyzer picks for it, the same form without its
// frame (as every delta form was written before frames, built by hand
// since Delta frames a block this long), the for(ns)[128] form it
// picked before delta forms kept their first value, and
// decode-then-filter of the delta(ns) form, the cost the rule
// replaces. Count and select run
// over a ±40 window around a value the block holds and over its middle
// half; sum is the block's whole sum, and sumsel the sum under a 30 %
// random selection.
func BenchmarkDeltaRange(b *testing.B) {
	const n = 1 << 14
	data := amountWalk(n, 63)
	framed, err := scheme.DeltaNS().Compress(data)
	if err != nil {
		b.Fatal(err)
	}
	unframed := &core.Form{Scheme: framed.Scheme, N: framed.N,
		Params:   core.Params{"first": scheme.DeltaFirst(framed)},
		Children: map[string]*core.Form{"deltas": framed.Children["deltas"]}}
	forForm, err := lwcomp.FORNS(128).Compress(data)
	if err != nil {
		b.Fatal(err)
	}
	sorted := slices.Sorted(slices.Values(data))
	v := data[n/2]
	ranges := []struct {
		name   string
		lo, hi int64
	}{{"narrow", v - 40, v + 40}, {"half", sorted[n/4], sorted[3*n/4]}}
	picked := lwcomp.NewSelection(n)
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < n; i++ {
		if rng.Intn(10) < 3 {
			picked.Add(i)
		}
	}
	bm := lwcomp.NewSelection(n)
	vals := make([]int64, n)
	sc := core.GetScratch()
	defer sc.Release()
	decode := func(f *core.Form) error { return core.DecompressInto(f, vals, sc) }
	for _, form := range []struct {
		name string
		f    *core.Form
	}{{"framed", framed}, {"delta", unframed}, {"for", forForm}, {"decode", framed}} {
		f := form.f
		type verb struct {
			name string
			run  func() error
		}
		var verbs []verb
		for _, r := range ranges {
			if form.name == "decode" {
				verbs = append(verbs,
					verb{r.name + "/count", func() error { err := decode(f); vec.CountRange(vals, r.lo, r.hi); return err }},
					verb{r.name + "/select", func() error {
						bm.Reset(n)
						err := decode(f)
						for i, x := range vals {
							if x >= r.lo && x <= r.hi {
								bm.Add(i)
							}
						}
						return err
					}})
				continue
			}
			verbs = append(verbs,
				verb{r.name + "/count", func() error { _, err := query.CountRange(f, r.lo, r.hi); return err }},
				verb{r.name + "/select", func() error { bm.Reset(n); return query.SelectRangeSel(f, r.lo, r.hi, bm, 0) }})
		}
		if form.name == "decode" {
			verbs = append(verbs,
				verb{"sum", func() error { err := decode(f); vec.Sum(vals); return err }},
				verb{"sumsel", func() error { err := decode(f); picked.MaskedSum(0, vals); return err }})
		} else {
			verbs = append(verbs,
				verb{"sum", func() error { _, err := query.Sum(f); return err }},
				verb{"sumsel", func() error { _, err := query.SumSel(f, picked, 0); return err }})
		}
		for _, vb := range verbs {
			b.Run(form.name+"/"+vb.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := vb.run(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/value")
			})
		}
	}
}

// BenchmarkConjunctDensity prices the later leaf of a conjunction, an
// AND of a 3-bit dict equality and a 16-bit NS range (qty >= 2^15,
// half the rows), by the first leaf's density, 1/64 to 1/2, in ns per
// row over 16,384-row blocks: keep clears the rows the range fails in
// the equality's selection, reading only the rows it holds
// (Column.KeepBlockRange), and select-and selects the range into a
// selection of its own and ANDs the two, what a conjunct cost before
// keep. Both first select the equality. It is the evidence for keep's
// sparse/dense cut (DESIGN.md §1.14).
func BenchmarkConjunctDensity(b *testing.B) {
	const block = 1 << 14
	rng := rand.New(rand.NewSource(45))
	qty := make([]int64, benchN)
	for i := range qty {
		qty[i] = rng.Int63n(1 << 16)
	}
	qtyCol, err := lwcomp.Encode(qty, lwcomp.WithBlockSize(block), lwcomp.WithScheme(lwcomp.NS()))
	if err != nil {
		b.Fatal(err)
	}
	for _, inv := range []int{64, 32, 16, 8, 4, 2} {
		status := make([]int64, benchN)
		for i := range status {
			if rng.Intn(inv) != 0 {
				status[i] = 1 + rng.Int63n(7) // status 0 holds 1/inv of the rows
			}
		}
		statusCol, err := lwcomp.Encode(status, lwcomp.WithBlockSize(block), lwcomp.WithScheme(lwcomp.DictNS()))
		if err != nil {
			b.Fatal(err)
		}
		for _, keep := range []bool{true, false} {
			name := "keep"
			if !keep {
				name = "select-and"
			}
			b.Run(fmt.Sprintf("density=1/%d/%s", inv, name), func(b *testing.B) {
				dst, tmp := sel.New(block), sel.New(block)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for k := range statusCol.Blocks {
						dst.Reset(block)
						if err := statusCol.SelectBlockRangeSel(k, 0, 0, dst, 0); err != nil {
							b.Fatal(err)
						}
						if keep {
							err = qtyCol.KeepBlockRange(k, 1<<15, math.MaxInt64, dst)
						} else {
							tmp.Reset(block)
							if err = qtyCol.SelectBlockRangeSel(k, 1<<15, math.MaxInt64, tmp, 0); err == nil {
								err = dst.And(tmp)
							}
						}
						if err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchN), "ns/row")
			})
		}
	}
}
