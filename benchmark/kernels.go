package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/blocked"
	"lwcomp/internal/core"
	"lwcomp/internal/query"
	"lwcomp/internal/scheme"
	"lwcomp/internal/sel"
	"lwcomp/internal/storage"
)

// benchColumn is one encoded column the kernel timings run on: the
// workload's own data in the forms the analyzer actually chose for it,
// resident in memory, so the numbers are those of the kernels the
// workload exercises and at the widths it exercises them.
type benchColumn struct {
	name string
	raw  []int64
	col  *blocked.Column
}

// midRange returns a predicate range holding roughly the middle half
// of the column's values, from a 1-in-64 sample, so no block is
// decided by its stats and every kernel does its full work.
func midRange(raw []int64) (lo, hi int64) {
	sample := make([]int64, 0, len(raw)/64+1)
	for i := 0; i < len(raw); i += 64 {
		sample = append(sample, raw[i])
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	return sample[len(sample)/4], sample[len(sample)*3/4]
}

// benchKernels times the public kernels of blocked, query, core,
// bitpack and sel on the columns' own blocks, and the encode-side
// stages (stats collection, analyzer) on their raw data. Each metric
// is total time over total values across all columns; the per-column
// split goes to the report.
func benchKernels(ctx context.Context, out *outcome, cols []benchColumn, blockSize int) error {
	var values, countNs, sumNs, selectNs, blockedNs, coreNs int64
	byFamily := map[string][2]int64{} // top-level scheme → {ns, values} of core.DecompressInto
	sc := core.GetScratch()
	defer sc.Release()
	var dst []int64
	for _, bc := range cols {
		if err := ctx.Err(); err != nil {
			return err
		}
		lo, hi := midRange(bc.raw)
		var cNs, sNs, selNs, bNs, dNs int64
		for i := range bc.col.Blocks {
			b := &bc.col.Blocks[i]
			f := b.Form
			if cap(dst) < b.Count {
				dst = make([]int64, b.Count)
			}
			dst = dst[:b.Count]

			t := time.Now()
			n, err := query.CountRange(f, lo, hi)
			cNs += time.Since(t).Nanoseconds()
			if err != nil {
				return fmt.Errorf("query.CountRange on %s block %d: %w", bc.name, i, err)
			}

			t = time.Now()
			s, n2, err := query.SumRangeScratch(f, lo, hi, sc)
			sNs += time.Since(t).Nanoseconds()
			if err != nil || n2 != n {
				return fmt.Errorf("query.SumRangeScratch on %s block %d: count %d vs %d, err %v", bc.name, i, n2, n, err)
			}
			sink += s

			bm := sel.Get(b.Count)
			t = time.Now()
			err = query.SelectRangeSel(f, lo, hi, bm, 0)
			selNs += time.Since(t).Nanoseconds()
			if err != nil || int64(bm.Count()) != n {
				bm.Release()
				return fmt.Errorf("query.SelectRangeSel on %s block %d: count %d vs %d, err %v", bc.name, i, bm.Count(), n, err)
			}
			bm.Release()

			t = time.Now()
			err = bc.col.DecompressBlock(i, dst)
			bNs += time.Since(t).Nanoseconds()
			if err != nil {
				return err
			}

			t = time.Now()
			err = core.DecompressInto(f, dst, sc)
			d := time.Since(t).Nanoseconds()
			dNs += d
			if err != nil {
				return err
			}
			fam := byFamily[f.Scheme]
			byFamily[f.Scheme] = [2]int64{fam[0] + d, fam[1] + int64(b.Count)}
		}
		nv := int64(bc.col.N)
		values += nv
		countNs, sumNs, selectNs, blockedNs, coreNs = countNs+cNs, sumNs+sNs, selectNs+selNs, blockedNs+bNs, coreNs+dNs
		out.notef("kernels on %-6s [%d, %d] ns/value: count_range %.3f  sum_range %.3f  select_range %.3f  decompress_block %.3f  core.decompress %.3f",
			bc.name, lo, hi, float64(cNs)/float64(nv), float64(sNs)/float64(nv), float64(selNs)/float64(nv), float64(bNs)/float64(nv), float64(dNs)/float64(nv))
	}
	v := float64(values)
	out.set("query.count_range_ns_per_value", float64(countNs)/v)
	out.set("query.sum_range_ns_per_value", float64(sumNs)/v)
	out.set("query.select_range_ns_per_value", float64(selectNs)/v)
	out.set("blocked.decompress_ns_per_value", float64(blockedNs)/v)
	out.set("core.decompress_ns_per_value", float64(coreNs)/v)
	fams := make([]string, 0, len(byFamily))
	for name := range byFamily {
		fams = append(fams, name)
	}
	sort.Strings(fams)
	for _, name := range fams {
		out.notef("core.DecompressInto %-8s %.3f ns/value over %d values", name, float64(byFamily[name][0])/float64(byFamily[name][1]), byFamily[name][1])
	}

	benchBitpack(out, cols)
	benchSel(out, cols[0].col.N)
	return benchEncodeStages(ctx, out, cols, blockSize)
}

// benchBitpack times UnpackInto and CountRangeU on every NS payload in
// the columns' form trees — the widths the dataset really uses.
func benchBitpack(out *outcome, cols []benchColumn) {
	type acc struct{ unpackNs, countNs, values int64 }
	byWidth := map[uint]*acc{}
	var dst []uint64
	for _, bc := range cols {
		for i := range bc.col.Blocks {
			bc.col.Blocks[i].Form.Walk(func(f *core.Form) error {
				w := uint(f.Params["width"])
				if f.Scheme != scheme.NSName || f.N == 0 || w == 0 || w > 63 {
					return nil
				}
				if cap(dst) < f.N {
					dst = make([]uint64, f.N)
				}
				dst = dst[:f.N]
				a := byWidth[w]
				if a == nil {
					a = &acc{}
					byWidth[w] = a
				}
				t := time.Now()
				err := bitpack.UnpackInto(dst, f.Packed, w)
				a.unpackNs += time.Since(t).Nanoseconds()
				if err != nil {
					return nil // not a payload this kernel reads; skip it
				}
				mask := bitpack.Mask(w)
				t = time.Now()
				n, _ := bitpack.CountRangeU(f.Packed, 0, f.N, w, mask/4, mask/4*3)
				a.countNs += time.Since(t).Nanoseconds()
				sink += n
				a.values += int64(f.N)
				return nil
			})
		}
	}
	var total acc
	widths := make([]int, 0, len(byWidth))
	for w, a := range byWidth {
		widths = append(widths, int(w))
		total.unpackNs, total.countNs, total.values = total.unpackNs+a.unpackNs, total.countNs+a.countNs, total.values+a.values
	}
	sort.Ints(widths)
	out.set("bitpack.unpack_ns_per_value", perOr0(float64(total.unpackNs), float64(total.values)))
	out.set("bitpack.count_range_ns_per_value", perOr0(float64(total.countNs), float64(total.values)))
	for _, w := range widths {
		a := byWidth[uint(w)]
		out.notef("bitpack width %2d: unpack %.3f ns/value, count_range %.3f ns/value over %d values",
			w, float64(a.unpackNs)/float64(a.values), float64(a.countNs)/float64(a.values), a.values)
	}
}

// benchSel times Selection.And + Count on two half-full bitmaps of
// the table's length.
func benchSel(out *outcome, n int) {
	a, b := sel.Get(n), sel.Get(n)
	defer a.Release()
	defer b.Release()
	const reps = 64
	var ns int64
	for r := 0; r < reps; r++ {
		a.Reset(n)
		b.Reset(n)
		for i := 0; i+64 <= n; i += 128 {
			a.AddRun(i, 96)
			b.AddRun(i+32, 96)
		}
		t := time.Now()
		a.And(b)
		sink += int64(a.Count())
		ns += time.Since(t).Nanoseconds()
	}
	out.set("sel.and_count_ns_per_word", float64(ns)/float64(reps)/float64((n+63)/64))
}

// benchEncodeStages times the two stages blocked.Encode spends its
// time in — core.CollectStats and Analyzer.Best — on every eighth
// block of the columns' raw data, set up exactly as the encoder sets
// them up.
func benchEncodeStages(ctx context.Context, out *outcome, cols []benchColumn, blockSize int) error {
	var statsNs, statsValues, analyzeNs, blocks int64
	sc := core.GetScratch()
	defer sc.Release()
	for _, bc := range cols {
		if blockSize <= 0 || blockSize > len(bc.raw) {
			blockSize = len(bc.raw)
		}
		for start := 0; start+blockSize <= len(bc.raw); start += 8 * blockSize {
			if err := ctx.Err(); err != nil {
				return err
			}
			src := bc.raw[start : start+blockSize]
			t := time.Now()
			st := core.CollectStats(src, sc)
			statsNs += time.Since(t).Nanoseconds()
			statsValues += int64(len(src))
			an := &core.Analyzer{
				Candidates: scheme.DefaultCandidates(&st),
				SampleSize: 1 << 16,
				Stats:      &st,
				Scratch:    sc,
			}
			t = time.Now()
			_, err := an.Best(src)
			analyzeNs += time.Since(t).Nanoseconds()
			st.ReleaseSeg(sc)
			if err != nil {
				return fmt.Errorf("Analyzer.Best on %s rows %d+: %w", bc.name, start, err)
			}
			blocks++
		}
	}
	out.set("core.collect_stats_ns_per_value", perOr0(float64(statsNs), float64(statsValues)))
	out.set("core.analyze_us_per_block", perOr0(float64(analyzeNs), float64(blocks))/1e3)
	return nil
}

// benchStorage times the storage layer on the workload's own files:
// OpenContainerFile, BlockForm on every block with the cache off and
// again with it warm, and VerifyFile.
func benchStorage(out *outcome, paths []string) error {
	var openNs, coldNs, hotNs, verifyNs, blocks int64
	walk := func(cf *storage.ContainerFile) (int64, int64, error) {
		var ns, n int64
		for _, nc := range cf.Columns() {
			for i := range nc.Col.Blocks {
				t := time.Now()
				_, err := nc.Col.BlockForm(i)
				ns += time.Since(t).Nanoseconds()
				if err != nil {
					return 0, 0, err
				}
				n++
			}
		}
		return ns, n, nil
	}
	for _, path := range paths {
		t := time.Now()
		cold, err := storage.OpenContainerFile(path, storage.OpenOptions{CacheBytes: -1})
		openNs += time.Since(t).Nanoseconds()
		if err != nil {
			return err
		}
		ns, n, err := walk(cold)
		cold.Close()
		if err != nil {
			return err
		}
		coldNs, blocks = coldNs+ns, blocks+n

		hot, err := storage.OpenContainerFile(path, storage.OpenOptions{CacheBytes: 256 << 20})
		if err != nil {
			return err
		}
		if _, _, err = walk(hot); err == nil {
			ns, _, err = walk(hot)
		}
		hot.Close()
		if err != nil {
			return err
		}
		hotNs += ns

		t = time.Now()
		rep, err := storage.VerifyFile(path)
		verifyNs += time.Since(t).Nanoseconds()
		if err != nil {
			return err
		}
		if !rep.OK() {
			return fmt.Errorf("%s fails verification: %v", path, rep.Issues[0])
		}
	}
	files := float64(len(paths))
	out.set("storage.open_ms", msOf(openNs)/files)
	out.set("storage.block_form_cold_us_per_block", float64(coldNs)/float64(blocks)/1e3)
	out.set("storage.block_form_hot_us_per_block", float64(hotNs)/float64(blocks)/1e3)
	out.set("storage.verify_ms_per_chunk", msOf(verifyNs)/files)
	return nil
}
