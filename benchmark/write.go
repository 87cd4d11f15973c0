package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"lwcomp"
	"lwcomp/internal/blocked"
	"lwcomp/internal/compact"
	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/scrub"
	"lwcomp/internal/storage"
)

// writer runs the chunk lifecycle of write-maintain in this process:
// encode with the library defaults, write crash-safely, verify,
// compact exhaustively at any gain, scrub unthrottled.
type writer struct {
	dir       string
	seed      int64
	chunkRows int
	buf       []int64
	compactor *compact.Compactor
	scrubber  *scrub.Scrubber
}

func newWriter(cfg *config) (*writer, error) {
	dir, err := os.MkdirTemp(cfg.workDir, "run-write-maintain-")
	if err != nil {
		return nil, err
	}
	return &writer{
		dir: dir, seed: cfg.seed, chunkRows: cfg.scale.chunkRows,
		buf:       make([]int64, cfg.scale.chunkRows),
		compactor: compact.New(compact.Options{MinGainBytes: -1}),
		scrubber:  scrub.New(scrub.Options{}),
	}, nil
}

func (w *writer) close() {
	if w != nil {
		os.RemoveAll(w.dir)
	}
}

func (w *writer) path(i int) string {
	return filepath.Join(w.dir, fmt.Sprintf("chunk%06d.%s.lwc", i, colNames[i%numCols]))
}

// chunkResult is what one lifecycle left behind.
type chunkResult struct {
	col         *blocked.Column // as first encoded, before compaction
	storedBytes int64           // on disk after compaction
	reclaimed   int64
	rewritten   bool
	scrubbed    int // blocks the scrubber walked
}

// lifecycle runs chunk i through its five stages. tr may be nil; with
// a tracer each stage is a span under one root span per chunk, and
// the two stages inside the encoder — stats collection and the
// analyzer — are replayed beside it.
func (w *writer) lifecycle(i int, tr *tracer) (chunkResult, error) {
	var r chunkResult
	path, name := w.path(i), colNames[i%numCols]
	root := tr.begin("chunk", 0, i, false)
	defer tr.end(root)

	id := tr.begin("blocked.encode", root, i, false)
	col, err := lwcomp.Encode(w.buf)
	tr.end(id)
	if err != nil {
		return r, fmt.Errorf("encode: %w", err)
	}
	r.col = col
	if tr != nil {
		if err := replayEncodeStages(tr, id, i, w.buf); err != nil {
			return r, err
		}
	}

	id = tr.begin("storage.write", root, i, false)
	err = lwcomp.WriteColumnsFile(path, []lwcomp.NamedColumn{{Name: name, Col: col}})
	tr.end(id)
	if err != nil {
		return r, fmt.Errorf("write: %w", err)
	}

	id = tr.begin("storage.verify", root, i, false)
	rep, err := storage.VerifyFile(path)
	tr.end(id)
	if err != nil {
		return r, fmt.Errorf("verify: %w", err)
	}
	if !rep.OK() {
		return r, fmt.Errorf("verify: %v", rep.Issues[0])
	}

	id = tr.begin("compact.file", root, i, false)
	res, err := w.compactor.CompactFile(path)
	tr.end(id)
	if err != nil {
		return r, fmt.Errorf("compact: %w", err)
	}
	if res.Action == compact.ActionFailed {
		return r, fmt.Errorf("compact: %v", res.Err)
	}
	r.storedBytes, r.reclaimed, r.rewritten = res.BytesAfter, res.Gain(), res.Action == compact.ActionRewritten

	id = tr.begin("scrub.file", root, i, false)
	srep, err := w.scrubber.ScrubFile(path)
	tr.end(id)
	if err != nil {
		return r, fmt.Errorf("scrub: %w", err)
	}
	if !srep.OK() {
		return r, fmt.Errorf("scrub: %v", srep.Issues[0])
	}
	r.scrubbed = srep.Blocks
	return r, nil
}

// replayEncodeStages re-runs, as replay children of the encode span,
// the two calls blocked.Encode makes per block: core.CollectStats and
// Analyzer.Best, configured as the encoder configures them.
func replayEncodeStages(tr *tracer, parent, op int, src []int64) error {
	sc := core.GetScratch()
	defer sc.Release()
	id := tr.begin("core.collect_stats", parent, op, true)
	st := core.CollectStats(src, sc)
	tr.end(id)
	defer st.ReleaseSeg(sc)
	an := &core.Analyzer{Candidates: scheme.DefaultCandidates(&st), SampleSize: 1 << 16, Stats: &st, Scratch: sc}
	id = tr.begin("core.analyze", parent, op, true)
	_, err := an.Best(src)
	tr.end(id)
	return err
}

// setupWrite is write-maintain's set-up: a fresh directory and a
// short untimed warm-up over chunks the timed list never uses, with a
// probe reading after every twelfth.
func setupWrite(ctx context.Context, cfg *config, probes *probeLog) (*writer, error) {
	w, err := newWriter(cfg)
	if err != nil {
		return nil, err
	}
	for k := 0; k < cfg.scale.sizes[cfg.workload].warmupOps; k++ {
		if err := ctx.Err(); err != nil {
			w.close()
			return nil, err
		}
		i := 1<<20 + k // far beyond any timed chunk index
		genChunk(i, w.buf, w.seed)
		if _, err := w.lifecycle(i, nil); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up chunk %d: %w", k, err)
		}
		if k%12 == 11 {
			probes.read()
		}
	}
	return w, nil
}

// readBack is the sampled oracle check of write-maintain: reopen the
// compacted chunk, decompress it, and compare value for value with
// the regenerated input.
func (w *writer) readBack(i int) error {
	want := make([]int64, w.chunkRows)
	genChunk(i, want, w.seed)
	col, err := lwcomp.OpenFile(w.path(i))
	if err != nil {
		return err
	}
	defer col.Close()
	got, err := col.Decompress()
	if err != nil {
		return err
	}
	if !slices.Equal(got, want) {
		return errors.New("read-back differs from the generated chunk")
	}
	return nil
}

// runWrite is the untraced run of write-maintain. The process under
// test is this process: CPU and peak RSS are read from /proc/self.
func runWrite(ctx context.Context, cfg *config, out *outcome) error {
	var w *writer
	defer func() { w.close() }()
	var setups, rawSetups []float64
	for rep := 0; rep < cfg.scale.setupReps; rep++ {
		w.close()
		raw, took, err := timeSetup(cfg.scale.sizes[cfg.workload].hostShare, func(probes *probeLog) (err error) {
			w, err = setupWrite(ctx, cfg, probes)
			return
		})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups, rawSetups = append(setups, took), append(rawSetups, raw)
	}

	ops := cfg.scale.ops(cfg.workload, cfg.seconds)
	lat := make([]int64, 0, ops)
	var stored int64
	size := cfg.scale.sizes[cfg.workload]
	ph, err := runPhase(os.Getpid(), ops, size, func(lo, hi int) time.Duration {
		start := time.Now()
		for i := lo; i < hi && ctx.Err() == nil; i++ {
			genChunk(i, w.buf, w.seed)
			t := time.Now()
			r, err := w.lifecycle(i, nil)
			lat = append(lat, time.Since(t).Nanoseconds())
			if err != nil {
				out.fail(fmt.Sprintf("chunk %d (%s): %v", i, colNames[i%numCols], err))
				continue
			}
			stored += r.storedBytes
		}
		return time.Since(start)
	})
	if err != nil {
		return err
	}
	peak, err := procRSSMiB(os.Getpid(), "VmHWM:")
	if err != nil {
		return err
	}
	out.attempted = ops
	if len(lat) < ops {
		out.fail(fmt.Sprintf("stopped after %d of %d chunks: %v", len(lat), ops, ctx.Err()))
	}
	checked := 0
	for i := 0; i < len(lat) && ctx.Err() == nil; i += sampleStride(ops) {
		checked++
		if err := w.readBack(i); err != nil {
			out.fail(fmt.Sprintf("chunk %d (%s): %v", i, colNames[i%numCols], err))
		}
	}
	if ctx.Err() != nil {
		return errors.New("deadline reached before the run finished")
	}

	out.set("setup_s", median(setups))
	if err := ph.report(out, lat, peak); err != nil {
		return err
	}
	out.set("stored_bytes_per_value", float64(stored)/float64(ops*cfg.scale.chunkRows))
	ctr := w.compactor.Counters()
	out.notef("one closed-loop caller, chunks of %d rows; %d chunks read back; set-up times (s) as measured %.3f, corrected %.3f", cfg.scale.chunkRows, checked, rawSetups, setups)
	out.notef("compaction (warm-up included): %d scanned, %d rewritten, %d bytes reclaimed", ctr.Scanned, ctr.Rewritten, ctr.BytesReclaimed)
	return nil
}

// traceWrite is the -trace 1 run of write-maintain: the first eighth
// of the chunk list, once untraced and once with a span around every
// stage, then the kernels on those chunks' own forms and files.
func traceWrite(ctx context.Context, cfg *config, out *outcome) error {
	fp := takeFingerprint()
	prefix := max(1, cfg.scale.ops(cfg.workload, cfg.seconds)/traceShare)
	out.attempted = prefix

	pass := func(tr *tracer) (w *writer, results []chunkResult, lat []int64, err error) {
		if w, err = setupWrite(ctx, cfg, nil); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		for i := 0; i < prefix && ctx.Err() == nil; i++ {
			genChunk(i, w.buf, w.seed)
			if tr != nil {
				tr.ops = append(tr.ops, opRecord{Op: i, Kind: "chunk", Columns: []string{colNames[i%numCols]}})
			}
			t := time.Now()
			r, lerr := w.lifecycle(i, tr)
			lat = append(lat, time.Since(t).Nanoseconds())
			if lerr != nil {
				out.fail(fmt.Sprintf("chunk %d (%s): %v", i, colNames[i%numCols], lerr))
			}
			results = append(results, r)
		}
		return w, results, lat, nil
	}

	plain, _, lat, err := pass(nil)
	if err != nil {
		return err
	}
	plain.close()
	tr := newTracer()
	w, results, _, err := pass(tr)
	if err != nil {
		return err
	}
	defer w.close()

	n := float64(prefix)
	values := n * float64(cfg.scale.chunkRows)
	lt := tr.aggregate()
	var untracedNs int64
	stats := make([]opStat, len(lat))
	for i, d := range lat {
		untracedNs += d
		stats[i] = opStat{latencyNs: d}
	}
	clientMetrics(out, stats)

	var bcols []benchColumn
	var paths []string
	var reclaimed, rewritten, scrubbed int64
	for i, r := range results {
		if r.col == nil {
			continue
		}
		raw := make([]int64, cfg.scale.chunkRows)
		genChunk(i, raw, cfg.seed)
		bcols = append(bcols, benchColumn{name: fmt.Sprintf("chunk%d.%s", i, colNames[i%numCols]), raw: raw, col: r.col})
		paths = append(paths, w.path(i))
		reclaimed += r.reclaimed
		scrubbed += int64(r.scrubbed)
		if r.rewritten {
			rewritten++
		}
	}
	if len(bcols) == 0 {
		return errors.New("no chunk completed its lifecycle")
	}
	quiet := newOutcome() // per-chunk kernel lines would swamp the report
	if err := benchKernels(ctx, quiet, bcols, cfg.scale.chunkRows); err != nil {
		return err
	}
	if err := benchStorage(quiet, paths); err != nil {
		return err
	}
	for name, v := range quiet.values {
		out.set(name, v)
	}

	chunk := func(name string) float64 { return float64(lt.total[name]) / n / 1e6 }
	out.set("blocked.encode_ns_per_value", float64(lt.total["blocked.encode"])/values)
	out.set("core.collect_stats_ns_per_value", float64(lt.total["core.collect_stats"])/values)
	out.set("core.analyze_us_per_block", float64(lt.total["core.analyze"])/n/1e3)
	out.set("storage.write_ms_per_chunk", chunk("storage.write"))
	out.set("storage.verify_ms_per_chunk", chunk("storage.verify"))
	out.set("compact.file_ms_per_chunk", chunk("compact.file"))
	out.set("compact.bytes_reclaimed_per_value", float64(reclaimed)/values)
	out.set("compact.rewritten_share", float64(rewritten)/n)
	out.set("scrub.file_ms_per_chunk", chunk("scrub.file"))
	out.set("scrub.blocks_scanned", float64(scrubbed))
	traced := float64(lt.total["chunk"] - lt.total["core.collect_stats"] - lt.total["core.analyze"])
	out.set("trace.overhead_pct", (traced-float64(untracedNs))/float64(untracedNs)*100)
	out.notef("traced replay: %d chunks (first 1/%d of %d), %d spans; untraced mean %.3f ms/chunk, traced mean (replays excluded) %.3f ms/chunk",
		prefix, traceShare, cfg.scale.ops(cfg.workload, cfg.seconds), len(tr.spans), float64(untracedNs)/n/1e6, traced/n/1e6)

	if err := tr.writeTo(cfg.traceOut, cfg, fp); err != nil {
		return fmt.Errorf("writing -trace-out: %w", err)
	}
	out.notef("spans written to %s", cfg.traceOut)
	if ctx.Err() != nil {
		return errors.New("deadline reached before the traced run finished")
	}
	return nil
}
