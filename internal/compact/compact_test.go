package compact

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"lwcomp/internal/blocked"
	"lwcomp/internal/scheme"
	"lwcomp/internal/storage"
	"lwcomp/internal/workload"
)

// writeCheap encodes cols with a fixed fast scheme (plain ns bitpack,
// no analyzer search — the "write fast now" ingest path) into a v3
// container at path.
func writeCheap(t *testing.T, path string, blockSize int, cols map[string][]int64) {
	t.Helper()
	ns, err := scheme.Parse("ns")
	if err != nil {
		t.Fatal(err)
	}
	var bcs []storage.BlockedColumn
	for name, data := range cols {
		col, err := blocked.Encode(data, blocked.EncodeOptions{BlockSize: blockSize, Scheme: ns})
		if err != nil {
			t.Fatal(err)
		}
		bcs = append(bcs, storage.BlockedColumn{Name: name, Col: col})
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := storage.WriteContainerV3(f, bcs); err != nil {
		t.Fatal(err)
	}
}

// readBack decompresses every column of the container at path.
func readBack(t *testing.T, path string) map[string][]int64 {
	t.Helper()
	cf, err := storage.OpenContainerFile(path, storage.OpenOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	out := map[string][]int64{}
	for _, bc := range cf.Columns() {
		raw, err := bc.Col.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		out[bc.Name] = raw
	}
	return out
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func equalCols(t *testing.T, got, want map[string][]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d column(s), want %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("column %q missing", name)
		}
		if len(g) != len(w) {
			t.Fatalf("column %q: %d row(s), want %d", name, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("column %q row %d: %d, want %d", name, i, g[i], w[i])
			}
		}
	}
}

// TestCompactFileReclaims: a container ingested with the fixed fast
// scheme shrinks under re-analysis, the data survives
// bit-for-bit, and the result carries a generation stamp.
func TestCompactFileReclaims(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dates.lwc")
	cols := map[string][]int64{"d": workload.OrderShipDates(40000, 64, 730120, 7)}
	writeCheap(t, path, 8192, cols)
	before := fileSize(t, path)

	c := New(Options{MinGainBytes: -1})
	res, err := c.CompactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ActionRewritten {
		t.Fatalf("action = %q (err %v), want rewritten", res.Action, res.Err)
	}
	if res.BytesBefore != before || res.BytesAfter >= before {
		t.Fatalf("bytes %d -> %d, want a real shrink from %d", res.BytesBefore, res.BytesAfter, before)
	}
	if got := fileSize(t, path); got != res.BytesAfter {
		t.Fatalf("on-disk size %d, result says %d", got, res.BytesAfter)
	}
	if res.Generation != 1 || c.Generation() != 1 {
		t.Fatalf("generation = %d / %d, want 1", res.Generation, c.Generation())
	}
	equalCols(t, readBack(t, path), cols)

	// The rewritten generation passes the offline fsck too.
	rep, err := storage.VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("verify after compaction: %v", rep.Issues)
	}

	ctr := c.Counters()
	if ctr.Scanned != 1 || ctr.Rewritten != 1 || ctr.BytesReclaimed != before-res.BytesAfter {
		t.Fatalf("counters = %+v", ctr)
	}
	if ctr.CPUSeconds <= 0 {
		t.Fatalf("CPUSeconds = %v, want > 0", ctr.CPUSeconds)
	}
}

// TestCompactThreshold: a win below the absolute or fractional
// threshold skips the rewrite and leaves the file byte-identical.
func TestCompactThreshold(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dates.lwc")
	writeCheap(t, path, 8192, map[string][]int64{"d": workload.OrderShipDates(40000, 64, 730120, 7)})
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, opt := range []Options{
		{MinGainBytes: 1 << 40},
		{MinGainBytes: -1, MinGainFraction: 0.9999},
	} {
		c := New(opt)
		res, err := c.CompactFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if res.Action != ActionSkipped {
			t.Fatalf("opts %+v: action = %q, want skipped", opt, res.Action)
		}
		if res.CandidateBytes == 0 || res.CandidateBytes >= res.BytesBefore {
			t.Fatalf("opts %+v: candidate %d of %d — the skip should still have found a win",
				opt, res.CandidateBytes, res.BytesBefore)
		}
		now, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(now) != string(orig) {
			t.Fatalf("opts %+v: skipped compaction mutated the file", opt)
		}
		if ctr := c.Counters(); ctr.Skipped != 1 || ctr.Rewritten != 0 || ctr.BytesReclaimed != 0 {
			t.Fatalf("opts %+v: counters = %+v", opt, ctr)
		}
	}
}

// TestCompactIdempotent: a second pass finds nothing left to win and
// skips — compaction converges instead of churning — and decides so
// from the index alone: the compactor's own output is certified, so a
// payload flipped after the first pass is neither read nor reported by
// compaction, while the verifier still finds it.
func TestCompactIdempotent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.lwc")
	writeCheap(t, path, 8192, map[string][]int64{"r": workload.Runs(40000, 64, 1<<16, 3)})

	c := New(Options{MinGainBytes: -1})
	first, err := c.CompactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if first.Action != ActionRewritten {
		t.Fatalf("first pass: %q (err %v)", first.Action, first.Err)
	}
	second, err := c.CompactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if second.Action != ActionSkipped || second.CandidateBytes != second.BytesBefore {
		t.Fatalf("second pass: %q, want skipped (bytes %d -> candidate %d)",
			second.Action, second.BytesBefore, second.CandidateBytes)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01 // the last block's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	third, err := c.CompactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if third.Action != ActionSkipped || third.CandidateBytes != third.BytesBefore {
		t.Fatalf("pass over a flipped payload: %q (err %v), candidate %d of %d — it read a payload",
			third.Action, third.Err, third.CandidateBytes, third.BytesBefore)
	}
	rep, err := storage.VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("the verifier missed the flipped payload")
	}
	if ctr := c.Counters(); ctr.Skipped != 2 || ctr.Rewritten != 1 || ctr.Failed != 0 {
		t.Fatalf("counters = %+v", ctr)
	}
}

// TestCompactReencodesUntiledContainer: a certificate vouches for a
// block's form, not for the container's layout. A builder's lone block
// under a block size above the row count is certified, but the
// re-encode records block size 0 and is two index bytes smaller, so
// the container takes the full path and is rewritten.
func TestCompactReencodesUntiledContainer(t *testing.T) {
	b := blocked.NewBuilder(blocked.EncodeOptions{BlockSize: 1 << 16})
	if err := b.Append(workload.OrderShipDates(40000, 64, 730120, 7)); err != nil {
		t.Fatal(err)
	}
	col, err := b.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Blocks) != 1 || col.Blocks[0].Certificate != scheme.SearchFingerprint() {
		t.Fatalf("builder wrote %d block(s), block 0 certificate %08x", len(col.Blocks), col.Blocks[0].Certificate)
	}
	var buf bytes.Buffer
	if err := storage.WriteContainerV3(&buf, []storage.BlockedColumn{{Name: "d", Col: col}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.lwc")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := New(Options{MinGainBytes: -1}).CompactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ActionRewritten || res.Gain() != 2 {
		t.Fatalf("action %q (err %v), %d -> %d bytes, want rewritten 2 bytes smaller",
			res.Action, res.Err, res.BytesBefore, res.BytesAfter)
	}
}

// TestCompactReencodesForeignCertificate: a certificate from another
// search proves nothing about this one, so a container stamped with
// one is re-encoded as any uncertified container is — its payloads are
// read (a flipped one fails the pass) and the candidate is built.
func TestCompactReencodesForeignCertificate(t *testing.T) {
	data := workload.OrderShipDates(40000, 64, 730120, 7)
	col, err := blocked.Encode(data, blocked.EncodeOptions{BlockSize: 8192})
	if err != nil {
		t.Fatal(err)
	}
	var current bytes.Buffer
	if err := storage.WriteContainerV3(&current, []storage.BlockedColumn{{Name: "d", Col: col}}); err != nil {
		t.Fatal(err)
	}
	// Odd and one past, or two past, the current fingerprint: never it,
	// never 0.
	foreign := (scheme.SearchFingerprint() + 1) | 1
	raw := storage.RawColumn{Name: "d", BlockSize: col.BlockSize}
	for i := range col.Blocks {
		b := &col.Blocks[i]
		if b.Certificate != scheme.SearchFingerprint() {
			t.Fatalf("block %d: the encoder did not certify it", i)
		}
		enc, err := storage.EncodeForm(b.Form)
		if err != nil {
			t.Fatal(err)
		}
		raw.Blocks = append(raw.Blocks, storage.RawBlock{Count: b.Count, HasStats: true, Min: b.Min, Max: b.Max,
			Certificate: foreign, Payload: enc})
	}
	var stamped bytes.Buffer
	if err := storage.WriteContainerV3Raw(&stamped, []storage.RawColumn{raw}); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "d.lwc")
	if err := os.WriteFile(path, stamped.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(Options{MinGainBytes: -1})
	res, err := c.CompactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ActionSkipped || res.CandidateBytes != int64(current.Len()) {
		t.Fatalf("action %q (err %v), candidate %d bytes, want skipped with the %d-byte re-encode",
			res.Action, res.Err, res.CandidateBytes, current.Len())
	}

	flipped := append([]byte(nil), stamped.Bytes()...)
	flipped[len(flipped)-1] ^= 0x01
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if res, err = c.CompactFile(path); err != nil {
		t.Fatal(err)
	}
	if res.Action != ActionFailed {
		t.Fatalf("action over a flipped payload %q, want failed: the payloads must be read", res.Action)
	}
}

// TestCompactVerifyAbortKeepsOld: a candidate that fails the pre-swap
// verification never reaches the filesystem — the old generation
// stays byte-for-byte intact and the failure is reported, not
// returned as an environmental error.
func TestCompactVerifyAbortKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dates.lwc")
	writeCheap(t, path, 8192, map[string][]int64{"d": workload.OrderShipDates(40000, 64, 730120, 7)})
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	testMutateCandidate = func(b []byte) []byte { b[len(b)-3] ^= 0x40; return b } // flip a payload bit
	defer func() { testMutateCandidate = nil }()

	c := New(Options{MinGainBytes: -1})
	res, err := c.CompactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ActionFailed || res.Err == nil {
		t.Fatalf("action = %q err = %v, want failed with a verification error", res.Action, res.Err)
	}
	now, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(now) != string(orig) {
		t.Fatal("failed verification must keep the old generation untouched")
	}
	if ctr := c.Counters(); ctr.Failed != 1 || ctr.Rewritten != 0 {
		t.Fatalf("counters = %+v", ctr)
	}
}

// TestCompactDir: a directory pass compacts every container and the
// report aggregates per-container outcomes.
func TestCompactDir(t *testing.T) {
	dir := t.TempDir()
	writeCheap(t, filepath.Join(dir, "a.lwc"), 8192, map[string][]int64{"x": workload.OrderShipDates(30000, 64, 730120, 1)})
	writeCheap(t, filepath.Join(dir, "b.lwc"), 8192, map[string][]int64{"y": workload.Runs(30000, 64, 1<<16, 2)})
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("ignored"), 0o644); err != nil {
		t.Fatal(err)
	}

	c := New(Options{MinGainBytes: -1})
	rep, err := c.CompactDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("visited %d container(s), want 2", len(rep.Results))
	}
	rewritten, skipped, failed, merged := rep.Counts()
	if rewritten != 2 || skipped != 0 || failed != 0 || merged != 0 {
		t.Fatalf("counts = %d/%d/%d/%d", rewritten, skipped, failed, merged)
	}
	if rep.BytesReclaimed() <= 0 {
		t.Fatalf("BytesReclaimed = %d, want > 0", rep.BytesReclaimed())
	}
}

// TestDryRunEstimates: the statistics-only estimate predicts real
// savings for a cheaply ingested directory, sorts the biggest win
// first, and writes nothing.
func TestDryRunEstimates(t *testing.T) {
	dir := t.TempDir()
	big := filepath.Join(dir, "big.lwc")
	small := filepath.Join(dir, "small.lwc")
	writeCheap(t, big, 8192, map[string][]int64{"d": workload.OrderShipDates(60000, 64, 730120, 7)})
	writeCheap(t, small, 8192, map[string][]int64{"d": workload.OrderShipDates(6000, 64, 730120, 7)})
	origBig, _ := os.ReadFile(big)
	origSmall, _ := os.ReadFile(small)

	c := New(Options{})
	ests, err := c.EstimateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 2 {
		t.Fatalf("estimated %d container(s), want 2", len(ests))
	}
	if ests[0].Path != big {
		t.Fatalf("sorted order: first is %q, want the bigger win %q", ests[0].Path, big)
	}
	for _, e := range ests {
		if e.EstSavings() <= 0 {
			t.Fatalf("%s: EstSavings = %d, want > 0 for a cheaply ingested container", e.Path, e.EstSavings())
		}
		if e.EstSavingsFraction() <= 0 || e.EstSavingsFraction() > 1 {
			t.Fatalf("%s: EstSavingsFraction = %v", e.Path, e.EstSavingsFraction())
		}
	}

	// The estimate is honest: compacting realizes at least a real win
	// where the estimator predicted one.
	res, err := New(Options{MinGainBytes: -1}).CompactFile(big)
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ActionRewritten {
		t.Fatalf("compaction after a positive estimate: %q", res.Action)
	}

	nowSmall, _ := os.ReadFile(small)
	if string(nowSmall) != string(origSmall) {
		t.Fatal("dry run mutated a container")
	}
	_ = origBig

	// A container the encoder wrote is certified block by block:
	// already the search's choice, priced at its payload.
	def := filepath.Join(t.TempDir(), "default.lwc")
	col, err := blocked.Encode(workload.OrderShipDates(60000, 64, 730120, 7), blocked.EncodeOptions{BlockSize: 8192})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := storage.WriteContainerV3(&buf, []storage.BlockedColumn{{Name: "d", Col: col}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(def, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := c.EstimateFile(def)
	if err != nil {
		t.Fatal(err)
	}
	if e.PayloadBytes == 0 || e.EstSavings() != 0 {
		t.Fatalf("default-encoded container: payload %d, EstSavings %d, want 0", e.PayloadBytes, e.EstSavings())
	}
}

// TestMergeSmall: many tiny same-table single-column containers
// coalesce into one multi-column container named for the table, the
// parts are removed, and the data survives under the filename-derived
// column names.
func TestMergeSmall(t *testing.T) {
	dir := t.TempDir()
	a := workload.LowCardinality(5000, 16, 1)
	b := workload.Sorted(5000, 1<<30, 2)
	writeCheap(t, filepath.Join(dir, "t.a.lwc"), 1024, map[string][]int64{"col0": a})
	writeCheap(t, filepath.Join(dir, "t.b.lwc"), 1024, map[string][]int64{"col0": b})
	// A different table with one part stays as it is.
	writeCheap(t, filepath.Join(dir, "u.v.lwc"), 1024, map[string][]int64{"col0": a})

	c := New(Options{MergeSmall: true})
	results, err := c.MergeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Action != ActionMerged {
		t.Fatalf("results = %+v, want one merge", results)
	}
	if len(results[0].MergedFrom) != 2 {
		t.Fatalf("MergedFrom = %v", results[0].MergedFrom)
	}
	for _, gone := range []string{"t.a.lwc", "t.b.lwc"} {
		if _, err := os.Stat(filepath.Join(dir, gone)); !os.IsNotExist(err) {
			t.Fatalf("part %s still present after merge", gone)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "u.v.lwc")); err != nil {
		t.Fatalf("singleton part was touched: %v", err)
	}
	equalCols(t, readBack(t, filepath.Join(dir, "t.lwc")), map[string][]int64{"a": a, "b": b})
	if c.Counters().Merged != 1 {
		t.Fatalf("counters = %+v", c.Counters())
	}
}

// TestMergeCarriesCertificates: merging copies blocks verbatim, search
// certificates included, so a table merged from certified parts is
// still skipped from its index.
func TestMergeCarriesCertificates(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string][]int64{
		"t.a.lwc": workload.LowCardinality(5000, 16, 1),
		"t.b.lwc": workload.Sorted(5000, 1<<30, 2),
	} {
		col, err := blocked.Encode(data, blocked.EncodeOptions{BlockSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := storage.WriteContainerV3(&buf, []storage.BlockedColumn{{Name: "col0", Col: col}}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c := New(Options{MinGainBytes: -1, MergeSmall: true})
	rep, err := c.CompactDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rewritten, skipped, failed, merged := rep.Counts()
	if merged != 1 || skipped != 1 || rewritten != 0 || failed != 0 {
		t.Fatalf("counts: merged=%d skipped=%d rewritten=%d failed=%d; results %+v", merged, skipped, rewritten, failed, rep.Results)
	}
	if res := rep.Results[1]; res.CandidateBytes != res.BytesBefore {
		t.Fatalf("merged table: candidate %d of %d bytes, want the index-only skip", res.CandidateBytes, res.BytesBefore)
	}
}

// TestMergeRefusals: groups that cannot merge cleanly are left
// untouched — an existing <table>.lwc, mismatched row counts, or a
// sibling of at least DefaultSmallBytes.
func TestMergeRefusals(t *testing.T) {
	dir := t.TempDir()
	a := workload.LowCardinality(5000, 16, 1)
	short := workload.LowCardinality(4000, 16, 1)

	// Table "w": merged name already taken.
	writeCheap(t, filepath.Join(dir, "w.a.lwc"), 1024, map[string][]int64{"col0": a})
	writeCheap(t, filepath.Join(dir, "w.b.lwc"), 1024, map[string][]int64{"col0": a})
	writeCheap(t, filepath.Join(dir, "w.lwc"), 1024, map[string][]int64{"c": a})
	// Table "x": row counts disagree.
	writeCheap(t, filepath.Join(dir, "x.a.lwc"), 1024, map[string][]int64{"col0": a})
	writeCheap(t, filepath.Join(dir, "x.b.lwc"), 1024, map[string][]int64{"col0": short})
	// Table "y": two small parts beside one of at least DefaultSmallBytes.
	writeCheap(t, filepath.Join(dir, "y.a.lwc"), 1024, map[string][]int64{"col0": a})
	writeCheap(t, filepath.Join(dir, "y.b.lwc"), 1024, map[string][]int64{"col0": a})
	big := filepath.Join(dir, "y.c.lwc")
	writeCheap(t, big, 1024, map[string][]int64{"col0": workload.UniformBits(150000, 62, 3)})
	if size := fileSize(t, big); size < DefaultSmallBytes {
		t.Fatalf("the oversized part is %d bytes, under the %d-byte bound", size, DefaultSmallBytes)
	}

	before, err := ListContainers(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Options{MergeSmall: true})
	results, err := c.MergeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("results = %+v, want none", results)
	}
	after, err := ListContainers(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("file set changed: %v -> %v", before, after)
	}
}

// TestCompactDirWithMerge: one pass merges first and then compacts
// the merged output along with everything else.
func TestCompactDirWithMerge(t *testing.T) {
	dir := t.TempDir()
	a := workload.OrderShipDates(20000, 64, 730120, 1)
	b := workload.Runs(20000, 64, 1<<16, 2)
	writeCheap(t, filepath.Join(dir, "t.a.lwc"), 4096, map[string][]int64{"col0": a})
	writeCheap(t, filepath.Join(dir, "t.b.lwc"), 4096, map[string][]int64{"col0": b})

	c := New(Options{MinGainBytes: -1, MergeSmall: true})
	rep, err := c.CompactDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rewritten, _, failed, merged := rep.Counts()
	if merged != 1 || rewritten != 1 || failed != 0 {
		t.Fatalf("counts: merged=%d rewritten=%d failed=%d; results %+v", merged, rewritten, failed, rep.Results)
	}
	equalCols(t, readBack(t, filepath.Join(dir, "t.lwc")), map[string][]int64{"a": a, "b": b})
}
