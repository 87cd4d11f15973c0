package lwcomp_test

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"lwcomp"
)

// buildTableFixture encodes a three-column table crafted so every
// block's verdict under the two-predicate scan is known exactly:
//
//   - date:   sorted (3*i), so block b holds [3*b*bs, 3*(b+1)*bs - 3]
//     and consecutive blocks carry disjoint ranges;
//   - status: blocks 0..7 are constant 0 (stats refute status = 1),
//     later blocks alternate 0/1 (stats cannot decide);
//   - amount: i, for aggregation checks.
//
// All columns share one block size, so the table is aligned and the
// v3 container it serializes to can be scanned per block.
func buildTableFixture(t *testing.T, n, bs int) (date, status, amount []int64, container []byte) {
	t.Helper()
	date = make([]int64, n)
	status = make([]int64, n)
	amount = make([]int64, n)
	for i := 0; i < n; i++ {
		date[i] = int64(3 * i)
		if i/bs >= 8 && i%2 == 1 {
			status[i] = 1
		}
		amount[i] = int64(i)
	}
	var cols []lwcomp.NamedColumn
	for _, c := range []struct {
		name string
		data []int64
	}{{"date", date}, {"status", status}, {"amount", amount}} {
		col, err := lwcomp.Encode(c.data, lwcomp.WithBlockSize(bs), lwcomp.WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, lwcomp.NamedColumn{Name: c.name, Col: col})
	}
	var buf bytes.Buffer
	if err := lwcomp.WriteColumns(&buf, cols); err != nil {
		t.Fatal(err)
	}
	return date, status, amount, buf.Bytes()
}

// allExtents opens data from disk and returns every column's payload
// extents (by column index, in container order) plus the payload
// region's file offset.
func allExtents(t *testing.T, data []byte) ([][]lwcomp.BlockExtent, int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tbl.lwc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cf, err := lwcomp.OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	var out [][]lwcomp.BlockExtent
	for ci := range cf.Columns() {
		ext := cf.Extents(ci)
		if ext == nil {
			t.Fatal("no extents on a v3 container")
		}
		out = append(out, ext)
	}
	_, payloadStart := containerExtents(t, data)
	return out, payloadStart
}

// TestTableScanColdReadsOnlyAdmittedBlocks is the PR's acceptance
// criterion: a two-predicate scan on a cold lazily opened container
// decodes only the blocks admitted by BOTH predicates' [min, max]
// stats, asserted through the counting io.ReaderAt. The fixture makes
// the admitted set exact: date admits blocks 6..10 (6 and 10
// partially), status = 1 is refuted on blocks 0..7 and undecided
// after, so the conjunction fetches status on blocks 8 and 9 (date is
// proved there), both columns on block 10, and nothing anywhere else.
func TestTableScanColdReadsOnlyAdmittedBlocks(t *testing.T) {
	const n, bs = 1 << 16, 4096
	date, status, amount, data := buildTableFixture(t, n, bs)
	extents, payloadStart := allExtents(t, data)
	const dateCol, statusCol, amountCol = 0, 1, 2

	ra := &countingReaderAt{data: data}
	tbl, err := lwcomp.OpenTableReader(ra, int64(len(data)),
		lwcomp.WithBlockCache(0), lwcomp.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	if !tbl.Aligned() {
		t.Fatal("fixture table must be aligned")
	}

	lo, hi := date[6*bs+100], date[10*bs+99] // inside blocks 6 and 10
	expr := lwcomp.And(lwcomp.Range("date", lo, hi), lwcomp.Eq("status", 1))

	ra.reset()
	scan, err := tbl.Scan(expr)
	if err != nil {
		t.Fatal(err)
	}
	defer scan.Release()

	// Reference count over the raw columns.
	want := 0
	for i := range date {
		if date[i] >= lo && date[i] <= hi && status[i] == 1 {
			want++
		}
	}
	if got := scan.Count(); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}

	// The scan may have read exactly: status blocks 8 and 9 (date
	// proved there by stats), and date + status on block 10 (both
	// undecided). Blocks refuted by either conjunct were never
	// fetched.
	expected := [][2]int64{
		extentRange(extents[statusCol][8], payloadStart),
		extentRange(extents[statusCol][9], payloadStart),
		extentRange(extents[dateCol][10], payloadStart),
		extentRange(extents[statusCol][10], payloadStart),
	}
	_, _, ranges := ra.snapshot()
	assertSameReads(t, "scan", ranges, expected)

	// Late materialization: summing amount fetches exactly the three
	// amount blocks holding surviving bits, nothing else.
	ra.reset()
	gotSum, err := scan.Sum("amount")
	if err != nil {
		t.Fatal(err)
	}
	var wantSum int64
	for i := range amount {
		if date[i] >= lo && date[i] <= hi && status[i] == 1 {
			wantSum += amount[i]
		}
	}
	if gotSum != wantSum {
		t.Fatalf("Sum = %d, want %d", gotSum, wantSum)
	}
	expected = [][2]int64{
		extentRange(extents[amountCol][8], payloadStart),
		extentRange(extents[amountCol][9], payloadStart),
		extentRange(extents[amountCol][10], payloadStart),
	}
	_, _, ranges = ra.snapshot()
	assertSameReads(t, "sum", ranges, expected)
}

// extentRange converts a block extent to an absolute [offset, length]
// pair as the counting reader records them.
func extentRange(e lwcomp.BlockExtent, payloadStart int64) [2]int64 {
	return [2]int64{payloadStart + e.Offset, e.Bytes}
}

// assertSameReads compares the recorded reads against the expected
// extents as sets (the serial scan is deterministic, but the order of
// conjunct evaluation is a planner detail tests should not pin).
func assertSameReads(t *testing.T, phase string, got, want [][2]int64) {
	t.Helper()
	sortReads := func(rs [][2]int64) {
		sort.Slice(rs, func(i, j int) bool {
			if rs[i][0] != rs[j][0] {
				return rs[i][0] < rs[j][0]
			}
			return rs[i][1] < rs[j][1]
		})
	}
	sortReads(got)
	sortReads(want)
	if len(got) != len(want) {
		t.Fatalf("%s: issued %d reads %v, want %d %v", phase, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: read %d is [%d, +%d), want [%d, +%d)",
				phase, i, got[i][0], got[i][1], want[i][0], want[i][1])
		}
	}
}

// TestOpenTableQueries exercises the path-based open and the full
// expression surface against raw-data references, including a
// misaligned table (different block sizes per column in one
// container) and projection.
func TestOpenTableQueries(t *testing.T) {
	const n, bs = 1 << 14, 1024
	date, status, amount, data := buildTableFixture(t, n, bs)
	path := filepath.Join(t.TempDir(), "tbl.lwc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tbl, err := lwcomp.OpenTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	if tbl.NumRows() != n {
		t.Fatalf("NumRows = %d, want %d", tbl.NumRows(), n)
	}

	for _, tc := range []struct {
		expr lwcomp.Expr
		pred func(i int) bool
	}{
		{lwcomp.Or(lwcomp.In("status", 1), lwcomp.Range("date", 0, date[bs/2])),
			func(i int) bool { return status[i] == 1 || date[i] <= date[bs/2] }},
		{lwcomp.Not(lwcomp.Range("amount", 0, math.MaxInt64)),
			func(int) bool { return false }},
		{lwcomp.And(lwcomp.Not(lwcomp.Eq("status", 0)), lwcomp.Range("amount", int64(n/2), math.MaxInt64)),
			func(i int) bool { return status[i] != 0 && amount[i] >= int64(n/2) }},
	} {
		scan, err := tbl.Scan(tc.expr)
		if err != nil {
			t.Fatalf("Scan(%s): %v", tc.expr, err)
		}
		wantRows := []int64{}
		for i := 0; i < n; i++ {
			if tc.pred(i) {
				wantRows = append(wantRows, int64(i))
			}
		}
		if got := scan.Rows(); !equal(got, wantRows) {
			t.Fatalf("Scan(%s): %d rows, want %d", tc.expr, len(got), len(wantRows))
		}
		vals, err := scan.Materialize("date")
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != len(wantRows) {
			t.Fatalf("Materialize: %d values, want %d", len(vals), len(wantRows))
		}
		for i, r := range wantRows {
			if vals[i] != date[r] {
				t.Fatalf("Materialize[%d] = %d, want %d", i, vals[i], date[r])
			}
		}
		scan.Release()
	}

	// A parsed predicate scans identically to its constructed twin.
	parsed, err := lwcomp.ParsePredicate("status = 1 and date >= 1000")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := tbl.Scan(parsed)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := tbl.Scan(lwcomp.And(lwcomp.Eq("status", 1), lwcomp.Range("date", 1000, math.MaxInt64)))
	if err != nil {
		t.Fatal(err)
	}
	if s1.Count() != s2.Count() {
		t.Fatalf("parsed scan = %d rows, constructed = %d", s1.Count(), s2.Count())
	}
	s2.Release()
	s1.Release()

	// Misaligned: the same logical table with per-column block sizes
	// must answer identically, chunk by chunk.
	var cols []lwcomp.NamedColumn
	for _, c := range []struct {
		name string
		data []int64
		bs   int
	}{{"date", date, 512}, {"status", status, 2048}, {"amount", amount, 1024}} {
		col, err := lwcomp.Encode(c.data, lwcomp.WithBlockSize(c.bs))
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, lwcomp.NamedColumn{Name: c.name, Col: col})
	}
	mis, err := lwcomp.NewTable(cols)
	if err != nil {
		t.Fatal(err)
	}
	if mis.Aligned() {
		t.Fatal("mixed block sizes must not report aligned")
	}
	expr := lwcomp.And(lwcomp.Eq("status", 1), lwcomp.Range("date", 1000, 90000))
	sa, err := tbl.Scan(expr)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := mis.Scan(expr)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(sa.Rows(), sm.Rows()) {
		t.Fatal("misaligned table diverges from the aligned plan")
	}
	sm.Release()
	sa.Release()

	// A narrow amount range selects first, so the status equality is
	// a later conjunct whose 512-row chunk lies inside a 2048-row
	// block: it keeps on a window of the decoded block.
	lo, hi := int64(n/2+100), int64(n/2+300)
	want := int64(0)
	for i := range n {
		if amount[i] >= lo && amount[i] <= hi && status[i] == 1 {
			want++
		}
	}
	if got, err := mis.CountWhere(context.Background(),
		lwcomp.And(lwcomp.Eq("status", 1), lwcomp.Range("amount", lo, hi))); err != nil || got != want {
		t.Fatalf("misaligned conjunct kept on a window: CountWhere = %d, %v; want %d", got, err, want)
	}
}

// TestColumnCacheStats pins the satellite: cache accounting is
// reachable from a lazily opened column handle itself, without the
// container, and reports the shared cache's traffic; in-memory
// columns report no cache.
func TestColumnCacheStats(t *testing.T) {
	const n, bs = 1 << 14, 1024
	_, _, _, data := buildTableFixture(t, n, bs)
	tbl, err := lwcomp.OpenTableReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()

	col, err := tbl.Column("status")
	if err != nil {
		t.Fatal(err)
	}
	stats, ok := col.CacheStats()
	if !ok {
		t.Fatal("lazily opened column must expose cache stats")
	}
	if stats.Misses != 0 || stats.Hits != 0 {
		t.Fatalf("cold cache reports traffic: %+v", stats)
	}
	if stats.BytesBudget != lwcomp.DefaultBlockCacheBytes {
		t.Fatalf("budget = %d, want default %d", stats.BytesBudget, lwcomp.DefaultBlockCacheBytes)
	}

	// First scan misses, a repeat hits the shared cache.
	expr := lwcomp.Eq("status", 1)
	for pass := 0; pass < 2; pass++ {
		s, err := tbl.Scan(expr)
		if err != nil {
			t.Fatal(err)
		}
		s.Release()
	}
	stats, _ = col.CacheStats()
	if stats.Misses == 0 || stats.Hits == 0 {
		t.Fatalf("warm cache reports no traffic: %+v", stats)
	}
	if stats.BytesUsed <= 0 {
		t.Fatalf("cache holds no bytes after scans: %+v", stats)
	}

	// The column-level view and the container-level view are the same
	// shared cache.
	other, err := tbl.Column("date")
	if err != nil {
		t.Fatal(err)
	}
	otherStats, ok := other.CacheStats()
	if !ok || otherStats != stats {
		t.Fatalf("columns disagree on the shared cache: %+v vs %+v", otherStats, stats)
	}

	// In-memory columns have no cache to report.
	mem, err := lwcomp.Encode([]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mem.CacheStats(); ok {
		t.Fatal("in-memory column must not report cache stats")
	}
}
