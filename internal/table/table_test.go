package table

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"lwcomp/internal/blocked"
	"lwcomp/internal/core"
	"lwcomp/internal/storage"
	"lwcomp/internal/workload"
)

// buildTable encodes the named columns with the given block size and
// wraps them in a Table.
func buildTable(t *testing.T, blockSize int, names []string, data [][]int64) (*Table, map[string][]int64) {
	t.Helper()
	cols := make([]storage.BlockedColumn, len(names))
	raw := make(map[string][]int64, len(names))
	for i, name := range names {
		col, err := blocked.Encode(data[i], blocked.EncodeOptions{BlockSize: blockSize, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		cols[i] = storage.BlockedColumn{Name: name, Col: col}
		raw[name] = data[i]
	}
	tbl, err := New(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, raw
}

// refRows filters rows [0, n) with pred over the raw columns.
func refRows(n int, pred func(row int) bool) []int64 {
	out := []int64{}
	for i := 0; i < n; i++ {
		if pred(i) {
			out = append(out, int64(i))
		}
	}
	return out
}

func equalRows(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// testData builds three 3n-row columns with mixed structure: a sorted
// date-like column, a low-cardinality status column, and a signed
// walk amount column.
func testData(n int) ([]string, [][]int64) {
	date := workload.Sorted(n, 1<<30, 11)
	status := workload.LowCardinality(n, 4, 12)
	amount := workload.RandomWalk(n, 12, 1<<30, 13)
	return []string{"date", "status", "amount"}, [][]int64{date, status, amount}
}

// checkScan asserts a scan of e over tbl matches the reference
// predicate on every surface: rows, count, sum and materialize.
func checkScan(t *testing.T, tbl *Table, raw map[string][]int64, aggCol string, e Expr, pred func(row int) bool) {
	t.Helper()
	want := refRows(tbl.NumRows(), pred)
	s, err := tbl.Scan(e)
	if err != nil {
		t.Fatalf("Scan(%s): %v", e, err)
	}
	defer s.Release()
	if got := s.Rows(); !equalRows(got, want) {
		t.Fatalf("Scan(%s): %d rows, want %d", e, len(got), len(want))
	}
	if s.Count() != len(want) {
		t.Fatalf("Scan(%s): Count = %d, want %d", e, s.Count(), len(want))
	}
	amount := raw[aggCol]
	var wantSum int64
	wantVals := []int64{}
	for _, r := range want {
		wantSum += amount[r]
		wantVals = append(wantVals, amount[r])
	}
	gotSum, err := s.Sum(aggCol)
	if err != nil {
		t.Fatalf("Sum(%s): %v", e, err)
	}
	if gotSum != wantSum {
		t.Fatalf("Sum(%s) = %d, want %d", e, gotSum, wantSum)
	}
	gotVals, err := s.Materialize(aggCol)
	if err != nil {
		t.Fatalf("Materialize(%s): %v", e, err)
	}
	if !equalRows(gotVals, wantVals) {
		t.Fatalf("Materialize(%s): %d values, want %d", e, len(gotVals), len(wantVals))
	}
}

// scanCase pairs an expression with its plain row-filter reference.
type scanCase struct {
	e    Expr
	pred func(row int) bool
}

// scanCases is the catalogue of expression shapes — leaves,
// conjunctions, disjunctions with composite children, negations,
// in-lists — over testData's three columns.
func scanCases(data [][]int64) []scanCase {
	date, status, amount := data[0], data[1], data[2]
	n := len(date)
	dLo, dHi := date[n/4], date[3*n/4]
	return []scanCase{
		{Range("date", dLo, dHi), func(r int) bool { return date[r] >= dLo && date[r] <= dHi }},
		{Eq("status", 2), func(r int) bool { return status[r] == 2 }},
		{In("status", 3, 0, 3, 1), func(r int) bool { return status[r] == 0 || status[r] == 1 || status[r] == 3 }},
		{In("status"), func(int) bool { return false }},
		{And(Range("date", dLo, dHi), Eq("status", 1)),
			func(r int) bool { return date[r] >= dLo && date[r] <= dHi && status[r] == 1 }},
		{And(), func(int) bool { return true }},
		{Or(), func(int) bool { return false }},
		{Or(Eq("status", 0), And(Range("date", dLo, dHi), Eq("status", 2))),
			func(r int) bool { return status[r] == 0 || (date[r] >= dLo && date[r] <= dHi && status[r] == 2) }},
		{Or(Not(Range("date", dLo, math.MaxInt64)), Eq("status", 3)),
			func(r int) bool { return date[r] < dLo || status[r] == 3 }},
		{Not(And(Range("date", dLo, dHi), Eq("status", 1))),
			func(r int) bool { return !(date[r] >= dLo && date[r] <= dHi && status[r] == 1) }},
		{And(Range("amount", 0, math.MaxInt64), Not(Eq("status", 0)), Range("date", math.MinInt64, dHi)),
			func(r int) bool { return amount[r] >= 0 && status[r] != 0 && date[r] <= dHi }},
		{Range("date", dHi, dLo), func(int) bool { return false }}, // inverted: matches nothing
	}
}

// encodeTable encodes data[i] with blockSizes[i] (equal sizes align;
// 0 means one block) and the given parallelism.
func encodeTable(t *testing.T, names []string, data [][]int64, blockSizes []int, parallel int) *Table {
	t.Helper()
	cols := make([]storage.BlockedColumn, len(names))
	for i, name := range names {
		col, err := blocked.Encode(data[i], blocked.EncodeOptions{
			BlockSize: blockSizes[i], Parallelism: parallel})
		if err != nil {
			t.Fatal(err)
		}
		cols[i] = storage.BlockedColumn{Name: name, Col: col}
	}
	tbl, err := New(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestScanEquivalence runs the expression catalogue against the naive
// row-filter reference, on aligned and misaligned tables and serial
// and parallel scans.
func TestScanEquivalence(t *testing.T) {
	const n = 20000
	names, data := testData(n)
	raw := map[string][]int64{"date": data[0], "status": data[1], "amount": data[2]}

	for _, shape := range []struct {
		name       string
		blockSizes []int // per column; equal sizes align
		parallel   int
	}{
		{"aligned-serial", []int{1024, 1024, 1024}, 1},
		{"aligned-parallel", []int{1024, 1024, 1024}, 4},
		{"misaligned", []int{1024, 512, 2048}, 1},
		{"single-block", []int{0, 0, 0}, 1},
	} {
		t.Run(shape.name, func(t *testing.T) {
			tbl := encodeTable(t, names, data, shape.blockSizes, shape.parallel)
			wantAligned := shape.name != "misaligned"
			if tbl.Aligned() != wantAligned {
				t.Fatalf("Aligned() = %v, want %v", tbl.Aligned(), wantAligned)
			}
			for _, tc := range scanCases(data) {
				checkScan(t, tbl, raw, "amount", tc.e, tc.pred)
			}
		})
	}
}

// TestMisalignedEquivalence runs every operation an aligned table
// offers — ScanWith rows, Aggregate (count + two sums), CountWhere,
// SumWhere, StreamBatches — over tables whose columns were encoded
// with differing block sizes, serially and in parallel, against a
// plain []int64 filter. Misaligned tables go through the same scan
// driver as aligned ones, chunk by chunk; (64, 64, 64) is the aligned
// control.
func TestMisalignedEquivalence(t *testing.T) {
	const n = 1500
	names, data := testData(n)
	raw := map[string][]int64{"date": data[0], "status": data[1], "amount": data[2]}
	ctx := context.Background()
	for _, sizes := range [][]int{
		{0, 7, 64}, {7, 64, 100}, {100, 0, 7}, {64, 100, 0}, {7, 7, 100}, {64, 64, 64},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/workers-%d", sizes, workers), func(t *testing.T) {
				tbl := encodeTable(t, names, data, sizes, workers)
				if want := sizes[0] == sizes[1] && sizes[1] == sizes[2]; tbl.Aligned() != want {
					t.Fatalf("Aligned() = %v, want %v", tbl.Aligned(), want)
				}
				for _, tc := range scanCases(data) {
					checkScan(t, tbl, raw, "amount", tc.e, tc.pred)

					want := refRows(n, tc.pred)
					var wantAmount, wantDate int64
					for _, r := range want {
						wantAmount += raw["amount"][r]
						wantDate += raw["date"][r]
					}
					agg, err := tbl.Aggregate(ctx, tc.e, []string{"amount", "date"}, ScanOptions{})
					if err != nil {
						t.Fatalf("Aggregate(%s): %v", tc.e, err)
					}
					if agg.Matched != int64(len(want)) || agg.Sums[0] != wantAmount || agg.Sums[1] != wantDate {
						t.Fatalf("Aggregate(%s) = %d rows, sums %v; want %d rows, sums [%d %d]",
							tc.e, agg.Matched, agg.Sums, len(want), wantAmount, wantDate)
					}
					if cnt, err := tbl.CountWhere(ctx, tc.e); err != nil || cnt != int64(len(want)) {
						t.Fatalf("CountWhere(%s) = %d, %v; want %d", tc.e, cnt, err, len(want))
					}
					for _, col := range []string{"amount", "date"} { // a foreign and (for date leaves) the predicate's own column
						wantSum := wantAmount
						if col == "date" {
							wantSum = wantDate
						}
						sum, cnt, err := tbl.SumWhere(ctx, tc.e, col)
						if err != nil || sum != wantSum || cnt != int64(len(want)) {
							t.Fatalf("SumWhere(%s, %s) = %d over %d rows, %v; want %d over %d",
								tc.e, col, sum, cnt, err, wantSum, len(want))
						}
					}

					s, err := tbl.ScanWith(ctx, tc.e, ScanOptions{})
					if err != nil {
						t.Fatalf("ScanWith(%s): %v", tc.e, err)
					}
					var gotRows, gotAmount, gotStatus []int64
					err = s.StreamBatches(ctx, []string{"amount", "status"}, 37,
						func(rows []int64, vals [][]int64) error {
							gotRows = append(gotRows, rows...)
							gotAmount = append(gotAmount, vals[0]...)
							gotStatus = append(gotStatus, vals[1]...)
							return nil
						})
					s.Release()
					if err != nil {
						t.Fatalf("StreamBatches(%s): %v", tc.e, err)
					}
					if !equalRows(gotRows, want) || len(gotAmount) != len(want) || len(gotStatus) != len(want) {
						t.Fatalf("StreamBatches(%s): %d rows, %d/%d values; want %d",
							tc.e, len(gotRows), len(gotAmount), len(gotStatus), len(want))
					}
					for i, r := range want {
						if gotAmount[i] != raw["amount"][r] || gotStatus[i] != raw["status"][r] {
							t.Fatalf("StreamBatches(%s): row %d streamed (%d, %d), want (%d, %d)",
								tc.e, r, gotAmount[i], gotStatus[i], raw["amount"][r], raw["status"][r])
						}
					}
				}
			})
		}
	}
}

// countingSource serves a resident column's forms and counts the
// fetches of each block.
type countingSource struct {
	orig    *blocked.Column
	mu      sync.Mutex
	fetches []int
}

func (s *countingSource) BlockForm(i int) (*core.Form, blocked.Lease, error) {
	s.mu.Lock()
	s.fetches[i]++
	s.mu.Unlock()
	return s.orig.Blocks[i].Form, blocked.Lease{}, nil
}

// take returns the most fetches any block saw and their total, and
// zeroes the counts.
func (s *countingSource) take() (most, total int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, f := range s.fetches {
		most, total = max(most, f), total+f
		s.fetches[i] = 0
	}
	return most, total
}

// TestMisalignedBlockWorkOnce pins the cost model of a misaligned
// table: a scan is cut only by the columns it reads — a one-column
// predicate walks that column's blocks, whatever the other columns'
// boundaries — and a block spanning many chunks is fetched and decoded
// once for all of them, not once per chunk.
func TestMisalignedBlockWorkOnce(t *testing.T) {
	const n, small, big = 4096, 16, 1024
	id := make([]int64, n)
	wide := make([]int64, n)
	for i := range id {
		id[i] = int64(i % 13)
		wide[i] = int64(i * 7 % 1000)
	}
	enc := func(vals []int64, bs int) *blocked.Column {
		col, err := blocked.Encode(vals, blocked.EncodeOptions{BlockSize: bs})
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	orig := enc(wide, big)
	lazy := &blocked.Column{N: n, BlockSize: big, Blocks: append([]blocked.Block(nil), orig.Blocks...)}
	for i := range lazy.Blocks {
		lazy.Blocks[i].Form = nil
	}
	src := &countingSource{orig: orig, fetches: make([]int, len(orig.Blocks))}
	lazy.Source = src
	tbl, err := New([]storage.BlockedColumn{{Name: "id", Col: enc(id, small)}, {Name: "wide", Col: lazy}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// One-column predicates: the chunks are that column's blocks.
	for _, tc := range []struct {
		e      Expr
		blocks int64
	}{{Range("id", 3, 9), n / small}, {Range("wide", 100, 800), n / big}} {
		before := tbl.ScanCounters()
		if _, err := tbl.CountWhere(ctx, tc.e); err != nil {
			t.Fatal(err)
		}
		after := tbl.ScanCounters()
		got := after.Skipped + after.Proved + after.Fetched - before.Skipped - before.Proved - before.Fetched
		if got != tc.blocks {
			t.Fatalf("%s planned %d chunks, want the column's %d blocks", tc.e, got, tc.blocks)
		}
	}
	src.take()

	// Both columns, every chunk undecided: n/small chunks, n/big blocks
	// of wide.
	e := And(Range("id", 3, 9), Range("wide", 100, 800))
	ops := map[string]func() error{
		"CountWhere": func() error { _, err := tbl.CountWhere(ctx, e); return err },
		"SumWhere":   func() error { _, _, err := tbl.SumWhere(ctx, e, "wide"); return err },
		"Aggregate": func() error {
			_, err := tbl.Aggregate(ctx, Range("id", 3, 9), []string{"wide", "id"}, ScanOptions{})
			return err
		},
		"Scan+StreamBatches": func() error {
			s, err := tbl.Scan(e)
			if err != nil {
				return err
			}
			defer s.Release()
			src.take() // the walk's own fetches, not the scan's
			return s.StreamBatches(ctx, []string{"id", "wide"}, 100, func([]int64, [][]int64) error { return nil })
		},
	}
	for name, op := range ops {
		tbl.Parallelism = 1
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if most, _ := src.take(); most != 1 {
			t.Fatalf("%s, 1 worker: a block of wide was fetched %d times, want once", name, most)
		}
		// Workers share one held block per column, so a block may be
		// decoded again around a boundary — but never once per chunk.
		tbl.Parallelism = 4
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, total := src.take(); total > n/small/4 {
			t.Fatalf("%s, 4 workers: %d fetches of wide's %d blocks over %d chunks", name, total, n/big, n/small)
		}
	}
}

// TestTableValidation covers New's error cases and Scan's column
// checking.
func TestTableValidation(t *testing.T) {
	names, data := testData(1000)
	tbl, _ := buildTable(t, 256, names, data)

	if _, err := New(nil, nil); err == nil {
		t.Fatal("New with no columns must error")
	}
	col := tbl.cols[0].Col
	if _, err := New([]storage.BlockedColumn{{Name: "", Col: col}}, nil); err == nil {
		t.Fatal("New with an unnamed column must error")
	}
	if _, err := New([]storage.BlockedColumn{{Name: "a", Col: nil}}, nil); err == nil {
		t.Fatal("New with a nil column must error")
	}
	if _, err := New([]storage.BlockedColumn{{Name: "a", Col: col}, {Name: "a", Col: col}}, nil); err == nil {
		t.Fatal("New with duplicate names must error")
	}
	short, err := blocked.Encode(data[0][:500], blocked.EncodeOptions{BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New([]storage.BlockedColumn{{Name: "a", Col: col}, {Name: "b", Col: short}}, nil); err == nil {
		t.Fatal("New with mismatched row counts must error")
	}

	if _, err := tbl.Scan(nil); err == nil {
		t.Fatal("Scan(nil) must error")
	}
	if _, err := tbl.Scan(Eq("nope", 1)); err == nil {
		t.Fatal("Scan over a missing column must error")
	}
	if _, err := tbl.Scan(And(Eq("date", 1), nil)); err == nil {
		t.Fatal("Scan with a nil operand must error")
	}
	if _, err := tbl.Scan(Not(nil)); err == nil {
		t.Fatal("Scan of Not(nil) must error")
	}
	s, err := tbl.Scan(Eq("status", 1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	if _, err := s.Sum("nope"); err == nil {
		t.Fatal("Sum over a missing column must error")
	}
	if _, err := s.Materialize("nope"); err == nil {
		t.Fatal("Materialize over a missing column must error")
	}

	if got := tbl.ColumnNames(); len(got) != 3 || got[0] != "date" {
		t.Fatalf("ColumnNames = %v", got)
	}
	if _, err := tbl.Column("status"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err) // no-op for in-memory tables
	}
}

// TestScanPruneCounts pins the planner's skip behavior on a table
// whose stats decide most blocks: only undecided blocks may consult
// payloads, which SkipStats exposes per column.
func TestScanPruneCounts(t *testing.T) {
	const n, bs = 1 << 14, 1 << 10
	// date: strictly sorted, so block ranges are disjoint; status:
	// constant per block (block i has status i%4), so Eq prunes to
	// true/false on every block.
	date := make([]int64, n)
	status := make([]int64, n)
	for i := range date {
		date[i] = int64(2 * i)
		status[i] = int64((i / bs) % 4)
	}
	tbl, raw := buildTable(t, bs, []string{"date", "status"}, [][]int64{date, status})
	lo, hi := date[3*bs], date[6*bs-1] // exactly blocks 3..5
	e := And(Range("date", lo, hi), Eq("status", 1))
	checkScan(t, tbl, raw, "date", e,
		func(r int) bool { return date[r] >= lo && date[r] <= hi && status[r] == 1 })

	// The conjunction admits only blocks 3..5 ∩ {i : i%4 == 1} = {5}.
	// Block 5 is entirely inside the date range and proved by status,
	// so even it is emitted as a run without decoding.
	s, err := tbl.Scan(e)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	if got, want := s.Count(), bs; got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
}

// TestExprSharedAcrossTables: a leaf binds its column's position to the
// table it was last checked against. One expression, scanned — in turn
// and at once — against two tables that hold its columns at different
// positions, answers for each table as a fresh expression would.
func TestExprSharedAcrossTables(t *testing.T) {
	const n = 3000
	a, b := make([]int64, n), make([]int64, n)
	for i := range a {
		a[i], b[i] = int64(i%97), int64(i*31%1000)
	}
	ab, _ := buildTable(t, 256, []string{"a", "b"}, [][]int64{a, b})
	ba, _ := buildTable(t, 256, []string{"b", "a"}, [][]int64{b, a})
	e := And(Range("b", 100, 400), In("a", 3, 4, 5, 50), Not(Eq("a", 4)))
	want := int64(0)
	for i := range a {
		if b[i] >= 100 && b[i] <= 400 && (a[i] == 3 || a[i] == 5 || a[i] == 50) {
			want++
		}
	}
	ctx := context.Background()
	check := func(tbl *Table) error {
		got, err := tbl.CountWhere(ctx, e)
		if err == nil && got != want {
			err = fmt.Errorf("count = %d, want %d", got, want)
		}
		return err
	}
	for range 3 {
		for _, tbl := range []*Table{ab, ba} {
			if err := check(tbl); err != nil {
				t.Fatal(err)
			}
		}
	}
	errs := make(chan error, 8)
	for i := range 8 {
		go func() { errs <- check([]*Table{ab, ba}[i%2]) }()
	}
	for range 8 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
