package table

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"lwcomp/internal/blocked"
	"lwcomp/internal/storage"
)

// countCloser counts Close calls — the probe for the exactly-once
// contract.
type countCloser struct {
	n   atomic.Int64
	err error
}

func (c *countCloser) Close() error {
	c.n.Add(1)
	return c.err
}

// TestCloseExactlyOnce: a table over several closers closes each
// exactly once, no matter how many goroutines race Close, and every
// call returns the first close's error.
func TestCloseExactlyOnce(t *testing.T) {
	names, data := testData(500)
	tbl, _ := buildTable(t, 256, names, data)
	closers := []*countCloser{{}, {err: errors.New("boom")}, {}}
	for _, c := range closers {
		tbl.closers = append(tbl.closers, c)
	}

	const goroutines = 16
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = tbl.Close()
		}(i)
	}
	wg.Wait()
	for _, c := range closers {
		if got := c.n.Load(); got != 1 {
			t.Fatalf("closer closed %d times, want exactly 1", got)
		}
	}
	for i, err := range errs {
		if err == nil || err.Error() != "boom" {
			t.Fatalf("Close from goroutine %d = %v, want the first closer error", i, err)
		}
	}
}

// TestScanContextCancelled: an already-cancelled context stops the
// scan before it fetches anything, and an expired deadline surfaces
// as context.DeadlineExceeded from every context-taking entry point.
func TestScanContextCancelled(t *testing.T) {
	names, data := testData(2000)
	tbl, _ := buildTable(t, 256, names, data)
	// A threshold drawn from the data itself guarantees blocks the
	// stats cannot decide — the scan must reach its per-block ctx
	// check rather than skipping everything.
	pred := Range("amount", data[2][len(data[2])/2], math.MaxInt64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := tbl.ScanContext(ctx, pred); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScanContext on cancelled ctx = %v, want context.Canceled", err)
	}

	s, err := tbl.ScanContext(context.Background(), pred)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	if _, err := s.SumContext(ctx, "amount"); !errors.Is(err, context.Canceled) {
		t.Fatalf("SumContext on cancelled ctx = %v, want context.Canceled", err)
	}
	err = s.StreamBatches(ctx, []string{"amount"}, 128, func([]int64, [][]int64) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("StreamBatches on cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestStreamBatches: the streamed (row, value) pairs across all
// batches equal the Rows/Materialize result, batch sizes respect the
// cap, and a callback error aborts the stream and propagates.
func TestStreamBatches(t *testing.T) {
	names, data := testData(3000)
	tbl, raw := buildTable(t, 256, names, data) // block size 256 → many blocks
	// Select roughly the upper half of the walk — enough survivors
	// spread over enough blocks to exercise multi-batch flushing.
	s, err := tbl.Scan(Range("amount", data[2][len(data[2])/2], math.MaxInt64))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()

	wantRows := s.Rows()
	wantAmount, err := s.Materialize("amount")
	if err != nil {
		t.Fatal(err)
	}

	const batch = 100
	var gotRows, gotAmount, gotDate []int64
	err = s.StreamBatches(context.Background(), []string{"amount", "date"}, batch,
		func(rows []int64, vals [][]int64) error {
			if len(rows) == 0 || len(rows) > batch {
				t.Fatalf("batch of %d rows, want 1..%d", len(rows), batch)
			}
			if len(vals) != 2 || len(vals[0]) != len(rows) || len(vals[1]) != len(rows) {
				t.Fatalf("batch shape rows=%d vals=%d/%d", len(rows), len(vals[0]), len(vals[1]))
			}
			// The contract: slices are reused across calls, copy out.
			gotRows = append(gotRows, rows...)
			gotAmount = append(gotAmount, vals[0]...)
			gotDate = append(gotDate, vals[1]...)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !equalRows(gotRows, wantRows) {
		t.Fatalf("streamed %d rows, want %d", len(gotRows), len(wantRows))
	}
	if !equalRows(gotAmount, wantAmount) {
		t.Fatalf("streamed amount values diverge from Materialize")
	}
	for i, r := range gotRows {
		if gotDate[i] != raw["date"][r] {
			t.Fatalf("row %d: date %d, want %d", r, gotDate[i], raw["date"][r])
		}
	}

	// A callback error aborts the stream and comes back verbatim.
	sentinel := errors.New("stop")
	calls := 0
	err = s.StreamBatches(context.Background(), []string{"amount"}, batch,
		func([]int64, [][]int64) error { calls++; return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("StreamBatches after callback error = %v, want sentinel", err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times after erroring, want 1", calls)
	}
}

// TestStreamBatchesMisaligned streams a column whose block boundaries
// differ from the scanned one's: the walk goes chunk by chunk.
func TestStreamBatchesMisaligned(t *testing.T) {
	_, data := testData(1000)
	// Different block sizes per column make the table misaligned.
	colA, err := blocked.Encode(data[0], blocked.EncodeOptions{BlockSize: 256, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	colB, err := blocked.Encode(data[1], blocked.EncodeOptions{BlockSize: 512, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := NewWithClosers([]storage.BlockedColumn{
		{Name: "date", Col: colA},
		{Name: "status", Col: colB},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Aligned() {
		t.Fatal("mixed block sizes reported aligned")
	}

	s, err := mixed.Scan(Range("date", 0, 1<<62))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	var got []int64
	err = s.StreamBatches(context.Background(), []string{"status"}, 100,
		func(rows []int64, vals [][]int64) error {
			got = append(got, vals[0]...)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !equalRows(got, data[1]) {
		t.Fatalf("misaligned stream returned %d values, want %d", len(got), len(data[1]))
	}
}
