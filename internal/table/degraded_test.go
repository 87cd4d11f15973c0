package table

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"lwcomp/internal/blocked"
	"lwcomp/internal/core"
	"lwcomp/internal/storage"
)

// failingSource serves a resident column's forms but answers a
// permanent error for chosen blocks.
type failingSource struct {
	orig *blocked.Column
	fail map[int]error
}

func (s *failingSource) BlockForm(i int) (*core.Form, blocked.Lease, error) {
	if err, ok := s.fail[i]; ok {
		return nil, blocked.Lease{}, err
	}
	return s.orig.Blocks[i].Form, blocked.Lease{}, nil
}

// degradedTable builds a 3-column aligned table (a=2, b=i, amount=i%100;
// 256 rows, 4 blocks of 64) whose amount column is lazily sourced and
// fails permanently on block 2 (rows 128..191).
func degradedTable(t *testing.T) *Table {
	t.Helper()
	n := 256
	a := make([]int64, n)
	b := make([]int64, n)
	amount := make([]int64, n)
	for i := 0; i < n; i++ {
		a[i] = 2
		b[i] = int64(i)
		amount[i] = int64(i % 100)
	}
	enc := func(vals []int64) *blocked.Column {
		col, err := blocked.Encode(vals, blocked.EncodeOptions{BlockSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	amtOrig := enc(amount)
	lazy := &blocked.Column{N: amtOrig.N, BlockSize: amtOrig.BlockSize,
		Blocks: append([]blocked.Block(nil), amtOrig.Blocks...)}
	for i := range lazy.Blocks {
		lazy.Blocks[i].Form = nil
	}
	lazy.Source = &failingSource{orig: amtOrig,
		fail: map[int]error{2: fmt.Errorf("payload rot: %w", core.ErrCorruptForm)}}
	tbl, err := New([]storage.BlockedColumn{
		{Name: "a", Col: enc(a)},
		{Name: "b", Col: enc(b)},
		{Name: "amount", Col: lazy},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestFaultScanFailFastByDefault(t *testing.T) {
	tbl := degradedTable(t)
	// Eq over amount is stats-undecidable on every block, so block 2's
	// fetch fails the whole scan — today's contract, unchanged.
	if _, err := tbl.Scan(Eq("amount", 50)); !errors.Is(err, core.ErrCorruptForm) {
		t.Fatalf("default scan error = %v, want the permanent decode failure", err)
	}
	// The failure quarantined the block; a retry fails fast the same way.
	if _, err := tbl.Scan(Eq("amount", 50)); !errors.Is(err, blocked.ErrQuarantined) {
		t.Fatalf("second scan error = %v, want ErrQuarantined", err)
	}
}

func TestFaultDegradedScanExactManifest(t *testing.T) {
	tbl := degradedTable(t)
	scan, err := tbl.ScanWith(context.Background(), Eq("amount", 50), ScanOptions{Degraded: true})
	if err != nil {
		t.Fatalf("degraded scan: %v", err)
	}
	defer scan.Release()
	if !scan.Degraded() {
		t.Fatal("scan does not report degraded mode")
	}
	// amount = i%100 hits 50 at rows 50, 150, 250; row 150 lives in the
	// unreadable block, so a degraded scan finds exactly the other two.
	if got := scan.Count(); got != 2 {
		t.Fatalf("degraded count = %d, want 2 (row 150 omitted)", got)
	}
	rows := scan.Rows()
	if len(rows) != 2 || rows[0] != 50 || rows[1] != 250 {
		t.Fatalf("degraded rows = %v, want [50 250]", rows)
	}
	sk := scan.Manifest().Skipped()
	if len(sk) != 1 {
		t.Fatalf("manifest = %v, want exactly one entry", sk)
	}
	want := SkippedBlock{Column: "amount", Block: 2, RowStart: 128, RowCount: 64, Reason: sk[0].Reason}
	if sk[0] != want {
		t.Fatalf("manifest entry = %+v, want %+v", sk[0], want)
	}
	if sk[0].Reason == "" {
		t.Fatal("manifest entry has no reason")
	}
	// The matched rows still aggregate exactly.
	sum, err := scan.Sum("a")
	if err != nil {
		t.Fatalf("sum over healthy column: %v", err)
	}
	if sum != 4 {
		t.Fatalf("sum(a) over 2 matches = %d, want 4", sum)
	}
}

func TestFaultDegradedSumSkipsBlock(t *testing.T) {
	tbl := degradedTable(t)
	// The empty conjunction matches every row without touching amount;
	// the failure then happens in the aggregation phase, which knows
	// the failing column directly.
	scan, err := tbl.ScanWith(context.Background(), And(), ScanOptions{Degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	defer scan.Release()
	sum, err := scan.SumContext(context.Background(), "amount")
	if err != nil {
		t.Fatalf("degraded sum: %v", err)
	}
	// Full sum of i%100 over 0..255 is 11440; block 2 (rows 128..191,
	// values 28..91) contributes 3808.
	if want := int64(11440 - 3808); sum != want {
		t.Fatalf("degraded sum = %d, want %d", sum, want)
	}
	sk := scan.Manifest().Skipped()
	if len(sk) != 1 || sk[0].Column != "amount" || sk[0].Block != 2 {
		t.Fatalf("manifest after sum = %v", sk)
	}
}

func TestFaultDegradedStreamSkipsBlock(t *testing.T) {
	tbl := degradedTable(t)
	scan, err := tbl.ScanWith(context.Background(), And(), ScanOptions{Degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	defer scan.Release()
	var rows []int64
	var sumB, sumAmt int64
	err = scan.StreamBatches(context.Background(), []string{"b", "amount"}, 50,
		func(r []int64, vals [][]int64) error {
			rows = append(rows, r...)
			for _, v := range vals[0] {
				sumB += v
			}
			for _, v := range vals[1] {
				sumAmt += v
			}
			return nil
		})
	if err != nil {
		t.Fatalf("degraded stream: %v", err)
	}
	if len(rows) != 192 {
		t.Fatalf("streamed %d rows, want 192 (one block of 64 omitted)", len(rows))
	}
	for _, r := range rows {
		if r >= 128 && r < 192 {
			t.Fatalf("row %d from the unreadable block leaked into the stream", r)
		}
	}
	// Both projected columns stay in lockstep: b sums to the row ids,
	// amount to their values — over exactly the surviving rows.
	var wantB, wantAmt int64
	for i := int64(0); i < 256; i++ {
		if i >= 128 && i < 192 {
			continue
		}
		wantB += i
		wantAmt += i % 100
	}
	if sumB != wantB || sumAmt != wantAmt {
		t.Fatalf("streamed sums b=%d amount=%d, want %d and %d", sumB, sumAmt, wantB, wantAmt)
	}
	sk := scan.Manifest().Skipped()
	if len(sk) != 1 || sk[0].Column != "amount" || sk[0].Block != 2 {
		t.Fatalf("manifest after stream = %v", sk)
	}
}

func TestFaultDegradedDefaultViaTableFlag(t *testing.T) {
	tbl := degradedTable(t)
	tbl.Degraded = true
	scan, err := tbl.ScanContext(context.Background(), Eq("amount", 50))
	if err != nil {
		t.Fatalf("scan with table-level degraded default: %v", err)
	}
	defer scan.Release()
	if scan.Count() != 2 || scan.Manifest().Len() != 1 {
		t.Fatalf("count=%d manifest=%d", scan.Count(), scan.Manifest().Len())
	}
}

// TestFaultDegradedMisaligned: a degraded scan on a table whose columns
// do not share block boundaries skips exactly the chunks that need the
// unreadable block and records that block — the failing column's, with
// its own row range — once, however many chunks it spans. Scan,
// Aggregate and StreamBatches all go through the chunked driver.
func TestFaultDegradedMisaligned(t *testing.T) {
	const n = 400
	id := make([]int64, n)
	amount := make([]int64, n)
	for i := range id {
		id[i] = int64(i)
		amount[i] = int64(i % 10)
	}
	enc := func(vals []int64, bs int) *blocked.Column {
		col, err := blocked.Encode(vals, blocked.EncodeOptions{BlockSize: bs})
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	// amount: blocks of 100 rows, block 1 (rows 100..199) rotten; id:
	// blocks of 64, so the rotten block spans chunks [100,128),
	// [128,192) and [192,200).
	amtOrig := enc(amount, 100)
	lazy := &blocked.Column{N: n, BlockSize: 100, Blocks: append([]blocked.Block(nil), amtOrig.Blocks...)}
	for i := range lazy.Blocks {
		lazy.Blocks[i].Form = nil
	}
	lazy.Source = &failingSource{orig: amtOrig,
		fail: map[int]error{1: fmt.Errorf("payload rot: %w", core.ErrCorruptForm)}}
	tbl, err := New([]storage.BlockedColumn{{Name: "id", Col: enc(id, 64)}, {Name: "amount", Col: lazy}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Aligned() {
		t.Fatal("fixture is aligned")
	}
	ctx := context.Background()
	wantEntry := SkippedBlock{Column: "amount", Block: 1, RowStart: 100, RowCount: 100}
	checkManifest := func(what string, man *Manifest) {
		t.Helper()
		sk := man.Skipped()
		if len(sk) != 1 {
			t.Fatalf("%s: manifest = %+v, want exactly one entry", what, sk)
		}
		if sk[0].Reason == "" {
			t.Fatalf("%s: manifest entry has no reason", what)
		}
		sk[0].Reason = ""
		if sk[0] != wantEntry {
			t.Fatalf("%s: manifest entry = %+v, want %+v", what, sk[0], wantEntry)
		}
	}
	outside := func(r int64) bool { return r < 100 || r >= 200 }

	// Default scans stay fail-fast.
	if _, err := tbl.Scan(Eq("amount", 3)); !errors.Is(err, core.ErrCorruptForm) {
		t.Fatalf("default scan error = %v, want the permanent decode failure", err)
	}

	// amount = i%10 is 3 on 40 rows, 10 of them inside the rotten block.
	scan, err := tbl.ScanWith(ctx, Eq("amount", 3), ScanOptions{Degraded: true})
	if err != nil {
		t.Fatalf("degraded scan: %v", err)
	}
	rows := scan.Rows()
	if len(rows) != 30 {
		t.Fatalf("degraded scan found %d rows, want 30", len(rows))
	}
	for _, r := range rows {
		if !outside(r) || r%10 != 3 {
			t.Fatalf("degraded scan returned row %d", r)
		}
	}
	checkManifest("scan", scan.Manifest())
	scan.Release()

	agg, err := tbl.Aggregate(ctx, Eq("amount", 3), []string{"id"}, ScanOptions{Degraded: true})
	if err != nil {
		t.Fatalf("degraded aggregate: %v", err)
	}
	var wantID int64
	for _, r := range rows {
		wantID += r
	}
	if agg.Matched != 30 || agg.Sums[0] != wantID {
		t.Fatalf("degraded aggregate = %d rows, sum(id) %d; want 30, %d", agg.Matched, agg.Sums[0], wantID)
	}
	checkManifest("aggregate", agg.Manifest)

	// The recorded range bounds the omitted rows: id's stats prove chunk
	// [128,192) without amount, so its 64 rows are answered although they
	// lie inside the rotten block; only chunks [100,128) and [192,200),
	// which needed it, are dropped.
	scan, err = tbl.ScanWith(ctx, Or(Eq("amount", 3), Range("id", 128, 191)), ScanOptions{Degraded: true})
	if err != nil {
		t.Fatalf("degraded or-scan: %v", err)
	}
	if got := scan.Count(); got != 30+64 {
		t.Fatalf("degraded or-scan found %d rows, want 94", got)
	}
	checkManifest("or-scan", scan.Manifest())
	scan.Release()

	// Projection side: every row matches without touching amount; the
	// stream then drops the three chunks of the rotten block, in
	// lockstep across both columns.
	scan, err = tbl.ScanWith(ctx, And(), ScanOptions{Degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	defer scan.Release()
	var streamed int
	err = scan.StreamBatches(ctx, []string{"id", "amount"}, 50, func(r []int64, vals [][]int64) error {
		for i, row := range r {
			if !outside(row) || vals[0][i] != row || vals[1][i] != row%10 {
				t.Fatalf("streamed row %d with values (%d, %d)", row, vals[0][i], vals[1][i])
			}
		}
		streamed += len(r)
		return nil
	})
	if err != nil {
		t.Fatalf("degraded stream: %v", err)
	}
	if streamed != 300 {
		t.Fatalf("streamed %d rows, want 300", streamed)
	}
	checkManifest("stream", scan.Manifest())
}
