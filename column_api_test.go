package lwcomp_test

import (
	"bytes"
	"strings"
	"testing"

	"lwcomp"
	"lwcomp/internal/workload"
)

// equivalenceWorkloads are the column shapes the blocked API must
// answer identically to the free-function path on.
func equivalenceWorkloads(n int) map[string][]int64 {
	return map[string][]int64{
		"dates":    workload.OrderShipDates(n, 64, 730120, 1),
		"walk":     workload.RandomWalk(n, 10, 1<<30, 2),
		"outliers": workload.OutlierWalk(n, 10, 0.01, 1<<38, 3),
		"trend":    workload.TrendNoise(n, 8, 12, 4),
		"lowcard":  workload.LowCardinality(n, 32, 5),
		"skewed":   workload.SkewedMagnitude(n, 40, 6),
		"runs":     workload.Runs(n, 64, 1<<16, 7),
		"sorted":   workload.Sorted(n, 1<<40, 8),
		"uniform":  workload.UniformBits(n, 16, 9),
	}
}

// TestColumnQueryEquivalence is the acceptance-criteria test: for
// every workload and every block size in {1Ki, 16Ki, whole column},
// each Column query method returns results identical to the
// free-function path on the unblocked form.
func TestColumnQueryEquivalence(t *testing.T) {
	const n = 40000
	for name, data := range equivalenceWorkloads(n) {
		form, err := lwcomp.CompressBest(data)
		if err != nil {
			t.Fatalf("%s: CompressBest: %v", name, err)
		}
		wantSum, err := lwcomp.Sum(form)
		if err != nil {
			t.Fatalf("%s: Sum: %v", name, err)
		}
		wantMin, err := lwcomp.Min(form)
		if err != nil {
			t.Fatalf("%s: Min: %v", name, err)
		}
		wantMax, err := lwcomp.Max(form)
		if err != nil {
			t.Fatalf("%s: Max: %v", name, err)
		}
		// A range straddling the value middle plus both degenerate
		// directions.
		lo, hi := data[n/4], data[3*n/4]
		if lo > hi {
			lo, hi = hi, lo
		}
		wantCount, err := lwcomp.CountRange(form, lo, hi)
		if err != nil {
			t.Fatalf("%s: CountRange: %v", name, err)
		}
		wantRows, err := lwcomp.SelectRange(form, lo, hi)
		if err != nil {
			t.Fatalf("%s: SelectRange: %v", name, err)
		}

		for _, bs := range []int{1 << 10, 1 << 14, 0} {
			col, err := lwcomp.Encode(data, lwcomp.WithBlockSize(bs))
			if err != nil {
				t.Fatalf("%s/bs=%d: Encode: %v", name, bs, err)
			}
			if err := col.Validate(); err != nil {
				t.Fatalf("%s/bs=%d: Validate: %v", name, bs, err)
			}
			if got, err := col.Sum(); err != nil || got != wantSum {
				t.Fatalf("%s/bs=%d: Sum = %d, want %d (%v)", name, bs, got, wantSum, err)
			}
			if got, err := col.Min(); err != nil || got != wantMin {
				t.Fatalf("%s/bs=%d: Min = %d, want %d (%v)", name, bs, got, wantMin, err)
			}
			if got, err := col.Max(); err != nil || got != wantMax {
				t.Fatalf("%s/bs=%d: Max = %d, want %d (%v)", name, bs, got, wantMax, err)
			}
			if got, err := col.CountRange(lo, hi); err != nil || got != wantCount {
				t.Fatalf("%s/bs=%d: CountRange = %d, want %d (%v)", name, bs, got, wantCount, err)
			}
			rows, err := col.SelectRange(lo, hi)
			if err != nil || !equal(rows, wantRows) {
				t.Fatalf("%s/bs=%d: SelectRange mismatch (%d vs %d rows, %v)",
					name, bs, len(rows), len(wantRows), err)
			}
			back, err := col.Decompress()
			if err != nil || !equal(back, data) {
				t.Fatalf("%s/bs=%d: Decompress mismatch (%v)", name, bs, err)
			}
			for _, row := range []int64{0, int64(n / 3), int64(n) - 1} {
				got, err := col.PointLookup(row)
				if err != nil || got != data[row] {
					t.Fatalf("%s/bs=%d: PointLookup(%d) = %d, want %d (%v)",
						name, bs, row, got, data[row], err)
				}
			}
		}
	}
}

// TestColumnPerBlockRecomposition is the acceptance-criteria test
// that per-block re-composition is observable: a column whose halves
// favor different schemes must show different winners in Describe().
func TestColumnPerBlockRecomposition(t *testing.T) {
	const half = 1 << 14
	// First half: long runs of slowly increasing dates (RLE country).
	// Second half: full-width noise (NS/VNS country).
	data := append(workload.OrderShipDates(half, 256, 730120, 1),
		workload.UniformBits(half, 40, 2)...)

	col, err := lwcomp.Encode(data, lwcomp.WithBlockSize(half))
	if err != nil {
		t.Fatal(err)
	}
	if col.NumBlocks() != 2 {
		t.Fatalf("blocks = %d, want 2", col.NumBlocks())
	}
	schemes := col.BlockSchemes()
	if schemes[0] == schemes[1] {
		t.Fatalf("both blocks chose %q; want divergent schemes", schemes[0])
	}
	desc := col.Describe()
	if !strings.Contains(desc, schemes[0]) || !strings.Contains(desc, schemes[1]) {
		t.Fatalf("Describe does not surface both schemes:\n%s", desc)
	}
	if !strings.Contains(schemes[0], "rle") {
		t.Errorf("run-heavy block chose %q, expected an rle composite", schemes[0])
	}
	// And the whole still round-trips.
	back, err := col.Decompress()
	if err != nil || !equal(back, data) {
		t.Fatalf("roundtrip: %v", err)
	}
}

// TestColumnParallelismDeterminism: worker count must not change the
// encoded result — every block's bytes are identical across
// parallelism levels.
func TestColumnParallelismDeterminism(t *testing.T) {
	data := workload.OrderShipDates(1<<16, 64, 730120, 3)
	var want [][]byte
	for _, p := range []int{1, 4, 16} {
		col, err := lwcomp.Encode(data, lwcomp.WithBlockSize(1<<12), lwcomp.WithParallelism(p))
		if err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		for i := range col.Blocks {
			enc, err := lwcomp.EncodeForm(col.Blocks[i].Form)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, enc)
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("p=%d: %d blocks, want %d", p, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("p=%d: block %d bytes differ from p=1", p, i)
			}
		}
	}
}

// TestColumnBuilderMatchesEncode: the streaming path must produce
// the same blocks as the batch path, regardless of append batching.
func TestColumnBuilderMatchesEncode(t *testing.T) {
	const n, bs = 50000, 1 << 12
	data := workload.RandomWalk(n, 12, 1<<33, 4)
	want, err := lwcomp.Encode(data, lwcomp.WithBlockSize(bs))
	if err != nil {
		t.Fatal(err)
	}

	b := lwcomp.NewColumnBuilder(lwcomp.WithBlockSize(bs))
	for i := 0; i < n; i += 777 {
		end := i + 777
		if end > n {
			end = n
		}
		if err := b.Append(data[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	col, err := b.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if col.N != want.N || col.NumBlocks() != want.NumBlocks() {
		t.Fatalf("builder column n=%d blocks=%d, want n=%d blocks=%d",
			col.N, col.NumBlocks(), want.N, want.NumBlocks())
	}
	for i := range col.Blocks {
		a, err := lwcomp.EncodeForm(col.Blocks[i].Form)
		if err != nil {
			t.Fatal(err)
		}
		bbytes, err := lwcomp.EncodeForm(want.Blocks[i].Form)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, bbytes) {
			t.Fatalf("block %d differs between builder and Encode", i)
		}
	}
	if _, err := b.Flush(); err == nil {
		t.Fatal("second Flush must fail")
	}
	if err := b.Append([]int64{1}); err == nil {
		t.Fatal("Append after Flush must fail")
	}
}

// TestColumnOptions covers WithScheme on the blocked path.
func TestColumnOptions(t *testing.T) {
	data := workload.SkewedMagnitude(30000, 40, 5)

	pinned, err := lwcomp.Encode(data, lwcomp.WithBlockSize(1<<12), lwcomp.WithScheme(lwcomp.Varint()))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range pinned.BlockSchemes() {
		if s != "varint" {
			t.Fatalf("pinned scheme: block chose %q", s)
		}
	}
	back, err := pinned.Decompress()
	if err != nil || !equal(back, data) {
		t.Fatalf("pinned roundtrip: %v", err)
	}
}

// TestColumnBlockSkipping: on sorted data a narrow range must leave
// most blocks untouched, and results stay exact.
func TestColumnBlockSkipping(t *testing.T) {
	const n = 1 << 16
	data := workload.Sorted(n, 1<<40, 6)
	col, err := lwcomp.Encode(data, lwcomp.WithBlockSize(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := data[n/2], data[n/2+n/64]
	skipped, whole, consulted := col.SkipStats(lo, hi)
	if skipped == 0 || skipped+whole+consulted != col.NumBlocks() {
		t.Fatalf("skip stats: skipped=%d whole=%d consulted=%d of %d blocks",
			skipped, whole, consulted, col.NumBlocks())
	}
	if consulted > 4 {
		t.Fatalf("narrow range on sorted data consulted %d blocks", consulted)
	}
	rows, err := col.SelectRange(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if data[r] < lo || data[r] > hi {
			t.Fatalf("row %d value %d outside [%d, %d]", r, data[r], lo, hi)
		}
	}
	count, err := col.CountRange(lo, hi)
	if err != nil || count != int64(len(rows)) {
		t.Fatalf("CountRange = %d, SelectRange rows = %d (%v)", count, len(rows), err)
	}
}

// TestColumnContainerV2RoundTrip: WriteColumns/ReadColumns preserves
// blocks, stats and query results.
func TestColumnContainerV2RoundTrip(t *testing.T) {
	data := workload.OrderShipDates(30000, 64, 730120, 7)
	col, err := lwcomp.Encode(data, lwcomp.WithBlockSize(1<<13))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lwcomp.WriteColumns(&buf, []lwcomp.NamedColumn{{Name: "ship_date", Col: col}}); err != nil {
		t.Fatal(err)
	}
	cols, err := lwcomp.ReadColumns(bytes.NewReader(buf.Bytes()))
	if err != nil || len(cols) != 1 || cols[0].Name != "ship_date" {
		t.Fatalf("ReadColumns: %v", err)
	}
	got := cols[0].Col
	if got.NumBlocks() != col.NumBlocks() || got.BlockSize != col.BlockSize {
		t.Fatalf("index mismatch: blocks=%d size=%d", got.NumBlocks(), got.BlockSize)
	}
	for i := range got.Blocks {
		w, g := &col.Blocks[i], &got.Blocks[i]
		if !g.HasStats || g.Min != w.Min || g.Max != w.Max || g.Count != w.Count || g.Start != w.Start {
			t.Fatalf("block %d index mismatch: %+v vs %+v", i, g, w)
		}
	}
	back, err := got.Decompress()
	if err != nil || !equal(back, data) {
		t.Fatalf("roundtrip: %v", err)
	}
	wantSum, _ := col.Sum()
	if s, err := got.Sum(); err != nil || s != wantSum {
		t.Fatalf("Sum after roundtrip = %d, want %d (%v)", s, wantSum, err)
	}
}

// TestColumnEdgeCases: empty and tiny columns behave like the free
// functions.
func TestColumnEdgeCases(t *testing.T) {
	empty, err := lwcomp.Encode(nil, lwcomp.WithBlockSize(1<<10))
	if err != nil {
		t.Fatalf("Encode(nil): %v", err)
	}
	if empty.N != 0 {
		t.Fatalf("empty N = %d", empty.N)
	}
	if s, err := empty.Sum(); err != nil || s != 0 {
		t.Fatalf("empty Sum = %d (%v)", s, err)
	}
	if _, err := empty.Min(); err == nil {
		t.Fatal("empty Min must error")
	}
	if _, err := empty.PointLookup(0); err == nil {
		t.Fatal("empty PointLookup must error")
	}
	back, err := empty.Decompress()
	if err != nil || len(back) != 0 {
		t.Fatalf("empty Decompress: %v", err)
	}

	one, err := lwcomp.Encode([]int64{-42}, lwcomp.WithBlockSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := one.PointLookup(0); err != nil || v != -42 {
		t.Fatalf("one PointLookup = %d (%v)", v, err)
	}
	if mn, err := one.Min(); err != nil || mn != -42 {
		t.Fatalf("one Min = %d (%v)", mn, err)
	}
	if rows, err := one.SelectRange(-42, -42); err != nil || len(rows) != 1 || rows[0] != 0 {
		t.Fatalf("one SelectRange = %v (%v)", rows, err)
	}
	// ApproxSum brackets the truth on a blocked column.
	walk := workload.RandomWalk(1<<14, 10, 1<<20, 10)
	var truth int64
	for _, v := range walk {
		truth += v
	}
	col, err := lwcomp.Encode(walk, lwcomp.WithBlockSize(1<<11), lwcomp.WithScheme(lwcomp.FORNS(256)))
	if err != nil {
		t.Fatal(err)
	}
	iv, err := col.ApproxSum()
	if err != nil || !iv.Contains(truth) {
		t.Fatalf("blocked ApproxSum %+v misses %d (%v)", iv, truth, err)
	}
}
