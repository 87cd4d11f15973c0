// Block-cache tests: the cache holds decoded, immutable forms — a hot
// block is one lookup returning a shared pointer, a cold block is read
// and decoded by the caller that misses it, and a payload that cannot
// be decoded never gets in.
package lwcomp_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"lwcomp"
	"lwcomp/internal/blocked"
	"lwcomp/internal/storage"
)

// cacheFixture is a three-column table over shapes that take
// different scan routes: qty is uniform 16-bit (ns, fused kernels),
// price sits below 1024 with rare spikes to 2^30 (patch, decode then
// filter), day is sorted runs (rle, stats prove most blocks).
func cacheFixture(t testing.TB, n, bs int) (qty, price, day []int64, container []byte) {
	t.Helper()
	qty, price, day = make([]int64, n), make([]int64, n), make([]int64, n)
	state := uint64(99)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	for i := range qty {
		qty[i] = int64(next() & 0xffff)
		price[i] = int64(next() & 1023)
		if next()%1000 == 0 {
			price[i] = 1<<30 + int64(next()&0xff)
		}
		day[i] = int64(730000 + i/27)
	}
	var cols []lwcomp.NamedColumn
	for _, c := range []struct {
		name string
		data []int64
	}{{"qty", qty}, {"price", price}, {"day", day}} {
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
	return qty, price, day, buf.Bytes()
}

// TestCachedBlockFormIsShared: after a warm pass, BlockForm on a
// lazily opened, cached container is a lookup — no allocation, no
// decode, and the same form every time.
func TestCachedBlockFormIsShared(t *testing.T) {
	_, _, _, data := cacheFixture(t, 1<<14, 1<<11)
	tbl, err := lwcomp.OpenTableReader(bytes.NewReader(data), int64(len(data)), lwcomp.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	for _, name := range tbl.ColumnNames() {
		col, err := tbl.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := col.Sum(); err != nil { // the warm pass
			t.Fatal(err)
		}
		warm, _ := col.CacheStats()
		for i := 0; i < col.NumBlocks(); i++ {
			first, err := col.BlockForm(i)
			if err != nil {
				t.Fatal(err)
			}
			mustZeroAllocs(t, "hot-block-form/"+name, func() {
				again, err := col.BlockForm(i)
				if err != nil || again != first {
					t.Fatalf("%s block %d: hot BlockForm = %p, %v; want the cached %p", name, i, again, err, first)
				}
			})
		}
		after, _ := col.CacheStats()
		if after.Decodes != warm.Decodes || after.Misses != warm.Misses || after.Hits <= warm.Hits {
			t.Fatalf("%s: hot fetches moved the cache from %+v to %+v", name, warm, after)
		}
	}
}

// TestCachedFormsAreImmutable runs every sink — fused count and sum,
// selection scan, streamed late materialisation — from 8 goroutines
// over one cached container and checks each answer against the plain
// []int64 oracle. Every goroutine reads the same cached forms, so a
// kernel that scribbled on one would show as a wrong answer here and
// as a report under -race.
func TestCachedFormsAreImmutable(t *testing.T) {
	const n, bs = 1 << 15, 1 << 11
	qty, price, day, data := cacheFixture(t, n, bs)
	tbl, err := lwcomp.OpenTableReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	ctx := context.Background()

	type query struct {
		expr lwcomp.Expr
		pred func(r int) bool
	}
	queries := []query{
		{lwcomp.Range("qty", 9000, 41000), func(r int) bool { return qty[r] >= 9000 && qty[r] <= 41000 }},
		{lwcomp.Range("price", 100, 700), func(r int) bool { return price[r] >= 100 && price[r] <= 700 }},
		{lwcomp.And(lwcomp.Range("day", day[n/3], day[2*n/3]), lwcomp.Range("price", 512, 1<<31)),
			func(r int) bool { return day[r] >= day[n/3] && day[r] <= day[2*n/3] && price[r] >= 512 }},
		{lwcomp.Or(lwcomp.Eq("qty", qty[17]), lwcomp.Not(lwcomp.Range("price", 0, 1000))),
			func(r int) bool { return qty[r] == qty[17] || price[r] > 1000 }},
	}
	type answer struct {
		count, sumQty, sumPrice int64
		rows                    []int64
	}
	want := make([]answer, len(queries))
	for qi, q := range queries {
		for r := 0; r < n; r++ {
			if q.pred(r) {
				want[qi].count++
				want[qi].sumQty += qty[r]
				want[qi].sumPrice += price[r]
				want[qi].rows = append(want[qi].rows, int64(r))
			}
		}
	}

	run := func(w, it int) error {
		qi := (w + it) % len(queries)
		q, exp := queries[qi], want[qi]
		switch (w/2 + it) % 3 {
		case 0:
			got, err := tbl.CountWhere(ctx, q.expr)
			if err != nil || got != exp.count {
				return fmt.Errorf("CountWhere(%s) = %d, %v; want %d", q.expr, got, err, exp.count)
			}
		case 1:
			sum, matched, err := tbl.SumWhere(ctx, q.expr, "price")
			if err != nil || sum != exp.sumPrice || matched != exp.count {
				return fmt.Errorf("SumWhere(%s, price) = (%d, %d), %v; want (%d, %d)",
					q.expr, sum, matched, err, exp.sumPrice, exp.count)
			}
		default:
			s, err := tbl.ScanWith(ctx, q.expr, lwcomp.ScanOptions{})
			if err != nil {
				return fmt.Errorf("ScanWith(%s): %v", q.expr, err)
			}
			defer s.Release()
			var rows []int64
			var sumQty, sumPrice int64
			err = s.StreamBatches(ctx, []string{"qty", "price"}, 1000, func(rs []int64, vals [][]int64) error {
				rows = append(rows, rs...)
				for i := range rs {
					sumQty += vals[0][i]
					sumPrice += vals[1][i]
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("StreamBatches(%s): %v", q.expr, err)
			}
			if len(rows) != len(exp.rows) || sumQty != exp.sumQty || sumPrice != exp.sumPrice {
				return fmt.Errorf("StreamBatches(%s): %d rows, sums (%d, %d); want %d rows, sums (%d, %d)",
					q.expr, len(rows), sumQty, sumPrice, len(exp.rows), exp.sumQty, exp.sumPrice)
			}
			for i := range rows {
				if rows[i] != exp.rows[i] {
					return fmt.Errorf("StreamBatches(%s): row %d is %d, want %d", q.expr, i, rows[i], exp.rows[i])
				}
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 12; it++ {
				if err := run(w, it); err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %w", w, it, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	col, err := tbl.Column("qty")
	if err != nil {
		t.Fatal(err)
	}
	// Every decode is a miss's, and a block is missed only by the
	// workers that reached it before its form was cached: cold misses
	// that race each decode the block, so the decodes are bounded by
	// the workers per block, not by the 96 scans' lookups.
	if st, _ := col.CacheStats(); st.Hits == 0 || st.Decodes != st.Misses || st.Decodes > 8*3*int64(col.NumBlocks()) {
		t.Fatalf("96 scans over %d blocks x 3 columns: %+v — the forms were not shared", col.NumBlocks(), st)
	}
}

// TestColumnCacheStatsAreContainers: two containers on one shared
// cache each see their own hits and misses through a column handle —
// the container's counters, not the pool's.
func TestColumnCacheStatsAreContainers(t *testing.T) {
	_, _, _, data := cacheFixture(t, 1<<13, 1<<11)
	sc := lwcomp.NewSharedBlockCache(64 << 20)
	var cfs [2]*lwcomp.Container
	for i := range cfs {
		cf, err := lwcomp.OpenContainer(writeTemp(t, data), lwcomp.WithSharedBlockCache(sc))
		if err != nil {
			t.Fatal(err)
		}
		defer cf.Close()
		cfs[i] = cf
	}
	// Different traffic per container: one cold pass on the first, a
	// cold and a warm pass on the second.
	for i, passes := range []int{1, 2} {
		for p := 0; p < passes; p++ {
			if _, err := cfs[i].Columns()[0].Col.Sum(); err != nil {
				t.Fatal(err)
			}
		}
	}
	pooled := sc.Stats()
	for i, cf := range cfs {
		own := cf.CacheStats()
		got, ok := cf.Columns()[0].Col.CacheStats()
		if !ok {
			t.Fatalf("container %d: column reports no cache", i)
		}
		if got.Hits != own.Hits || got.Misses != own.Misses {
			t.Fatalf("container %d: column hits/misses %d/%d, want the container's %d/%d (pool %d/%d)",
				i, got.Hits, got.Misses, own.Hits, own.Misses, pooled.Hits, pooled.Misses)
		}
		if own.Hits+own.Misses == pooled.Hits+pooled.Misses {
			t.Fatalf("container %d: own lookups %+v equal the pool's %+v — the test cannot tell them apart", i, own, pooled)
		}
	}
}

// TestUndecodablePayloadIsNotCached: a payload whose CRC checks out
// but which is not a form (the writer was handed garbage) fails with
// the decode error, leaves the cache as it was, and quarantines the
// block so the next touch does not read it again.
func TestUndecodablePayloadIsNotCached(t *testing.T) {
	good, err := blocked.Encode([]int64{1, 2, 3, 4}, blocked.EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := good.BlockForm(0)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := storage.EncodeForm(f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = storage.WriteContainerV3Raw(&buf, []storage.RawColumn{{Name: "c", BlockSize: 4, Blocks: []storage.RawBlock{
		{Count: 4, HasStats: true, Min: 1, Max: 4, Payload: payload},
		{Count: 4, HasStats: true, Min: 1, Max: 4, Payload: bytes.Repeat([]byte{0xff}, len(payload))},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	ra := &countingReaderAt{data: buf.Bytes()}
	col, err := lwcomp.OpenReader(ra, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	if _, err := col.BlockForm(0); err != nil {
		t.Fatal(err)
	}
	before, _ := col.CacheStats()

	ra.reset()
	if _, err := col.BlockForm(1); !errors.Is(err, storage.ErrCorrupt) || errors.Is(err, storage.ErrChecksum) {
		t.Fatalf("undecodable block: %v, want a decode error (ErrCorrupt, not ErrChecksum)", err)
	}
	after, _ := col.CacheStats()
	if after.BytesUsed != before.BytesUsed || after.Decodes != before.Decodes {
		t.Fatalf("failed decode moved the cache from %+v to %+v", before, after)
	}
	if _, err := col.BlockForm(1); !errors.Is(err, lwcomp.ErrQuarantined) {
		t.Fatalf("second touch: %v, want ErrQuarantined", err)
	}
	if calls, _, _ := ra.snapshot(); calls != 1 {
		t.Fatalf("%d reads of the bad block, want 1 (quarantine fails fast)", calls)
	}
	if _, err := col.BlockForm(0); err != nil {
		t.Fatalf("good block after the failure: %v", err)
	}
}

// TestEvictionUnderLoad runs counts, sums, keep-mode conjunctions and
// row streams from 8 goroutines over a lazily opened table whose cache
// holds about two blocks, so nearly every fetch evicts a block another
// goroutine may still be reading, and the freed slabs go straight into
// the next decodes. Every slab is poisoned as it enters the free list:
// a form whose words were recycled while a reader still leased it
// shows as a wrong answer against the plain []int64 oracle, not only
// when the reuse happens to land on it.
func TestEvictionUnderLoad(t *testing.T) {
	const n, bs = 1 << 15, 1 << 11
	qty, price, day, data := cacheFixture(t, n, bs)
	cf, err := storage.OpenContainer(bytes.NewReader(data), int64(len(data)), storage.OpenOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	var block int64
	for ci := range cf.Columns() {
		for _, e := range cf.Extents(ci) {
			block = max(block, e.Bytes)
		}
	}
	cf.Close()
	storage.SlabFreeHook = func(words []uint64) {
		for i := range words {
			words[i] = 0xa5a5a5a5a5a5a5a5
		}
	}
	t.Cleanup(func() { storage.SlabFreeHook = nil })
	tbl, err := lwcomp.OpenTableReader(bytes.NewReader(data), int64(len(data)), lwcomp.WithBlockCache(2*block))
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	ctx := context.Background()

	queries := []struct {
		expr lwcomp.Expr
		pred func(r int) bool
	}{
		{lwcomp.Range("qty", 9000, 41000), func(r int) bool { return qty[r] >= 9000 && qty[r] <= 41000 }},
		{lwcomp.Range("price", 100, 700), func(r int) bool { return price[r] >= 100 && price[r] <= 700 }},
		// Conjunctions: the leaves after the first keep, reading only
		// the rows still selected.
		{lwcomp.And(lwcomp.Range("qty", 0, 30000), lwcomp.Range("price", 200, 900)),
			func(r int) bool { return qty[r] <= 30000 && price[r] >= 200 && price[r] <= 900 }},
		{lwcomp.And(lwcomp.Range("day", day[n/4], day[3*n/4]), lwcomp.Range("qty", 5000, 60000), lwcomp.Range("price", 0, 511)),
			func(r int) bool {
				return day[r] >= day[n/4] && day[r] <= day[3*n/4] && qty[r] >= 5000 && qty[r] <= 60000 && price[r] <= 511
			}},
	}
	type answer struct{ count, sumQty, sumPrice, rowSum int64 }
	want := make([]answer, len(queries))
	for qi, q := range queries {
		for r := 0; r < n; r++ {
			if q.pred(r) {
				want[qi].count++
				want[qi].sumQty += qty[r]
				want[qi].sumPrice += price[r]
				want[qi].rowSum += int64(r)
			}
		}
	}

	run := func(w, it int) error {
		qi := (w + it) % len(queries)
		q, exp := queries[qi], want[qi]
		switch (w/2 + it) % 3 {
		case 0:
			if got, err := tbl.CountWhere(ctx, q.expr); err != nil || got != exp.count {
				return fmt.Errorf("CountWhere(%s) = %d, %v; want %d", q.expr, got, err, exp.count)
			}
		case 1:
			sum, matched, err := tbl.SumWhere(ctx, q.expr, "qty")
			if err != nil || sum != exp.sumQty || matched != exp.count {
				return fmt.Errorf("SumWhere(%s, qty) = (%d, %d), %v; want (%d, %d)",
					q.expr, sum, matched, err, exp.sumQty, exp.count)
			}
		default:
			s, err := tbl.ScanWith(ctx, q.expr, lwcomp.ScanOptions{})
			if err != nil {
				return fmt.Errorf("ScanWith(%s): %v", q.expr, err)
			}
			defer s.Release()
			var got answer
			err = s.StreamBatches(ctx, []string{"qty", "price"}, 1000, func(rs []int64, vals [][]int64) error {
				for i, r := range rs {
					got.count++
					got.rowSum += r
					got.sumQty += vals[0][i]
					got.sumPrice += vals[1][i]
				}
				return nil
			})
			if err != nil || got != exp {
				return fmt.Errorf("StreamBatches(%s) = %+v, %v; want %+v", q.expr, got, err, exp)
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 12; it++ {
				if err := run(w, it); err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %w", w, it, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	col, err := tbl.Column("qty")
	if err != nil {
		t.Fatal(err)
	}
	st, _ := col.CacheStats()
	t.Logf("%d-byte blocks, cache %+v", block, st)
	if st.Evictions == 0 || st.Reused == 0 {
		t.Fatalf("cache %+v: the load must evict blocks and decode into their slabs", st)
	}
}
