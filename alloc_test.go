// Allocation-regression tests: the pooled-scratch decode path, the
// fused compressed scans, and block skipping must stay allocation-free
// in steady state (ISSUE 2's acceptance criteria). testing.AllocsPerRun
// performs a warm-up call first, so the pools are primed before
// counting.
package lwcomp_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"lwcomp"
	"lwcomp/internal/query"
	"lwcomp/internal/server"
	"lwcomp/internal/storage"
	"lwcomp/internal/workload"
)

// mustZeroAllocs asserts f performs no steady-state allocations. The
// assertion is skipped under the race detector, which deliberately
// defeats sync.Pool reuse.
func mustZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if raceEnabled {
		f()
		return
	}
	if n := testing.AllocsPerRun(50, f); n > 0 {
		t.Errorf("%s: %.0f allocs/op, want 0", name, n)
	}
}

// TestBlockDecodeAllocs: decoding a blocked column into a reused
// destination allocates nothing once the scratch pool is warm, across
// the hot scheme families.
func TestBlockDecodeAllocs(t *testing.T) {
	const n = 1 << 15
	for name, tc := range map[string]struct {
		data   []int64
		scheme lwcomp.Scheme
	}{
		"ns":        {workload.UniformBits(n, 20, 1), lwcomp.NS()},
		"vns":       {workload.SkewedMagnitude(n, 40, 2), lwcomp.VNS(128)},
		"for+ns":    {workload.RandomWalk(n, 12, 1<<30, 3), lwcomp.FORNS(1024)},
		"rle+ns":    {workload.Runs(n, 64, 1<<16, 4), lwcomp.RLENS()},
		"rle-delta": {workload.OrderShipDates(n, 64, 730120, 5), lwcomp.RLEDeltaNS()},
		"analyzer":  {workload.OrderShipDates(n, 64, 730120, 6), nil},
	} {
		opts := []lwcomp.Option{lwcomp.WithBlockSize(1 << 12), lwcomp.WithParallelism(1)}
		if tc.scheme != nil {
			opts = append(opts, lwcomp.WithScheme(tc.scheme))
		}
		col, err := lwcomp.Encode(tc.data, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dst := make([]int64, col.N)
		mustZeroAllocs(t, "decode/"+name, func() {
			if err := col.DecompressInto(dst); err != nil {
				t.Fatal(err)
			}
		})
		if !equal(dst, tc.data) {
			t.Fatalf("%s: DecompressInto produced wrong data", name)
		}
	}
}

// TestBlockEncodeAllocs: encode-side allocation regressions (ISSUE
// 5). Steady-state block encode through the pooled compressors must
// allocate only what each block's form retains — nodes, parameter
// maps and payloads — never its temporaries (zigzag staging,
// constituent columns, model predictions), which come from the
// per-worker scratch arena. The per-block budgets below are the
// measured retained allocation counts plus one (delta+ns: exactly the
// count), so one more allocation per block of a staging buffer that
// escapes fails the pin; a regression to the unpooled path roughly
// doubles them.
func TestBlockEncodeAllocs(t *testing.T) {
	const n, bs = 1 << 15, 1 << 12
	const blocks = n / bs
	deltaNS, err := lwcomp.ParseScheme("delta(deltas=ns)")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		data     []int64
		scheme   lwcomp.Scheme
		perBlock float64 // retained allocations per block, plus headroom
	}{
		{"ns", workload.UniformBits(n, 20, 1), lwcomp.NS(), 5},
		{"vns", workload.SkewedMagnitude(n, 40, 2), lwcomp.VNS(128), 9},
		{"for+ns", workload.RandomWalk(n, 12, 1<<30, 3), lwcomp.FORNS(1024), 14},
		{"rle+ns", workload.Runs(n, 64, 1<<16, 4), lwcomp.RLENS(), 12},
		{"rle-delta", workload.OrderShipDates(n, 64, 730120, 5), lwcomp.RLEDeltaNS(), 17},
		{"delta+ns", workload.Sorted(n, 1<<40, 6), deltaNS, 13},
		{"dict+ns", workload.LowCardinality(n, 32, 7), lwcomp.DictNS(), 12},
		{"linear+ns", workload.TrendNoise(n, 8, 12, 8), lwcomp.LinearNS(1024), 17},
		{"pfor", workload.OutlierWalk(n, 10, 0.01, 1<<38, 9), lwcomp.PFOR(1024), 28},
	} {
		if raceEnabled {
			break // the detector defeats sync.Pool reuse by design
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := lwcomp.Encode(tc.data,
				lwcomp.WithBlockSize(bs), lwcomp.WithParallelism(1),
				lwcomp.WithScheme(tc.scheme)); err != nil {
				t.Fatal(err)
			}
		})
		// A small constant covers the column handle and block index.
		budget := tc.perBlock*blocks + 8
		if got > budget {
			t.Errorf("encode/%s: %.0f allocs/op, budget %.0f (%.1f per block)",
				tc.name, got, budget, got/blocks)
		}
	}
}

// TestCountRangeMissAllocs: a range query that misses every block's
// [min, max] answers from the index alone — no decode, no allocation.
func TestCountRangeMissAllocs(t *testing.T) {
	data := workload.Sorted(1<<15, 1<<40, 7)
	col, err := lwcomp.Encode(data, lwcomp.WithBlockSize(1<<12), lwcomp.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := data[0]-1000, data[0]-1 // below the column minimum
	mustZeroAllocs(t, "count-miss", func() {
		n, err := col.CountRange(lo, hi)
		if err != nil || n != 0 {
			t.Fatalf("CountRange = %d, %v", n, err)
		}
	})
}

// TestFusedScanAllocs: the fused unpack-and-compare paths — NS count,
// NS select into a reused bitmap, and straddling-block scans on a
// blocked column — stay allocation-free.
func TestFusedScanAllocs(t *testing.T) {
	const n = 1 << 15
	data := workload.UniformBits(n, 20, 8)
	form, err := lwcomp.NS().Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := int64(1)<<18, int64(1)<<19
	mustZeroAllocs(t, "ns-count-fused", func() {
		if _, err := query.CountRange(form, lo, hi); err != nil {
			t.Fatal(err)
		}
	})
	bm := lwcomp.NewSelection(n)
	mustZeroAllocs(t, "ns-select-fused", func() {
		bm.Reset(n)
		if err := query.SelectRangeSel(form, lo, hi, bm, 0); err != nil {
			t.Fatal(err)
		}
	})

	// Straddling FOR+NS blocks through the blocked serial scan path.
	sorted := workload.Sorted(n, 1<<40, 9)
	col, err := lwcomp.Encode(sorted,
		lwcomp.WithBlockSize(1<<12), lwcomp.WithParallelism(1), lwcomp.WithScheme(lwcomp.FORNS(1024)))
	if err != nil {
		t.Fatal(err)
	}
	slo, shi := sorted[n/2], sorted[n/2+n/64]
	mustZeroAllocs(t, "blocked-select-straddle", func() {
		bm, err := col.SelectRangeSel(slo, shi)
		if err != nil {
			t.Fatal(err)
		}
		bm.Release()
	})
}

// TestPatchPushdownAllocs: a patch(for(ns)) block — narrow values with
// rare spikes, the composite no kernel was written for — is counted,
// summed under a range, selected and summed whole by the pushdown
// rewrite: the verb on the base's packed offsets, then one gather at
// the exception positions, none of it allocating.
func TestPatchPushdownAllocs(t *testing.T) {
	const n = 1 << 14
	data := workload.UniformBits(n, 10, 11)
	for i := 7; i < n; i += 997 {
		data[i] = 1<<30 + int64(i)
	}
	col, err := lwcomp.Encode(data, lwcomp.WithBlockSize(n), lwcomp.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	form, err := col.BlockForm(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := form.Describe(); got != "patch(base=for(offsets=ns, refs=ns), positions=id, values=id)" {
		t.Fatalf("fixture encodes as %s; want patch over for(ns)", got)
	}
	lo, hi := int64(100), int64(1)<<30+5000 // some of the exceptions
	mustZeroAllocs(t, "patch-count", func() {
		if _, err := query.CountRange(form, lo, hi); err != nil {
			t.Fatal(err)
		}
	})
	mustZeroAllocs(t, "patch-sum-range", func() {
		if _, _, err := query.SumRange(form, lo, hi); err != nil {
			t.Fatal(err)
		}
	})
	bm := lwcomp.NewSelection(n)
	mustZeroAllocs(t, "patch-select", func() {
		bm.Reset(n)
		if err := query.SelectRangeSel(form, lo, hi, bm, 0); err != nil {
			t.Fatal(err)
		}
	})
	mustZeroAllocs(t, "patch-sum-block", func() {
		if _, err := col.SumBlock(0); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTableScanAllocs: the steady-state two-predicate table scan —
// per-block cross-column planning, fused leaf evaluation, word-
// granular bitmap intersection, pooled scan handle — allocates
// nothing once the pools are warm, and neither does the
// late-materialized aggregation over the surviving selection (ISSUE
// 4's acceptance criteria: bitmap intersection must not allocate).
func TestTableScanAllocs(t *testing.T) {
	const n, bs = 1 << 15, 1 << 12
	date := workload.Sorted(n, 1<<40, 21)
	status := workload.LowCardinality(n, 4, 22)
	amount := workload.RandomWalk(n, 10, 1<<30, 23)
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
	tbl, err := lwcomp.NewTable(cols)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := date[n/4], date[3*n/4]
	expr := lwcomp.And(lwcomp.Range("date", lo, hi), lwcomp.Eq("status", status[n/3]))

	mustZeroAllocs(t, "table-scan-two-predicate", func() {
		s, err := tbl.Scan(expr)
		if err != nil {
			t.Fatal(err)
		}
		if s.Count() == 0 {
			t.Fatal("scan found nothing; the fixture is broken")
		}
		s.Release()
	})

	s, err := tbl.Scan(expr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	mustZeroAllocs(t, "table-scan-sum", func() {
		if _, err := s.Sum("amount"); err != nil {
			t.Fatal(err)
		}
	})

	// The streaming projection, gather (batch > chunk survivors) and
	// straight-from-the-decode-buffer (batch < them) alike: scan, batch
	// state and decode buffers all come from pools.
	ctx := context.Background()
	for _, batch := range []int{64, 1 << 20} {
		var streamed int
		mustZeroAllocs(t, "table-scan-stream", func() {
			s, err := tbl.ScanWith(ctx, expr, lwcomp.ScanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			err = s.StreamBatches(ctx, streamCols, batch, func(rows []int64, _ [][]int64) error {
				streamed += len(rows)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			s.Release()
		})
		if streamed == 0 {
			t.Fatal("stream delivered nothing; the fixture is broken")
		}
	}
}

// streamCols is package-level so that the stream pin measures
// StreamBatches, not a slice literal.
var streamCols = []string{"date", "amount"}

// rewindBody is a request body that can be served again.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// discardWriter is an http.ResponseWriter that keeps nothing but the
// byte count — the reused in-memory writer of the request pin.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// serveOrders writes each column as its own orders.<name>.lwc
// container in blocks of bs rows and returns the handler of a server
// mounting them with one scan worker per query.
func serveOrders(t *testing.T, bs int, cols map[string][]int64) http.Handler {
	t.Helper()
	dir := t.TempDir()
	for name, data := range cols {
		col, err := lwcomp.Encode(data, lwcomp.WithBlockSize(bs), lwcomp.WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := lwcomp.WriteColumns(&buf, []lwcomp.NamedColumn{{Name: name, Col: col}}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "orders."+name+".lwc"), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := server.New(server.Config{Dir: dir, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Handler()
}

// requestAllocs serves the POST /query body payload through h 20 times
// into a reused writer and returns the allocations per request and the
// reply's bytes.
func requestAllocs(t *testing.T, h http.Handler, payload string) (allocs float64, wire int) {
	t.Helper()
	body := &rewindBody{}
	req, err := http.NewRequest(http.MethodPost, "/query", body)
	if err != nil {
		t.Fatal(err)
	}
	w := &discardWriter{h: http.Header{}}
	allocs = testing.AllocsPerRun(20, func() {
		body.Reset([]byte(payload))
		w.n = 0
		h.ServeHTTP(w, req)
	})
	return allocs, w.n
}

// rowsRequestAllocs is the pinned allocation count of one op=rows
// request through Server.Handler(): routing, the request's JSON
// decode, predicate parse, deadline context, the pooled scan, and the
// header and terminal frames of the stream's json.Encoder. Row frames
// add nothing to it — the batch state, decode buffers and frame buffer
// are pooled — so it does not depend on how many rows stream.
const rowsRequestAllocs = 14

// TestRowsRequestAllocs: an op=rows request that streams tens of
// thousands of rows in many frames allocates what one that matches
// nothing does, and both stay under the pinned constant.
func TestRowsRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool reuse is defeated under the race detector")
	}
	const n, bs = 1 << 16, 1 << 12
	h := serveOrders(t, bs, map[string][]int64{
		"date":   workload.Sorted(n, 1<<20, 31),
		"amount": workload.RandomWalk(n, 10, 1<<30, 32),
	})
	measure := func(where string) (float64, int) {
		return requestAllocs(t, h, `{"table":"orders","op":"rows","columns":["date","amount"],"batch_rows":1000,"where":"`+where+`"}`)
	}
	many, manyWire := measure("date >= 0")
	none, noneWire := measure("date < 0")
	if manyWire < 20*n || noneWire > 1000 {
		t.Fatalf("fixture broken: %d and %d body bytes", manyWire, noneWire)
	}
	if many > none {
		t.Errorf("streaming %d bytes of frames costs %.0f allocs, a request with no frame %.0f", manyWire, many, none)
	}
	if many > rowsRequestAllocs {
		t.Errorf("op=rows request: %.0f allocs, pinned at %d", many, rowsRequestAllocs)
	}
	t.Logf("op=rows request: %.0f allocs streaming, %.0f matching nothing", many, none)
}

// TestCountRequestAllocs pins the allocations of a point query through
// Server.Handler(), one pin per shape the point-cold workload sends: a
// day of a clustered column, a narrow range of another, that range
// under a third leaf, and a sum over a few days. What remains is the
// request's JSON decode, the parsed predicate's nodes, the deadline
// context and the scan's plan; the echoed predicate is rendered
// straight into the reply buffer and the sums need no map.
func TestCountRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool reuse is defeated under the race detector")
	}
	const n, bs = 1 << 16, 1 << 12
	ship := workload.OrderShipDates(n, 64, 730120, 41)
	amount := workload.Sorted(n, 1<<30, 42)
	h := serveOrders(t, bs, map[string][]int64{
		"ship":   ship,
		"amount": amount,
		"qty":    workload.UniformBits(n, 16, 43),
	})
	day, a := ship[n/3], amount[n/2]
	for _, tc := range []struct {
		name, op, where, columns string
		pin                      float64
	}{
		{"ship day", "count", fmt.Sprintf("ship = %d", day), "", 10},
		{"amount range", "count", fmt.Sprintf("amount >= %d and amount <= %d", a-20, a+20), "", 14},
		{"amount range, qty", "count", fmt.Sprintf("amount >= %d and amount <= %d and qty <= 30000", a-20, a+20), "", 17},
		{"ship days, sum", "sum", fmt.Sprintf("ship >= %d and ship <= %d", day, day+2), `,"columns":["qty"]`, 17},
	} {
		allocs, wire := requestAllocs(t, h, `{"table":"orders","op":"`+tc.op+`","where":"`+tc.where+`"`+tc.columns+`}`)
		if wire < 60 || wire > 300 {
			t.Fatalf("%s: a %d-byte reply; the fixture is broken", tc.name, wire)
		}
		t.Logf("%s: %.0f allocs", tc.name, allocs)
		if allocs > tc.pin {
			t.Errorf("%s: %.0f allocs per request, pinned at %.0f", tc.name, allocs, tc.pin)
		}
	}
}

// TestFusedAggregateAllocs: the fused scan+aggregate paths —
// CountWhere and SumWhere over leaf and composite predicates,
// including the packed-word fast paths, the sum under a selection on
// the forms the encoder picks for a noisy ramp, a spiky and a uniform
// column — stay allocation-free in steady state on an aligned
// in-memory table.
func TestFusedAggregateAllocs(t *testing.T) {
	const n, bs = 1 << 15, 1 << 12
	date := workload.Sorted(n, 1<<40, 21)
	status := workload.LowCardinality(n, 4, 22)
	amount := workload.RandomWalk(n, 10, 1<<30, 23)
	// The sum columns of the sum-under-a-selection cases, and the scheme
	// each one's first block must be encoded with for the case to cover
	// that form.
	selSums := []struct {
		name, scheme string
		data         []int64
	}{
		{"ramp", "plus(model=linear", workload.TrendNoise(n, 2.9, 40, 24)},
		{"spiky", "patch(base=for", workload.SpikedUniform(n, 10, 30, 0.001, 25)},
		{"qty", "ns", workload.UniformBits(n, 16, 26)},
	}
	var cols []lwcomp.NamedColumn
	for _, c := range []struct {
		name string
		data []int64
	}{{"date", date}, {"status", status}, {"amount", amount},
		{selSums[0].name, selSums[0].data}, {selSums[1].name, selSums[1].data}, {selSums[2].name, selSums[2].data}} {
		col, err := lwcomp.Encode(c.data, lwcomp.WithBlockSize(bs), lwcomp.WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, lwcomp.NamedColumn{Name: c.name, Col: col})
	}
	tbl, err := lwcomp.NewTable(cols)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	lo, hi := date[n/4], date[3*n/4]
	exprLeaf := lwcomp.Range("date", lo, hi)
	exprAnd := lwcomp.And(lwcomp.Range("date", lo, hi), lwcomp.Eq("status", status[n/3]))

	wantCnt, err := tbl.CountWhere(ctx, exprLeaf)
	if err != nil || wantCnt == 0 {
		t.Fatalf("CountWhere = %d, %v; the fixture is broken", wantCnt, err)
	}
	mustZeroAllocs(t, "fused-count-leaf", func() {
		if cnt, err := tbl.CountWhere(ctx, exprLeaf); err != nil || cnt != wantCnt {
			t.Fatalf("CountWhere = %d, %v", cnt, err)
		}
	})
	mustZeroAllocs(t, "fused-count-and", func() {
		if _, err := tbl.CountWhere(ctx, exprAnd); err != nil {
			t.Fatal(err)
		}
	})
	mustZeroAllocs(t, "fused-sum-same-column", func() {
		if _, _, err := tbl.SumWhere(ctx, exprLeaf, "date"); err != nil {
			t.Fatal(err)
		}
	})
	// date decodes to a plain leaf; qty's ns blocks are summed over the
	// range on their packed words (bitpack.SumRangeU).
	exprQty := lwcomp.Range("qty", 1<<14, 3<<14)
	mustZeroAllocs(t, "fused-sum-same-column/qty", func() {
		if _, _, err := tbl.SumWhere(ctx, exprQty, "qty"); err != nil {
			t.Fatal(err)
		}
	})
	mustZeroAllocs(t, "fused-sum-other-column", func() {
		if _, _, err := tbl.SumWhere(ctx, exprLeaf, "amount"); err != nil {
			t.Fatal(err)
		}
	})
	mustZeroAllocs(t, "fused-sum-and", func() {
		if _, _, err := tbl.SumWhere(ctx, exprAnd, "amount"); err != nil {
			t.Fatal(err)
		}
	})
	for i, c := range selSums {
		if got := cols[3+i].Col.Blocks[0].Form.Describe(); !strings.HasPrefix(got, c.scheme) {
			t.Fatalf("%s: first block encoded as %s, want %s…; the fixture no longer covers that form", c.name, got, c.scheme)
		}
		mustZeroAllocs(t, "fused-sum-and/"+c.name, func() {
			if _, _, err := tbl.SumWhere(ctx, exprAnd, c.name); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Three conjuncts, serially: the later two keep into the first's
	// selection — on qty's ns words and the spiky column's patch, or,
	// through the ramp's linear model, a pooled select-then-And.
	tbl.Parallelism = 1
	for _, third := range []string{"spiky", "ramp"} {
		vals := cols[3].Col
		if third == "spiky" {
			vals = cols[4].Col
		}
		tlo, thi := vals.Blocks[0].Min, vals.Blocks[0].Max
		expr := lwcomp.And(lwcomp.Eq("status", status[n/3]), lwcomp.Range("qty", 1<<13, 7<<13),
			lwcomp.Range(third, tlo+(thi-tlo)/8, thi-(thi-tlo)/8))
		if cnt, err := tbl.CountWhere(ctx, expr); err != nil || cnt == 0 {
			t.Fatalf("CountWhere(%v) = %d, %v; the fixture is broken", expr, cnt, err)
		}
		mustZeroAllocs(t, "fused-count-and3/"+third, func() {
			if _, err := tbl.CountWhere(ctx, expr); err != nil {
				t.Fatal(err)
			}
		})
		mustZeroAllocs(t, "fused-sum-and3/"+third, func() {
			if _, _, err := tbl.SumWhere(ctx, expr, "amount"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLinearRangeAllocs: a plus(linear) block — the noisy ramp of the
// fused-aggregate pins above — has no range rule, so it is counted,
// summed under a range and selected through the decode fallback, which
// decodes into pooled scratch: none of it allocates.
func TestLinearRangeAllocs(t *testing.T) {
	const n = 1 << 14
	data := workload.TrendNoise(n, 2.9, 40, 27)
	col, err := lwcomp.Encode(data, lwcomp.WithBlockSize(n), lwcomp.WithParallelism(1),
		lwcomp.WithScheme(lwcomp.LinearNS(1024)))
	if err != nil {
		t.Fatal(err)
	}
	form, err := col.BlockForm(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := form.Describe(); got != "plus(model=linear(bases=id, slopes=id), residual=ns)" {
		t.Fatalf("fixture encodes as %s; want plus(linear, ns)", got)
	}
	lo, hi := data[n/2]-40, data[n/2]+40 // straddles a few groups
	mustZeroAllocs(t, "linear-count", func() {
		if c, err := query.CountRange(form, lo, hi); err != nil || c == 0 {
			t.Fatalf("CountRange = %d, %v", c, err)
		}
	})
	mustZeroAllocs(t, "linear-sum-range", func() {
		if _, _, err := query.SumRange(form, lo, hi); err != nil {
			t.Fatal(err)
		}
	})
	bm := lwcomp.NewSelection(n)
	mustZeroAllocs(t, "linear-select", func() {
		bm.Reset(n)
		if err := query.SelectRangeSel(form, lo, hi, bm, 0); err != nil {
			t.Fatal(err)
		}
	})
}

// TestVerifyFileAllocs: verifying a 64Ki-row container decodes its
// block into a pooled buffer, so once the pool is warm a call
// allocates far less than the block's 512 KiB of values. The median of
// nine calls is measured, so a pooled buffer a collection drops does
// not decide the outcome.
func TestVerifyFileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool reuse")
	}
	vals := make([]int64, 1<<16)
	for i := range vals {
		vals[i] = int64(i / 64)
	}
	col, err := lwcomp.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v.lwc")
	if err := lwcomp.WriteColumnsFile(path, []lwcomp.NamedColumn{{Name: "v", Col: col}}); err != nil {
		t.Fatal(err)
	}
	per := make([]uint64, 9)
	var before, after runtime.MemStats
	for i := -1; i < len(per); i++ {
		runtime.ReadMemStats(&before)
		rep, err := storage.VerifyFile(path)
		runtime.ReadMemStats(&after)
		if err != nil || !rep.OK() {
			t.Fatalf("verify: %v %+v", err, rep)
		}
		if i >= 0 { // the first call warms the pool
			per[i] = after.TotalAlloc - before.TotalAlloc
		}
	}
	slices.Sort(per)
	if median := per[len(per)/2]; median >= 64<<10 {
		t.Fatalf("VerifyFile allocates %d bytes per call (sorted: %v), want < 64 KiB", median, per)
	}
}

// TestSelectRangeSelMatchesRows: the bitmap boundary conversion and
// the selection itself agree with SelectRange on a mixed column.
func TestSelectRangeSelMatchesRows(t *testing.T) {
	const n = 50000
	third := n / 3
	data := append(workload.OrderShipDates(third, 256, 730120, 1),
		workload.UniformBits(third, 40, 2)...)
	data = append(data, workload.Sorted(n-2*third, 1<<40, 3)...)
	col, err := lwcomp.Encode(data, lwcomp.WithBlockSize(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := data[n/4], data[3*n/4]
	if lo > hi {
		lo, hi = hi, lo
	}
	rows, err := col.SelectRange(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := col.SelectRangeSel(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	defer bm.Release()
	if bm.Count() != len(rows) {
		t.Fatalf("Count = %d, rows = %d", bm.Count(), len(rows))
	}
	if got := bm.Rows(); !equal(got, rows) {
		t.Fatal("Rows() diverges from SelectRange")
	}
	for _, r := range rows {
		if !bm.Contains(int(r)) {
			t.Fatalf("row %d missing from selection", r)
		}
	}
}
