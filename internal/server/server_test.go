package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lwcomp"
	"lwcomp/internal/table"
)

// testBlock is the block size every test container uses: small enough
// that modest tables span many blocks, so pruning, streaming and
// cancellation seams all see real block iteration.
const testBlock = 256

// writeColumnFile writes vals as a single-column container at path.
// The internal column name is deliberately NOT the served name — the
// mount contract says the filename wins for <table>.<column>.lwc.
func writeColumnFile(t *testing.T, path string, vals []int64) {
	t.Helper()
	col, err := lwcomp.Encode(vals, lwcomp.WithBlockSize(testBlock))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := lwcomp.WriteColumns(f, []lwcomp.NamedColumn{{Name: "payload", Col: col}}); err != nil {
		t.Fatal(err)
	}
}

// testData is the deterministic reference: date climbs slowly, status
// cycles over five values, amount climbs steeply (every block range is
// tight, so mid-range predicates leave real undecided blocks).
type testData struct {
	n                    int
	date, status, amount []int64
}

func makeData(n int) testData {
	d := testData{n: n}
	for i := 0; i < n; i++ {
		d.date = append(d.date, int64(i/4))
		d.status = append(d.status, int64(i%5))
		d.amount = append(d.amount, int64(i)*3-1000)
	}
	return d
}

// newTestDir builds a mount directory with an "orders" table from
// per-column files and an "events" table from one multi-column
// container.
func newTestDir(t *testing.T, d testData) string {
	t.Helper()
	dir := t.TempDir()
	writeColumnFile(t, filepath.Join(dir, "orders.date.lwc"), d.date)
	writeColumnFile(t, filepath.Join(dir, "orders.status.lwc"), d.status)
	writeColumnFile(t, filepath.Join(dir, "orders.amount.lwc"), d.amount)

	tsCol, err := lwcomp.Encode(d.date, lwcomp.WithBlockSize(testBlock))
	if err != nil {
		t.Fatal(err)
	}
	kindCol, err := lwcomp.Encode(d.status, lwcomp.WithBlockSize(testBlock))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "events.lwc"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	err = lwcomp.WriteColumns(f, []lwcomp.NamedColumn{
		{Name: "ts", Col: tsCol},
		{Name: "kind", Col: kindCol},
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// newTestServer mounts dir and exposes the handler on an httptest
// server, cleaning both up with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postQuery sends one query and decodes the (single-object) response.
func postQuery(t *testing.T, ts *httptest.Server, req queryRequest) (int, map[string]any) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %d response: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, out
}

// TestCatalog: /tables reports both grouping conventions — per-column
// files under the filename's names, and a multi-column container under
// its internal names — with exact rows, block counts and min/max.
func TestCatalog(t *testing.T) {
	d := makeData(2000)
	_, ts := newTestServer(t, Config{Dir: newTestDir(t, d)})

	resp, err := http.Get(ts.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /tables: %d", resp.StatusCode)
	}
	var out struct {
		Tables []catalogTable `json:"tables"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) != 2 {
		t.Fatalf("catalog has %d tables, want 2", len(out.Tables))
	}
	byName := map[string]catalogTable{}
	for _, ct := range out.Tables {
		byName[ct.Name] = ct
	}
	orders, ok := byName["orders"]
	if !ok {
		t.Fatal("catalog lacks table orders")
	}
	if orders.Rows != d.n || !orders.Aligned || len(orders.Columns) != 3 {
		t.Fatalf("orders: rows=%d aligned=%v cols=%d", orders.Rows, orders.Aligned, len(orders.Columns))
	}
	for _, cc := range orders.Columns {
		if cc.Name == "amount" {
			if cc.Min == nil || *cc.Min != -1000 || cc.Max == nil || *cc.Max != int64(d.n-1)*3-1000 {
				t.Fatalf("amount min/max = %v/%v", cc.Min, cc.Max)
			}
			if want := (d.n + testBlock - 1) / testBlock; cc.Blocks != want {
				t.Fatalf("amount blocks = %d, want %d", cc.Blocks, want)
			}
		}
	}
	events := byName["events"]
	if len(events.Columns) != 2 || events.Columns[0].Name != "ts" || events.Columns[1].Name != "kind" {
		t.Fatalf("events columns = %+v", events.Columns)
	}
}

// TestQueryOps: count, sum and rows all agree with the naive reference
// filter, end to end through HTTP.
func TestQueryOps(t *testing.T) {
	d := makeData(3000)
	_, ts := newTestServer(t, Config{Dir: newTestDir(t, d)})

	where := "status = 2 and amount >= 500"
	var wantRows []int64
	var wantSum int64
	for i := 0; i < d.n; i++ {
		if d.status[i] == 2 && d.amount[i] >= 500 {
			wantRows = append(wantRows, int64(i))
			wantSum += d.amount[i]
		}
	}
	if len(wantRows) == 0 {
		t.Fatal("reference predicate selected nothing; bad test data")
	}

	code, out := postQuery(t, ts, queryRequest{Table: "orders", Where: where, Op: "count"})
	if code != http.StatusOK || int64(out["matched"].(float64)) != int64(len(wantRows)) {
		t.Fatalf("count: code=%d matched=%v want %d", code, out["matched"], len(wantRows))
	}

	code, out = postQuery(t, ts, queryRequest{Table: "orders", Where: where, Op: "sum", Columns: []string{"amount", "date"}})
	if code != http.StatusOK {
		t.Fatalf("sum: code=%d body=%v", code, out)
	}
	sums := out["sums"].(map[string]any)
	if int64(sums["amount"].(float64)) != wantSum {
		t.Fatalf("sum(amount) = %v, want %d", sums["amount"], wantSum)
	}

	// rows: NDJSON — header frame, row frames, done frame.
	body, _ := json.Marshal(queryRequest{Table: "orders", Where: where, Op: "rows", Columns: []string{"amount"}, BatchRows: 64})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rows: code=%d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("rows Content-Type = %q", ct)
	}
	gotRows, gotVals, done := parseRowsStream(t, resp.Body, 64)
	if !done {
		t.Fatal("stream ended without a done frame")
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("streamed %d rows, want %d", len(gotRows), len(wantRows))
	}
	for i, r := range gotRows {
		if r != wantRows[i] || gotVals[i] != d.amount[r] {
			t.Fatalf("row %d: (%d, %d), want (%d, %d)", i, r, gotVals[i], wantRows[i], d.amount[wantRows[i]])
		}
	}

	// limit truncates the stream but still ends with done.
	body, _ = json.Marshal(queryRequest{Table: "orders", Where: where, Op: "rows", Columns: []string{"amount"}, BatchRows: 16, Limit: 21})
	resp, err = http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	gotRows, _, done = parseRowsStream(t, resp.Body, 16)
	if !done || len(gotRows) != 21 {
		t.Fatalf("limited stream: %d rows done=%v, want 21 rows with done", len(gotRows), done)
	}
}

// parseRowsStream consumes an NDJSON rows response: returns the row
// ids, the first projected column's values, and whether the done frame
// arrived. Frames larger than maxBatch rows fail the test.
func parseRowsStream(t *testing.T, r interface{ Read([]byte) (int, error) }, maxBatch int) (rows, vals []int64, done bool) {
	t.Helper()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if first {
			first = false
			var hdr wireResult
			if err := json.Unmarshal(line, &hdr); err != nil {
				t.Fatalf("bad header frame %s: %v", line, err)
			}
			continue
		}
		var frame struct {
			Rows  []int64   `json:"rows"`
			Cols  [][]int64 `json:"cols"`
			Done  bool      `json:"done"`
			Error string    `json:"error"`
		}
		if err := json.Unmarshal(line, &frame); err != nil {
			t.Fatalf("bad frame %s: %v", line, err)
		}
		if frame.Error != "" {
			t.Fatalf("stream error frame: %s", frame.Error)
		}
		if frame.Done {
			done = true
			continue
		}
		if len(frame.Rows) == 0 || len(frame.Rows) > maxBatch {
			t.Fatalf("frame of %d rows, want 1..%d", len(frame.Rows), maxBatch)
		}
		rows = append(rows, frame.Rows...)
		if len(frame.Cols) > 0 {
			vals = append(vals, frame.Cols[0]...)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows, vals, done
}

// TestQueryErrors pins every 4xx contract: bad body, bad op, missing
// columns, unknown table, unknown column, a repeated column, and — with the structured
// offset/token fields — a predicate outside the language.
func TestQueryErrors(t *testing.T) {
	d := makeData(500)
	_, ts := newTestServer(t, Config{Dir: newTestDir(t, d)})

	for _, tc := range []struct {
		name string
		req  queryRequest
		code int
	}{
		{"unknown table", queryRequest{Table: "nope", Op: "count"}, http.StatusNotFound},
		{"unknown op", queryRequest{Table: "orders", Op: "avg"}, http.StatusBadRequest},
		{"sum without columns", queryRequest{Table: "orders", Op: "sum"}, http.StatusBadRequest},
		{"unknown column", queryRequest{Table: "orders", Op: "sum", Columns: []string{"zz"}}, http.StatusBadRequest},
		{"sum with a repeated column", queryRequest{Table: "orders", Op: "sum", Columns: []string{"amount", "date", "amount"}}, http.StatusBadRequest},
		{"rows with a repeated column", queryRequest{Table: "orders", Op: "rows", Columns: []string{"date", "date"}}, http.StatusBadRequest},
		{"bad predicate", queryRequest{Table: "orders", Op: "count", Where: "status <> 1"}, http.StatusBadRequest},
	} {
		code, body := postQuery(t, ts, tc.req)
		if code != tc.code {
			t.Fatalf("%s: code=%d body=%v, want %d", tc.name, code, body, tc.code)
		}
		if body["error"] == "" {
			t.Fatalf("%s: no error message in %v", tc.name, body)
		}
	}

	// A repeated column is named, however long the list: the check
	// stops at the first repeat.
	for _, op := range []string{"sum", "rows"} {
		cols := make([]string, 4000)
		for i := range cols {
			cols[i] = "amount"
		}
		code, body := postQuery(t, ts, queryRequest{Table: "orders", Op: op, Columns: append([]string{"date"}, cols...)})
		if msg, _ := body["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, `"amount"`) {
			t.Fatalf("%s with amount listed 4000 times: code=%d body=%v, want 400 naming amount", op, code, body)
		}
	}

	// The parse-error body carries the exact byte offset and token.
	code, body := postQuery(t, ts, queryRequest{Table: "orders", Op: "count", Where: "status = 1 and ~ amount"})
	if code != http.StatusBadRequest {
		t.Fatalf("parse error: code=%d", code)
	}
	if off, ok := body["offset"].(float64); !ok || int(off) != 15 {
		t.Fatalf("parse error offset = %v, want 15", body["offset"])
	}
	if body["token"] != "~" {
		t.Fatalf("parse error token = %v, want ~", body["token"])
	}

	// A predicate over the comparison cap is refused at the first
	// comparison past it.
	where := strings.Repeat("status = 1 or ", table.MaxLeaves) + "status = 2"
	code, body = postQuery(t, ts, queryRequest{Table: "orders", Op: "count", Where: where})
	if off, ok := body["offset"].(float64); code != http.StatusBadRequest || !ok || int(off) != len(where)-len("status = 2") {
		t.Fatalf("%d comparisons: code=%d body=%v, want 400 at the last", table.MaxLeaves+1, code, body)
	}

	// So is an in-list whose runs of consecutive values pass the cap,
	// at the first value of the first run past it.
	vals := make([]string, table.MaxLeaves+1)
	for i := range vals {
		vals[i] = strconv.Itoa(3 * i)
	}
	where = "status in (" + strings.Join(vals, ", ") + ")"
	code, body = postQuery(t, ts, queryRequest{Table: "orders", Op: "count", Where: where})
	if off, ok := body["offset"].(float64); code != http.StatusBadRequest || !ok || int(off) != strings.LastIndex(where, " ")+1 {
		t.Fatalf("an in-list of %d runs: code=%d body=%v, want 400 at its last value", table.MaxLeaves+1, code, body)
	}

	// A syntactically invalid body is a 400, not a 500.
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON body: code=%d", resp.StatusCode)
	}
}

// TestDeadline: a server whose query deadline has effectively already
// passed answers 504 — the scan's cancellation seam, observed through
// HTTP — and counts the timeout.
func TestDeadline(t *testing.T) {
	d := makeData(4000)
	srv, ts := newTestServer(t, Config{Dir: newTestDir(t, d), QueryTimeout: time.Nanosecond})

	// A threshold strictly inside a block's range leaves undecided
	// blocks, so the scan must consult the context before fetching.
	where := fmt.Sprintf("amount >= %d", d.amount[2*testBlock+100]+1)
	code, body := postQuery(t, ts, queryRequest{Table: "orders", Where: where, Op: "count"})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline query: code=%d body=%v, want 504", code, body)
	}
	if got := srv.met.timeouts.Load(); got < 1 {
		t.Fatalf("timeouts counter = %d, want >= 1", got)
	}
}

// TestSaturation: with one slot and no queue, a busy server answers
// 429 with a Retry-After header, and recovers the moment the slot
// frees.
func TestSaturation(t *testing.T) {
	d := makeData(500)
	srv, ts := newTestServer(t, Config{Dir: newTestDir(t, d), MaxConcurrent: 1, MaxQueue: -1})

	srv.gate.slots <- struct{}{} // occupy the only slot
	code, body := postQuery(t, ts, queryRequest{Table: "orders", Op: "count"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated query: code=%d body=%v, want 429", code, body)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"table":"orders","op":"count"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 without a usable Retry-After (%q)", ra)
	}
	if got := srv.met.rejected.Load(); got < 2 {
		t.Fatalf("rejected counter = %d, want >= 2", got)
	}

	<-srv.gate.slots // free the slot
	if code, _ := postQuery(t, ts, queryRequest{Table: "orders", Op: "count"}); code != http.StatusOK {
		t.Fatalf("query after slot freed: code=%d, want 200", code)
	}

	// A concurrent herd against the one slot sees only the two
	// in-contract answers: 200, or 429 with a usable (non-zero)
	// Retry-After.
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				resp, err := http.Post(ts.URL+"/query", "application/json",
					strings.NewReader(`{"table":"orders","op":"rows","columns":["amount"]}`))
				if err != nil {
					errs <- err.Error()
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				ra := resp.Header.Get("Retry-After")
				if resp.StatusCode != http.StatusOK && (resp.StatusCode != http.StatusTooManyRequests || ra == "" || ra == "0") {
					errs <- fmt.Sprintf("herd query: status %d, Retry-After %q", resp.StatusCode, ra)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestGate unit-tests the admission controller: fast-path admission,
// bounded queueing, saturation rejection, and expiry while queued.
func TestGate(t *testing.T) {
	g := newGate(1, 1)
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// One waiter fits in the queue; it must block until release.
	waiterErr := make(chan error, 1)
	go func() { waiterErr <- g.acquire(context.Background()) }()
	deadline := time.Now().Add(2 * time.Second)
	for g.waiting() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// The queue is full: the next acquire is rejected in O(1).
	if err := g.acquire(context.Background()); err != errSaturated {
		t.Fatalf("acquire past queue bound = %v, want errSaturated", err)
	}

	g.release()
	if err := <-waiterErr; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	g.release()

	// Expiry while queued surfaces the context error, not a slot.
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.acquire(expired); err != context.Canceled {
		t.Fatalf("acquire with expired ctx = %v, want context.Canceled", err)
	}
	if g.waiting() != 0 {
		t.Fatalf("waiting = %d after expiry, want 0", g.waiting())
	}
	g.release()
}

// TestConcurrentQueries hammers one server from many goroutines with
// mixed operations over the shared cache — the test the race detector
// watches.
func TestConcurrentQueries(t *testing.T) {
	d := makeData(4000)
	srv, ts := newTestServer(t, Config{Dir: newTestDir(t, d), MaxConcurrent: 4, MaxQueue: 256})

	where := fmt.Sprintf("amount >= %d and status in (1, 3)", d.amount[d.n/2])
	var wg sync.WaitGroup
	errs := make(chan string, 256)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				var req queryRequest
				switch (g + i) % 3 {
				case 0:
					req = queryRequest{Table: "orders", Where: where, Op: "count"}
				case 1:
					req = queryRequest{Table: "orders", Where: where, Op: "sum", Columns: []string{"amount"}}
				case 2:
					req = queryRequest{Table: "events", Where: "kind = 2", Op: "rows", Columns: []string{"ts"}, BatchRows: 128, Limit: 500}
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err.Error()
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("goroutine %d query %d: status %d", g, i, resp.StatusCode)
				}
				// Drain so keep-alive connections recycle.
				sc := bufio.NewScanner(resp.Body)
				sc.Buffer(make([]byte, 1<<20), 1<<20)
				for sc.Scan() {
				}
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if srv.met.total.Load() != 8*15 {
		t.Fatalf("total = %d, want %d", srv.met.total.Load(), 8*15)
	}
}

// TestReloadNoFdLeak: 100 reload cycles (each opening four containers)
// leave the process fd table where it started — the observable proof
// that retired mount sets close every file exactly once.
func TestReloadNoFdLeak(t *testing.T) {
	countFds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	d := makeData(1000)
	srv, ts := newTestServer(t, Config{Dir: newTestDir(t, d)})

	// Warm up: one query so pools and the http client exist.
	if code, _ := postQuery(t, ts, queryRequest{Table: "orders", Op: "count"}); code != 200 {
		t.Fatal("warmup query failed")
	}
	before := countFds()
	for i := 0; i < 100; i++ {
		if err := srv.Reload(); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	// Queries still work on the freshest generation.
	if code, _ := postQuery(t, ts, queryRequest{Table: "orders", Op: "count"}); code != 200 {
		t.Fatal("query after reloads failed")
	}
	after := countFds()
	// Allow a little slack for the http client's connection churn; a
	// leak of one fd per reload cycle would show up as hundreds.
	if after > before+8 {
		t.Fatalf("fd count grew from %d to %d across 100 reloads", before, after)
	}
}

// TestReloadUnderTraffic swaps the mount set while queries are in
// flight: every query must succeed against whichever generation it
// started on.
func TestReloadUnderTraffic(t *testing.T) {
	d := makeData(2000)
	srv, ts := newTestServer(t, Config{Dir: newTestDir(t, d), MaxConcurrent: 4, MaxQueue: 256})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, body := postQuery(t, ts, queryRequest{Table: "orders", Where: "status = 1", Op: "sum", Columns: []string{"amount"}})
				if code != http.StatusOK {
					errs <- fmt.Sprintf("query during reload: %d %v", code, body)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := srv.Reload(); err != nil {
			t.Fatalf("reload: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestMountNaming: a <table>.<column>.lwc file holding more than one
// column fails the whole mount (half-served tables are worse than a
// loud error).
func TestMountNaming(t *testing.T) {
	d := makeData(500)
	dir := t.TempDir()
	c1, _ := lwcomp.Encode(d.date, lwcomp.WithBlockSize(testBlock))
	c2, _ := lwcomp.Encode(d.status, lwcomp.WithBlockSize(testBlock))
	f, err := os.Create(filepath.Join(dir, "bad.col.lwc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := lwcomp.WriteColumns(f, []lwcomp.NamedColumn{{Name: "a", Col: c1}, {Name: "b", Col: c2}}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := New(Config{Dir: dir}); err == nil {
		t.Fatal("mount of a two-column <table>.<column>.lwc succeeded, want error")
	}
}

// TestMetricsEndpoint: counters move, per-table cache hit rates become
// visible on repeated queries, and the endpoints around them answer.
func TestMetricsEndpoint(t *testing.T) {
	d := makeData(3000)
	_, ts := newTestServer(t, Config{Dir: newTestDir(t, d)})

	// The same mid-range query twice: the second run's fetches hit the
	// shared cache.
	where := fmt.Sprintf("amount >= %d", d.amount[d.n/2]+1)
	for i := 0; i < 2; i++ {
		if code, _ := postQuery(t, ts, queryRequest{Table: "orders", Where: where, Op: "sum", Columns: []string{"amount"}}); code != 200 {
			t.Fatal("query failed")
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsBody
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Queries.Total != 2 || m.LatencyUs.Count != 2 {
		t.Fatalf("total=%d latency count=%d, want 2/2", m.Queries.Total, m.LatencyUs.Count)
	}
	if m.LatencyUs.P99 < m.LatencyUs.P50 || m.LatencyUs.P50 == 0 {
		t.Fatalf("latency quantiles p50=%d p99=%d", m.LatencyUs.P50, m.LatencyUs.P99)
	}
	orders, ok := m.Tables["orders"]
	if !ok {
		t.Fatal("metrics lack table orders")
	}
	if orders.BlocksSkipped == 0 || orders.BlocksFetched == 0 {
		t.Fatalf("orders block counters: %+v (the mid-range scan must both skip and fetch)", orders)
	}
	if orders.Cache.Hits == 0 || orders.Cache.HitRate <= 0 {
		t.Fatalf("orders cache stats: %+v (the repeated query must hit)", orders.Cache)
	}
	if m.Cache.BytesBudget != DefaultCacheBytes {
		t.Fatalf("pooled budget = %d, want %d", m.Cache.BytesBudget, DefaultCacheBytes)
	}
	// Blocks were decoded on the way into the cache; the repeat's hits
	// decoded nothing, so decodes stay below lookups.
	if m.Cache.Decodes == 0 || m.Cache.Decodes >= m.Cache.Hits+m.Cache.Misses {
		t.Fatalf("pooled cache: %+v, want decodes only on the way in", m.Cache)
	}

	// healthz and the reload endpoint answer too.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil || hr.StatusCode != 200 {
		t.Fatalf("healthz: %v %d", err, hr.StatusCode)
	}
	hr.Body.Close()
	rr, err := http.Post(ts.URL+"/-/reload", "application/json", nil)
	if err != nil || rr.StatusCode != 200 {
		t.Fatalf("reload endpoint: %v %d", err, rr.StatusCode)
	}
	rr.Body.Close()
}

// TestMetricsUncached: a negative cache budget mounts every container
// uncached — no shared cache and no per-container one — so a repeated
// query is served without a single cache hit and no budget is
// reported.
func TestMetricsUncached(t *testing.T) {
	d := makeData(3000)
	_, ts := newTestServer(t, Config{Dir: newTestDir(t, d), CacheBytes: -1})
	for i := 0; i < 2; i++ {
		if code, body := postQuery(t, ts, queryRequest{Table: "orders", Op: "sum", Columns: []string{"amount"}}); code != 200 {
			t.Fatalf("sum: status %d, body %v", code, body)
		}
	}
	_, met := getJSON(t, ts.URL+"/metrics")
	cache := met["tables"].(map[string]any)["orders"].(map[string]any)["cache"].(map[string]any)
	if cache["bytes_budget"].(float64) != 0 || cache["hits"].(float64) != 0 {
		t.Fatalf("orders cache with -cache-bytes -1: %v, want no budget and no hits", cache)
	}
}

// TestMetricsTableEvictionsPooled: evictions are a pooled figure of
// the shared cache, so a table spread over two containers reports the
// server-wide count once, not once per container.
func TestMetricsTableEvictionsPooled(t *testing.T) {
	// Scattered 16-bit values: every block's payload is a few hundred
	// bytes, so the two columns' 24 blocks overflow a 4 KiB cache.
	a, b := make([]int64, 3000), make([]int64, 3000)
	for i := range a {
		a[i] = int64(i*7919) % 65521
		b[i] = int64(i*104729) % 65519
	}
	dir := t.TempDir()
	writeColumnFile(t, filepath.Join(dir, "pair.a.lwc"), a)
	writeColumnFile(t, filepath.Join(dir, "pair.b.lwc"), b)
	_, ts := newTestServer(t, Config{Dir: dir, CacheBytes: 4 << 10})
	for i := 0; i < 2; i++ {
		if code, body := postQuery(t, ts, queryRequest{Table: "pair", Op: "sum", Columns: []string{"a", "b"}}); code != 200 {
			t.Fatalf("sum: status %d, body %v", code, body)
		}
	}
	_, met := getJSON(t, ts.URL+"/metrics")
	pooled := met["cache"].(map[string]any)["evictions"].(float64)
	table := met["tables"].(map[string]any)["pair"].(map[string]any)["cache"].(map[string]any)["evictions"].(float64)
	if pooled == 0 {
		t.Fatal("two full scans over a 4 KiB cache evicted nothing")
	}
	if table != pooled {
		t.Fatalf("table evictions = %v, want the pooled %v", table, pooled)
	}
}
