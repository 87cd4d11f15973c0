package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lwcomp"
	"lwcomp/internal/faults"
	"lwcomp/internal/storage"
)

// getJSON fetches path and decodes the JSON body.
func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s (%d): %v", url, resp.StatusCode, err)
	}
	return resp.StatusCode, out
}

// corruptBlock flips a payload byte of the given block in a v3
// container file, so the block's CRC check fails on next read.
func corruptBlock(t *testing.T, path string, block int) {
	t.Helper()
	cf, err := storage.OpenContainerFile(path, storage.OpenOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	ext := cf.Extents(0)[block]
	cf.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Absolute payload start = 14-byte prefix (magic, version, indexLen)
	// + the index; extents are relative to the payload region.
	indexLen := binary.LittleEndian.Uint64(data[6:14])
	off := 14 + int64(indexLen) + ext.Offset
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFaultPanicRecoveryKeepsServing injects a panic into the scan
// path of a mounted column: the query answers 500, panics_recovered
// ticks, and — the point — the daemon keeps answering queries.
func TestFaultPanicRecoveryKeepsServing(t *testing.T) {
	d := makeData(2000)
	srv, ts := newTestServer(t, Config{Dir: newTestDir(t, d)})

	tbl, ok := srv.Table("orders")
	if !ok {
		t.Fatal("orders not mounted")
	}
	col, err := tbl.Column("amount")
	if err != nil {
		t.Fatal(err)
	}
	panics := map[int]bool{}
	for i := 0; i < col.NumBlocks(); i++ {
		panics[i] = true
	}
	orig := col.Source
	col.Source = faults.NewBlockSource(orig, nil, panics)

	status, body := postQuery(t, ts, queryRequest{Table: "orders", Where: "amount = 500", Op: "count"})
	if status != http.StatusInternalServerError {
		t.Fatalf("query over panicking column: status %d, body %v", status, body)
	}

	col.Source = orig
	status, body = postQuery(t, ts, queryRequest{Table: "orders", Where: "amount = 500", Op: "count"})
	if status != http.StatusOK {
		t.Fatalf("query after restore: status %d, body %v", status, body)
	}
	if body["matched"].(float64) != 1 {
		t.Fatalf("matched = %v, want 1 (amount 500 is row 500)", body["matched"])
	}

	_, met := getJSON(t, ts.URL+"/metrics")
	if met["panics_recovered"].(float64) < 1 {
		t.Fatalf("panics_recovered = %v, want >= 1", met["panics_recovered"])
	}
}

// TestFaultHandlerPanicBarrier drives a panic through the HTTP layer
// itself (not a scan worker) and checks the 500 + recovery counter.
func TestFaultHandlerPanicBarrier(t *testing.T) {
	srv, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", func(w http.ResponseWriter, r *http.Request) { panic("handler crash") })
	h := srv.recovered(mux)

	rec := newRecorder()
	h.ServeHTTP(rec, mustRequest(t, "GET", "/boom"))
	if rec.status != http.StatusInternalServerError {
		t.Fatalf("status = %d", rec.status)
	}
	if srv.met.panics.Load() != 1 {
		t.Fatalf("panics counter = %d", srv.met.panics.Load())
	}
	var body errorBody
	if err := json.Unmarshal(rec.body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("500 body %q not an error JSON: %v", rec.body.String(), err)
	}
}

// minimal ResponseWriter capturing status and body.
type recorder struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{h: http.Header{}, status: http.StatusOK} }

func (r *recorder) Header() http.Header         { return r.h }
func (r *recorder) WriteHeader(code int)        { r.status = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

func mustRequest(t *testing.T, method, target string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestFaultDegradedQueryEndToEnd corrupts one block of one column on
// disk and walks the full contract: default queries fail fast with a
// 500, allow_degraded queries succeed with the exact omission in the
// response, /metrics gauges the quarantine, and the verifier flags
// the file.
func TestFaultDegradedQueryEndToEnd(t *testing.T) {
	d := makeData(2000)
	dir := newTestDir(t, d)
	amountPath := filepath.Join(dir, "orders.amount.lwc")
	corruptBlock(t, amountPath, 2)
	srv, ts := newTestServer(t, Config{Dir: dir})

	// Default mode: the corrupted block fails the query — a clean 500,
	// not a wrong answer, and the daemon stays up.
	status, body := postQuery(t, ts, queryRequest{Table: "orders", Op: "sum", Columns: []string{"amount"}})
	if status != http.StatusInternalServerError {
		t.Fatalf("default-mode sum over corrupted column: status %d, body %v", status, body)
	}

	// Degraded mode: 200, with the manifest naming exactly the omitted
	// block and row range.
	status, body = postQuery(t, ts, queryRequest{Table: "orders", Op: "sum", Columns: []string{"amount"}, AllowDegraded: true})
	if status != http.StatusOK {
		t.Fatalf("degraded sum: status %d, body %v", status, body)
	}
	deg, ok := body["degraded"].([]any)
	if !ok || len(deg) != 1 {
		t.Fatalf("degraded manifest = %v, want exactly one entry", body["degraded"])
	}
	entry := deg[0].(map[string]any)
	reason, _ := entry["reason"].(string)
	if entry["column"] != "amount" || entry["block"].(float64) != 2 ||
		entry["row_start"].(float64) != float64(2*testBlock) || entry["row_count"].(float64) != testBlock ||
		reason == "" {
		t.Fatalf("manifest entry = %v", entry)
	}
	var want int64
	for i, v := range d.amount {
		if i >= 2*testBlock && i < 3*testBlock {
			continue
		}
		want += v
	}
	if got := int64(body["sums"].(map[string]any)["amount"].(float64)); got != want {
		t.Fatalf("degraded sum = %d, want %d (all rows outside block 2)", got, want)
	}

	// The quarantine is visible in /metrics.
	_, met := getJSON(t, ts.URL+"/metrics")
	orders := met["tables"].(map[string]any)["orders"].(map[string]any)
	if orders["blocks_quarantined"].(float64) != 1 {
		t.Fatalf("blocks_quarantined = %v, want 1", orders["blocks_quarantined"])
	}

	// Queries not touching the bad block are exact, degraded or not.
	status, body = postQuery(t, ts, queryRequest{Table: "orders", Where: "status = 1", Op: "count"})
	if status != http.StatusOK || body["matched"].(float64) != 400 {
		t.Fatalf("unrelated query: status %d, matched %v", status, body["matched"])
	}

	// And the offline verifier flags the file.
	rep, err := storage.VerifyFile(amountPath)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("verifier passed the corrupted container")
	}
	_ = srv
}

// TestFaultDegradedRowsStream checks the rows path: a degraded stream
// omits the bad block's rows and the done frame carries the manifest.
func TestFaultDegradedRowsStream(t *testing.T) {
	d := makeData(2000)
	dir := newTestDir(t, d)
	corruptBlock(t, filepath.Join(dir, "orders.amount.lwc"), 2)
	_, ts := newTestServer(t, Config{Dir: dir})

	reqBody, _ := json.Marshal(queryRequest{Table: "orders", Op: "rows",
		Columns: []string{"amount"}, AllowDegraded: true, BatchRows: 100})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var frames []map[string]any
	for sc.Scan() {
		var f map[string]any
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		frames = append(frames, f)
	}
	last := frames[len(frames)-1]
	if last["done"] != true {
		t.Fatalf("stream did not finish cleanly: %v", last)
	}
	if last["streamed"].(float64) != float64(2000-testBlock) {
		t.Fatalf("streamed = %v, want %d", last["streamed"], 2000-testBlock)
	}
	deg, ok := last["degraded"].([]any)
	if !ok || len(deg) != 1 || deg[0].(map[string]any)["block"].(float64) != 2 {
		t.Fatalf("done-frame manifest = %v", last["degraded"])
	}
	var streamed int
	for _, f := range frames[1 : len(frames)-1] {
		for _, r := range f["rows"].([]any) {
			row := int(r.(float64))
			if row >= 2*testBlock && row < 3*testBlock {
				t.Fatalf("row %d from the corrupted block leaked into the stream", row)
			}
			streamed++
		}
	}
	if streamed != 2000-testBlock {
		t.Fatalf("row frames carried %d rows, want %d", streamed, 2000-testBlock)
	}
}

// TestFaultStreamTerminalErrorFrame kills a stream mid-flight (default
// fail-fast mode over a corrupted block) and checks the terminal
// NDJSON error frame with done:false.
func TestFaultStreamTerminalErrorFrame(t *testing.T) {
	d := makeData(2000)
	dir := newTestDir(t, d)
	corruptBlock(t, filepath.Join(dir, "orders.amount.lwc"), 2)
	_, ts := newTestServer(t, Config{Dir: dir})

	reqBody, _ := json.Marshal(queryRequest{Table: "orders", Op: "rows",
		Columns: []string{"amount"}, BatchRows: 100})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The 200 and header frame are already gone when the failure hits.
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last map[string]any
	frames := 0
	for sc.Scan() {
		last = nil
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		frames++
	}
	if frames < 2 {
		t.Fatalf("stream had %d frames; want at least header + terminal", frames)
	}
	errMsg, hasErr := last["error"].(string)
	if !hasErr || errMsg == "" {
		t.Fatalf("terminal frame %v has no error", last)
	}
	if done, present := last["done"]; !present || done != false {
		t.Fatalf("terminal error frame %v must carry done:false", last)
	}
}

// TestFaultReadyzTracksDraining: /readyz flips to 503 while a retired
// mount set is still pinned by an in-flight query, and back to 200
// once it drains; /healthz stays 200 throughout (liveness, not
// readiness).
func TestFaultReadyzTracksDraining(t *testing.T) {
	d := makeData(1000)
	srv, ts := newTestServer(t, Config{Dir: newTestDir(t, d)})

	assertStatus := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	assertStatus("/readyz", http.StatusOK)

	// Pin the current mount set the way an in-flight query would, then
	// reload: the old set cannot close until the pin drops.
	ms := srv.acquireMounts()
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	assertStatus("/readyz", http.StatusServiceUnavailable)
	assertStatus("/healthz", http.StatusOK)

	ms.release()
	assertStatus("/readyz", http.StatusOK)

	// An idle reload is ready again the moment it returns.
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	assertStatus("/readyz", http.StatusOK)

	srv.Close()
	assertStatus("/readyz", http.StatusServiceUnavailable)
	assertStatus("/healthz", http.StatusOK)
}

// TestFaultInjectionAbsorbedByRetries mounts through a deterministic
// fault injector and checks that the configured retry budget absorbs
// every transient fault: queries answer exactly, and /metrics shows
// the absorbed retries with zero giveups.
func TestFaultInjectionAbsorbedByRetries(t *testing.T) {
	d := makeData(2000)
	wrap, last := faults.Wrap(faults.Config{Seed: 42, TransientProb: 0.2, MaxConsecutive: 2})
	_, ts := newTestServer(t, Config{
		Dir:            newTestDir(t, d),
		ReadRetries:    4,
		FaultInjection: wrap,
	})
	for i := 0; i < 5; i++ {
		status, body := postQuery(t, ts, queryRequest{Table: "orders", Where: "status = 2", Op: "sum", Columns: []string{"amount"}})
		if status != http.StatusOK {
			t.Fatalf("query %d through injector: status %d, body %v", i, status, body)
		}
	}
	if last() == nil || last().InjectedTransient() == 0 {
		t.Fatal("injector fired nothing — raise TransientProb")
	}
	_, met := getJSON(t, ts.URL+"/metrics")
	orders := met["tables"].(map[string]any)["orders"].(map[string]any)
	if orders["read_retries"].(float64) == 0 {
		t.Fatalf("read_retries = %v, want > 0", orders["read_retries"])
	}
	if orders["read_giveups"].(float64) != 0 {
		t.Fatalf("read_giveups = %v, want 0", orders["read_giveups"])
	}
}

// TestFaultTruncatedContainerKeepsServing cuts a mounted container to
// half its length under the running server — the file shrinking under
// an open descriptor. A query needing a block past the cut answers an
// error status rather than dropping the connection or killing the
// process; the daemon stays healthy, another table answers exactly,
// and /metrics counts the failed read as a giveup.
func TestFaultTruncatedContainerKeepsServing(t *testing.T) {
	d := makeData(2000)
	dir := newTestDir(t, d)
	_, ts := newTestServer(t, Config{Dir: dir})

	amountPath := filepath.Join(dir, "orders.amount.lwc")
	st, err := os.Stat(amountPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(amountPath, st.Size()/2); err != nil {
		t.Fatal(err)
	}

	// amount climbs, so this predicate's stats admit only the last
	// block, whose payload lies past the cut.
	where := fmt.Sprintf("amount >= %d", d.amount[d.n-1])
	status, body := postQuery(t, ts, queryRequest{Table: "orders", Where: where, Op: "count"})
	if status != http.StatusInternalServerError {
		t.Fatalf("query past the cut: status %d, body %v", status, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "EOF") {
		t.Fatalf("query past the cut: error %q does not name the short read", msg)
	}

	if code, _ := getJSON(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after the failed read: %d", code)
	}
	status, body = postQuery(t, ts, queryRequest{Table: "events", Where: "kind = 1", Op: "count"})
	if status != http.StatusOK || body["matched"].(float64) != float64(d.n/5) {
		t.Fatalf("other table: status %d, matched %v, want %d", status, body["matched"], d.n/5)
	}
	_, met := getJSON(t, ts.URL+"/metrics")
	orders := met["tables"].(map[string]any)["orders"].(map[string]any)
	if orders["read_giveups"].(float64) == 0 {
		t.Fatalf("read_giveups = %v, want the failed read counted", orders["read_giveups"])
	}
}

// TestFaultCrashSafeWriteNoTornFile: an aborted WriteColumnsFile —
// the library face of kill -9 mid-write — leaves nothing under the
// final name, and a successful one is immediately mountable.
func TestFaultCrashSafeWriteNoTornFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.c.lwc")
	col, err := lwcomp.Encode(makeData(500).amount, lwcomp.WithBlockSize(testBlock))
	if err != nil {
		t.Fatal(err)
	}
	// A column whose source fails mid-write aborts the write.
	bad, err := lwcomp.Encode([]int64{1, 2, 3}, lwcomp.WithBlockSize(2))
	if err != nil {
		t.Fatal(err)
	}
	bad.Blocks[1].Form = nil // no form, no source: the write must fail
	if err := lwcomp.WriteColumnsFile(path, []lwcomp.NamedColumn{{Name: "c", Col: bad}}); err == nil {
		t.Fatal("write of a broken column succeeded")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("aborted write left a file under the final name (stat: %v)", err)
	}
	// Nor a temp file beside it.
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("aborted write left %d entries in the directory (%v)", len(ents), err)
	}
	if err := lwcomp.WriteColumnsFile(path, []lwcomp.NamedColumn{{Name: "c", Col: col}}); err != nil {
		t.Fatal(err)
	}
	rep, err := storage.VerifyFile(path)
	if err != nil || !rep.OK() {
		t.Fatalf("freshly written container failed verification: %v %v", err, rep.Issues)
	}
}
