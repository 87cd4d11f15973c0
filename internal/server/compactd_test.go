package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lwcomp/internal/blocked"
	"lwcomp/internal/scheme"
	"lwcomp/internal/storage"
	"lwcomp/internal/workload"
)

// writeCheapFile ingests vals the "write fast now" way — a fixed ns
// bitpack, no analyzer search — so the background compactor has real
// bytes to win back.
func writeCheapFile(t *testing.T, path string, vals []int64) {
	t.Helper()
	ns, err := scheme.Parse("ns")
	if err != nil {
		t.Fatal(err)
	}
	col, err := blocked.Encode(vals, blocked.EncodeOptions{BlockSize: testBlock, Scheme: ns})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := storage.WriteContainerV3(f, []storage.BlockedColumn{{Name: "payload", Col: col}}); err != nil {
		t.Fatal(err)
	}
}

// dirSize sums the directory's *.lwc sizes.
func dirSize(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".lwc" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// postCompact triggers one synchronous sweep over /-/compact.
func postCompact(t *testing.T, ts *httptest.Server) sweepResult {
	t.Helper()
	resp, err := http.Post(ts.URL+"/-/compact", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /-/compact: status %d", resp.StatusCode)
	}
	var res sweepResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCompactDaemonSweep: a server over cheaply-ingested containers
// shrinks its own directory on a triggered sweep, keeps answering
// queries mid-sweep with identical results, and reports the work in
// /metrics — with zero failed or rejected queries throughout.
func TestCompactDaemonSweep(t *testing.T) {
	dir := t.TempDir()
	data := workload.OrderShipDates(20000, 64, 730120, 7)
	var wantSum int64
	for _, v := range data {
		wantSum += v
	}
	writeCheapFile(t, filepath.Join(dir, "orders.date.lwc"), data)
	writeCheapFile(t, filepath.Join(dir, "ship.date.lwc"), workload.Runs(20000, 96, 9, 3))
	before := dirSize(t, dir)

	srv, ts := newTestServer(t, Config{
		Dir:                 dir,
		CacheBytes:          -1,
		Compact:             true,
		CompactInterval:     time.Hour, // sweeps only when triggered
		CompactMinGainBytes: -1,
	})

	// Queries in flight while the sweep rewrites under them.
	stop := make(chan struct{})
	errs := make(chan string, 64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				status, out := postQuery(t, ts, queryRequest{Table: "orders", Op: "sum", Columns: []string{"date"}})
				if status != http.StatusOK {
					errs <- fmt.Sprintf("query during sweep: %d %v", status, out)
					return
				}
				if got := int64(out["sums"].(map[string]any)["date"].(float64)); got != wantSum {
					errs <- fmt.Sprintf("sum during sweep = %d, want %d", got, wantSum)
					return
				}
			}
		}()
	}

	res := postCompact(t, ts)
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	if res.Rewritten != 2 || res.Aborted {
		t.Fatalf("sweep = %+v, want 2 rewritten, not aborted", res)
	}
	if !res.Reloaded {
		t.Fatalf("sweep did not reload: %+v", res)
	}
	after := dirSize(t, dir)
	if after >= before {
		t.Fatalf("directory did not shrink: %d -> %d bytes", before, after)
	}

	// Post-sweep queries read the compacted generation and still agree.
	status, out := postQuery(t, ts, queryRequest{Table: "orders", Op: "sum", Columns: []string{"date"}})
	if status != http.StatusOK {
		t.Fatalf("post-sweep query status %d: %v", status, out)
	}
	if got := int64(out["sums"].(map[string]any)["date"].(float64)); got != wantSum {
		t.Fatalf("post-sweep sum = %d, want %d", got, wantSum)
	}

	// /metrics carries the compaction section.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var met struct {
		Queries struct {
			Rejected int64 `json:"rejected"`
			Errors   int64 `json:"errors"`
			Timeouts int64 `json:"timeouts"`
		} `json:"queries"`
		Compaction *metricsCompaction `json:"compaction"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
		t.Fatal(err)
	}
	if q := met.Queries; q.Rejected != 0 || q.Errors != 0 || q.Timeouts != 0 {
		t.Fatalf("server counted queries failing around the sweep: %+v", q)
	}
	if met.Compaction == nil {
		t.Fatal("metrics missing compaction section")
	}
	c := met.Compaction
	if c.ContainersScanned < 2 || c.ContainersRewritten != 2 || c.BytesReclaimed != before-after {
		t.Fatalf("compaction metrics = %+v, want 2 rewritten reclaiming %d bytes", c, before-after)
	}
	if c.CPUSeconds <= 0 || c.Sweeps != 1 || c.SweepsAborted != 0 || c.ContainersFailed != 0 || c.Generation != 2 {
		t.Fatalf("compaction metrics = %+v", c)
	}

	// A second sweep finds nothing left to win.
	res = postCompact(t, ts)
	if res.Rewritten != 0 || res.Skipped != 2 {
		t.Fatalf("second sweep = %+v, want all skipped", res)
	}
	_ = srv
}

// TestCompactDaemonDisabled: without -compact, the trigger endpoint
// 404s and /metrics omits the section.
func TestCompactDaemonDisabled(t *testing.T) {
	dir := t.TempDir()
	writeCheapFile(t, filepath.Join(dir, "t.a.lwc"), workload.Runs(4000, 64, 9, 1))
	_, ts := newTestServer(t, Config{Dir: dir, CacheBytes: -1})
	resp, err := http.Post(ts.URL+"/-/compact", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /-/compact without daemon: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var met map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
		t.Fatal(err)
	}
	if _, ok := met["compaction"]; ok {
		t.Fatal("metrics carries a compaction section with the daemon off")
	}
}

// TestCompactDaemonMerge: the daemon's merge pass coalesces small
// same-table part files and the merged table keeps serving the same
// shape and answers.
func TestCompactDaemonMerge(t *testing.T) {
	dir := t.TempDir()
	d := makeData(4000)
	writeCheapFile(t, filepath.Join(dir, "orders.date.lwc"), d.date)
	writeCheapFile(t, filepath.Join(dir, "orders.status.lwc"), d.status)
	srv, ts := newTestServer(t, Config{
		Dir:                 dir,
		CacheBytes:          -1,
		Compact:             true,
		CompactInterval:     time.Hour,
		CompactMinGainBytes: -1,
		CompactMerge:        true,
	})
	res := postCompact(t, ts)
	if res.Merged != 1 {
		t.Fatalf("sweep = %+v, want 1 merged", res)
	}
	if _, err := os.Stat(filepath.Join(dir, "orders.lwc")); err != nil {
		t.Fatalf("merged container missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "orders.date.lwc")); !os.IsNotExist(err) {
		t.Fatalf("part not removed: %v", err)
	}
	if got := srv.Tables(); len(got) != 1 || got[0] != "orders" {
		t.Fatalf("tables after merge = %v", got)
	}
	var wantSum int64
	for _, v := range d.status {
		wantSum += v
	}
	status, out := postQuery(t, ts, queryRequest{Table: "orders", Op: "sum", Columns: []string{"status"}})
	if status != http.StatusOK {
		t.Fatalf("post-merge query status %d: %v", status, out)
	}
	if got := int64(out["sums"].(map[string]any)["status"].(float64)); got != wantSum {
		t.Fatalf("post-merge sum = %d, want %d", got, wantSum)
	}
}

// TestCompactDaemonTicker: a short interval drives sweeps without any
// HTTP trigger, and Close stops the loop cleanly.
func TestCompactDaemonTicker(t *testing.T) {
	dir := t.TempDir()
	writeCheapFile(t, filepath.Join(dir, "orders.date.lwc"), workload.OrderShipDates(8000, 64, 730120, 7))
	before := dirSize(t, dir)
	srv, _ := newTestServer(t, Config{
		Dir:                 dir,
		CacheBytes:          -1,
		Compact:             true,
		CompactInterval:     5 * time.Millisecond,
		CompactMinGainBytes: -1,
	})
	deadline := time.Now().Add(5 * time.Second)
	for srv.compactor.Counters().Rewritten == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ticker never drove a rewrite")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The loop is down: counters stop moving.
	got := srv.compactor.Counters().Scanned
	time.Sleep(30 * time.Millisecond)
	if now := srv.compactor.Counters().Scanned; now != got {
		t.Fatalf("compactor still scanning after Close: %d -> %d", got, now)
	}
	if after := dirSize(t, dir); after >= before {
		t.Fatalf("ticker sweep did not shrink the directory: %d -> %d", before, after)
	}
}
