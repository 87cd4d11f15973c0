package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lwcomp"
	"lwcomp/internal/storage"
)

// postScrub triggers one synchronous scrub sweep and decodes its
// summary. query is "" or "?heal=1"-style overrides.
func postScrub(t *testing.T, ts *httptest.Server, query string) scrubResult {
	t.Helper()
	resp, err := http.Post(ts.URL+"/-/scrub"+query, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /-/scrub%s: %d %s", query, resp.StatusCode, body)
	}
	var res scrubResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

// swapLyingAmount atomically replaces orders.amount.lwc with a
// generation whose block stats lie (self-consistent CRCs, wrong Min) —
// the corruption class only a scrub's stats re-derivation catches. The
// mounted descriptor keeps the old inode, so in-flight readers are
// untouched until a reload.
func swapLyingAmount(t *testing.T, dir string, amount []int64) {
	t.Helper()
	col, err := lwcomp.Encode(amount, lwcomp.WithBlockSize(testBlock))
	if err != nil {
		t.Fatal(err)
	}
	col.Blocks[2].Min -= 7
	err = storage.AtomicWriteFile(filepath.Join(dir, "orders.amount.lwc"), func(w io.Writer) error {
		return lwcomp.WriteColumns(w, []lwcomp.NamedColumn{{Name: "payload", Col: col}})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func sumOf(vals []int64) int64 {
	var s int64
	for _, v := range vals {
		s += v
	}
	return s
}

// TestScrubSweepQuarantinesThenHeals drives the full self-healing
// loop by hand: a scrub-only sweep detects the rotten generation and
// quarantines the block, a healing sweep salvages the container back
// to the truthful writer's exact bytes, reloads, and clears the
// ledger — while queries on the healthy columns keep answering.
func TestScrubSweepQuarantinesThenHeals(t *testing.T) {
	d := makeData(2048)
	dir := newTestDir(t, d)
	amountPath := filepath.Join(dir, "orders.amount.lwc")
	good, err := os.ReadFile(amountPath)
	if err != nil {
		t.Fatal(err)
	}
	goodSum := sha256.Sum256(good)
	wantSum := sumOf(d.amount)

	_, ts := newTestServer(t, Config{Dir: dir, CacheBytes: -1})
	swapLyingAmount(t, dir, d.amount)

	// Status-only counts run concurrently through both sweeps. None of
	// them touches the rotten column, so every one must answer 200 with
	// the exact count, across the heal's reload too.
	var wantCount int64
	for _, v := range d.status {
		if v == 3 {
			wantCount++
		}
	}
	stop := make(chan struct{})
	errs := make(chan string, 8)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/query", "application/json",
					strings.NewReader(`{"table":"orders","where":"status = 3","op":"count"}`))
				if err != nil {
					errs <- err.Error()
					return
				}
				var out struct {
					Matched int64 `json:"matched"`
				}
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil || out.Matched != wantCount {
					errs <- fmt.Sprintf("count during sweeps: status %d, matched %d (want %d), %v",
						resp.StatusCode, out.Matched, wantCount, err)
					return
				}
			}
		}()
	}
	stopCounts := sync.OnceFunc(func() { close(stop); wg.Wait() })
	t.Cleanup(stopCounts)

	// Phase 1: detect and quarantine, no healing.
	res := postScrub(t, ts, "?heal=0")
	if res.Errors < 1 || res.Quarantined < 1 || res.Healed != 0 || res.Reloaded {
		t.Fatalf("detection sweep: %+v", res)
	}
	// Other columns are untouched; the quarantined one refuses exact
	// scans and serves degraded ones with the omission reported.
	if status, out := postQuery(t, ts, queryRequest{Table: "orders", Op: "sum", Columns: []string{"status"}}); status != http.StatusOK {
		t.Fatalf("unrelated column after quarantine: %d %v", status, out)
	}
	if status, _ := postQuery(t, ts, queryRequest{Table: "orders", Op: "sum", Columns: []string{"amount"}}); status != http.StatusInternalServerError {
		t.Fatalf("exact scan of quarantined column: %d, want 500", status)
	}
	if status, _ := postQuery(t, ts, queryRequest{Table: "orders", Op: "sum", Columns: []string{"amount"}, AllowDegraded: true}); status != http.StatusOK {
		t.Fatalf("degraded scan of quarantined column: %d", status)
	}

	// Phase 2: heal. The salvage preserves every payload byte-for-byte
	// and re-derives the lied-about stats, so the healed file is
	// byte-identical to the pre-corruption original.
	res = postScrub(t, ts, "?heal=1")
	stopCounts()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if res.Healed != 1 || !res.Reloaded || res.QuarantineCleared < 1 || res.Unrepairable != 0 {
		t.Fatalf("healing sweep: %+v", res)
	}
	healed, err := os.ReadFile(amountPath)
	if err != nil {
		t.Fatal(err)
	}
	if sha256.Sum256(healed) != goodSum {
		t.Fatal("healed file differs from the pre-corruption original")
	}
	status, out := postQuery(t, ts, queryRequest{Table: "orders", Op: "sum", Columns: []string{"amount"}})
	if status != http.StatusOK {
		t.Fatalf("exact scan after heal: %d %v", status, out)
	}
	if got := int64(out["sums"].(map[string]any)["amount"].(float64)); got != wantSum {
		t.Fatalf("sum after heal = %d, want %d", got, wantSum)
	}

	// The metrics section reflects the sweeps.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Scrub *metricsScrub `json:"scrub"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Scrub == nil {
		t.Fatal("/metrics has no scrub section")
	}
	if m.Scrub.Sweeps < 2 || m.Scrub.ErrorsFound < 1 || m.Scrub.Healed != 1 || m.Scrub.Unrepairable != 0 ||
		m.Scrub.Quarantined < 1 || m.Scrub.BlocksScanned == 0 || m.Scrub.BytesScanned == 0 {
		t.Fatalf("scrub metrics: %+v", *m.Scrub)
	}
	if m.Scrub.LastSweepAgeS < 0 {
		t.Fatalf("last sweep age %v after two sweeps", m.Scrub.LastSweepAgeS)
	}
}

// scrubSweepsStarted reads the scrub section's sweep count off
// /metrics.
func scrubSweepsStarted(t *testing.T, ts *httptest.Server) int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Scrub *metricsScrub `json:"scrub"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil || m.Scrub == nil {
		t.Fatalf("/metrics scrub section: %v", err)
	}
	return m.Scrub.Sweeps
}

// TestScrubSweepDoesNotOutliveClose: an on-demand healing sweep parked
// behind query traffic when Close runs is aborted by it, rather than
// healing and re-mounting afterwards onto the closed server — a mount
// set nothing would ever retire, leaking its descriptors.
func TestScrubSweepDoesNotOutliveClose(t *testing.T) {
	d := makeData(1024)
	dir := newTestDir(t, d)
	srv, ts := newTestServer(t, Config{Dir: dir, CacheBytes: -1, MaxConcurrent: 1})
	swapLyingAmount(t, dir, d.amount)

	// The one admission slot is busy, so the sweep parks in its yield.
	if err := srv.gate.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	done := make(chan scrubResult, 1)
	go func() { done <- srv.scrubSweep(true) }()
	deadline := time.Now().Add(5 * time.Second)
	for scrubSweepsStarted(t, ts) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the sweep never started")
		}
		time.Sleep(time.Millisecond)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv.gate.release()
	res := <-done
	if !res.Aborted || res.Healed != 0 || res.Reloaded {
		t.Fatalf("sweep across Close = %+v, want aborted with no heal and no reload", res)
	}
	if got := srv.Tables(); len(got) != 0 {
		t.Fatalf("the closed server has table(s) %v mounted", got)
	}
}

// TestScrubDaemonTicker proves the background loop self-heals with no
// operator in the loop: corrupt generation on disk, wait, and the
// healed bytes come back.
func TestScrubDaemonTicker(t *testing.T) {
	d := makeData(1024)
	dir := newTestDir(t, d)
	amountPath := filepath.Join(dir, "orders.amount.lwc")
	good, err := os.ReadFile(amountPath)
	if err != nil {
		t.Fatal(err)
	}
	goodSum := sha256.Sum256(good)

	_, ts := newTestServer(t, Config{
		Dir:            dir,
		CacheBytes:     -1,
		Scrub:          true,
		ScrubInterval:  20 * time.Millisecond,
		ScrubHeal:      true,
		ScrubRateBytes: -1, // unthrottled: the test waits on wall time
	})
	swapLyingAmount(t, dir, d.amount)

	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := os.ReadFile(amountPath)
		if err == nil && sha256.Sum256(cur) == goodSum {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon did not heal the container within the deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The healed generation serves — once the sweep that renamed it
	// into place has also reloaded the mounts, which clears the
	// quarantine ledger; the file on disk changes a moment before that.
	for {
		status, out := postQuery(t, ts, queryRequest{Table: "orders", Op: "sum", Columns: []string{"amount"}})
		if status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query after autonomous heal: %d %v", status, out)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStartupJanitorRemovesOrphans: temp litter from a crashed writer
// is swept before the first mount.
func TestStartupJanitorRemovesOrphans(t *testing.T) {
	d := makeData(512)
	dir := newTestDir(t, d)
	orphan := filepath.Join(dir, ".orders.amount.lwc.tmp-31337")
	if err := os.WriteFile(orphan, []byte("torn"), 0o600); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Dir: dir, CacheBytes: -1})
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp file survived startup: %v", err)
	}
	if status, _ := postQuery(t, ts, queryRequest{Table: "orders"}); status != http.StatusOK {
		t.Fatalf("mount after janitor: %d", status)
	}
}

// TestRetryAfterJitter: the advertised Retry-After stays within
// [ceil, ceil+ceil/4] and actually spreads, so a herd of 429'd clients
// does not come back in lockstep.
func TestRetryAfterJitter(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 256; i++ {
		got := retryAfterSeconds(8 * time.Second)
		if got < 8 || got > 10 {
			t.Fatalf("retryAfterSeconds(8s) = %d, want [8, 10]", got)
		}
		seen[got] = true
	}
	if len(seen) < 2 {
		t.Fatalf("no spread over 256 draws: %v", seen)
	}
	// Sub-second deadlines still advertise a full second, unjittered.
	for i := 0; i < 16; i++ {
		if got := retryAfterSeconds(500 * time.Millisecond); got != 1 {
			t.Fatalf("retryAfterSeconds(500ms) = %d, want 1", got)
		}
	}
}
