package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDeadlineCtx: the query context reports its deadline from the
// clock without a timer, keeps the first error it reports, closes Done
// at the deadline once something waits on it, and passes the request's
// cancellation through either way.
func TestDeadlineCtx(t *testing.T) {
	c := newDeadlineCtx(context.Background(), time.Hour)
	if d, ok := c.Deadline(); !ok || time.Until(d) < 59*time.Minute {
		t.Fatalf("Deadline() = %v, %v", d, ok)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("fresh context: Err() = %v", err)
	}
	if c.armed.Load() != nil {
		t.Fatal("Err armed a timer")
	}
	c.stop()

	// Past the deadline, Err says so from the clock alone, and a later
	// Done is closed.
	c = newDeadlineCtx(context.Background(), time.Millisecond)
	time.Sleep(2 * time.Millisecond)
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired context: Err() = %v", err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("Done open after Err reported the deadline")
	}
	c.stop()
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err() changed to %v after stop", err)
	}

	// A waiter on Done is woken at the deadline.
	c = newDeadlineCtx(context.Background(), 20*time.Millisecond)
	start := time.Now()
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done not closed at the deadline")
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Fatalf("Done closed after %v, before the deadline", el)
	}
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("after Done: Err() = %v", err)
	}
	c.stop()

	// The request's cancellation shows before and after arming.
	for _, armFirst := range []bool{false, true} {
		parent, cancel := context.WithCancel(context.Background())
		c = newDeadlineCtx(parent, time.Hour)
		if armFirst {
			c.Done()
		}
		cancel()
		if err := c.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("armed=%v: Err() = %v after the request was cancelled", armFirst, err)
		}
		select {
		case <-c.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("armed=%v: Done open after the request was cancelled", armFirst)
		}
		c.stop()
	}

	// A client leaving after the deadline was reported does not turn
	// DeadlineExceeded into Canceled.
	parent, cancel := context.WithCancel(context.Background())
	c = newDeadlineCtx(parent, time.Millisecond)
	time.Sleep(2 * time.Millisecond)
	c.Err()
	cancel()
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err() changed to %v when the request was cancelled", err)
	}
	c.stop()
}

// TestDeadlineCtxConcurrent: goroutines polling Err and waiting on
// Done at once all see the deadline, and agree on its error.
func TestDeadlineCtxConcurrent(t *testing.T) {
	c := newDeadlineCtx(context.Background(), 5*time.Millisecond)
	defer c.stop()
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w%2 == 0 {
				<-c.Done()
			}
			for c.Err() == nil {
				time.Sleep(100 * time.Microsecond)
			}
			if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("worker %d: Err() = %v", w, err)
			}
		}()
	}
	wg.Wait()
}

// TestQueuedRequestDeadline: a request queued behind a full gate is
// answered 504 at its own deadline, counted as a timeout, and leaves
// the queue.
func TestQueuedRequestDeadline(t *testing.T) {
	d := makeData(500)
	srv, ts := newTestServer(t, Config{Dir: newTestDir(t, d), MaxConcurrent: 1, MaxQueue: 1, QueryTimeout: time.Minute})
	srv.gate.slots <- struct{}{} // occupy the only slot
	defer func() { <-srv.gate.slots }()

	const timeout = 150 * time.Millisecond
	start := time.Now()
	code, body := postQuery(t, ts, queryRequest{Table: "orders", Op: "count", TimeoutMS: int64(timeout / time.Millisecond)})
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("queued query: code=%d body=%v, want 504", code, body)
	}
	if elapsed < timeout || elapsed > 10*time.Second {
		t.Fatalf("504 after %v, want at the %v deadline", elapsed, timeout)
	}
	if got := srv.met.timeouts.Load(); got != 1 {
		t.Fatalf("timeouts counter = %d, want 1", got)
	}
	if got := srv.gate.waiting(); got != 0 {
		t.Fatalf("%d requests still queued", got)
	}
}

// TestDisconnectStopsQuery: a client that goes away stops its query,
// whether it is waiting for admission or already scanning.
func TestDisconnectStopsQuery(t *testing.T) {
	d := makeData(4000)
	srv, ts := newTestServer(t, Config{Dir: newTestDir(t, d), MaxConcurrent: 1, MaxQueue: 1, QueryTimeout: time.Minute})

	// Queued: the wait ends when the client disconnects, long before
	// the minute's deadline, and the query is never admitted.
	srv.gate.slots <- struct{}{}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query",
		strings.NewReader(`{"table":"orders","op":"count"}`))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return srv.gate.waiting() == 1 })
	cancel()
	<-done
	waitFor(t, func() bool { return srv.gate.waiting() == 0 })
	<-srv.gate.slots
	if got := srv.met.total.Load(); got != 0 {
		t.Fatalf("%d queries admitted, want 0", got)
	}

	// Admitted: a scan over undecided blocks for a request whose
	// client is gone returns without writing an answer.
	where := fmt.Sprintf("amount >= %d", d.amount[2*testBlock+100]+1)
	body, _ := json.Marshal(queryRequest{Table: "orders", Where: where, Op: "count"})
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)).WithContext(gone))
	if rec.Body.Len() != 0 {
		t.Fatalf("query of a gone client answered %d: %s", rec.Code, rec.Body)
	}
	if got := srv.met.errors.Load(); got != 0 {
		t.Fatalf("errors counter = %d, want 0", got)
	}

	// The same query from a client that stays gets its answer.
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"matched"`) {
		t.Fatalf("query: %d %s", rec.Code, rec.Body)
	}
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
	}
}
