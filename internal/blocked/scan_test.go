package blocked

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lwcomp/internal/sel"
)

// hookScan is a plan of n one-row chunks, every one undecided, and its
// own sink, whose Visit is the test's hook.
type hookScan struct {
	n     int
	visit func(k int) error
}

func (h *hookScan) Chunks() int                      { return h.n }
func (h *hookScan) Bounds(k int) (start, count int)  { return k, 1 }
func (h *hookScan) Classify(int) RangeClass          { return RangePart }
func (h *hookScan) Announce(context.Context, int)    {}
func (h *hookScan) Select(int, *sel.Selection) error { return nil }
func (h *hookScan) Tolerate(int, error) bool         { return false }
func (h *hookScan) Proved(int) error                 { return nil }
func (h *hookScan) Visit(k int) error                { return h.visit(k) }

// goid returns the calling goroutine's id, read off the header of its
// stack trace ("goroutine 7 [running]:").
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestScanTakesIdleCores: a scan fans out only into the cores no other
// running scan holds, and its caller is one of its workers. On two
// cores a lone scan starts one helper; a scan started while another is
// inside a Visit starts none; a panic in a chunk the caller visits
// comes back as that chunk's error.
func TestScanTakesIdleCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ctx := context.Background()
	b := &hookScan{n: 8, visit: func(int) error { return nil }}
	lone := func(when string) {
		t.Helper()
		n, err := Scan(ctx, 0, b, b)
		if err != nil || n.Fetched != 8 || n.Helpers != 1 {
			t.Fatalf("lone scan %s: %+v, %v; want 8 fetched, 1 helper", when, n, err)
		}
	}
	lone("on idle cores")

	entered, release := make(chan struct{}), make(chan struct{})
	a := &hookScan{n: 1, visit: func(int) error {
		close(entered)
		<-release
		return nil
	}}
	done := make(chan error)
	go func() {
		_, err := Scan(ctx, 0, a, a)
		done <- err
	}()
	<-entered
	n, err := Scan(ctx, 0, b, b)
	close(release)
	if aErr := <-done; aErr != nil {
		t.Fatalf("held scan: %v", aErr)
	}
	if err != nil || n.Fetched != 8 || n.Helpers != 0 {
		t.Fatalf("scan beside a running one: %+v, %v; want 8 fetched, 0 helpers", n, err)
	}
	lone("after the other returned")

	// Only the caller's first chunk panics. The helper holds the chunk
	// it draws until the caller has entered one, so the caller must
	// visit a chunk for the scan to finish cleanly.
	caller := goid()
	var callerChunk atomic.Int64
	callerChunk.Store(-1)
	callerIn := make(chan struct{})
	c := &hookScan{n: 8, visit: func(k int) error {
		if goid() == caller {
			if callerChunk.CompareAndSwap(-1, int64(k)) {
				close(callerIn)
				panic("kernel crash")
			}
			return nil
		}
		select {
		case <-callerIn:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("the caller visited no chunk")
		}
	}}
	before := RecoveredPanics()
	n, err = Scan(ctx, 0, c, c)
	if n.Helpers != 1 {
		t.Fatalf("panicking scan: %d helpers, want 1", n.Helpers)
	}
	want := fmt.Sprintf("panic in parallel worker on index %d: kernel crash", callerChunk.Load())
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("panicking scan: error %v, want one naming %q", err, want)
	}
	if RecoveredPanics() != before+1 {
		t.Fatalf("RecoveredPanics rose by %d, want 1", RecoveredPanics()-before)
	}
}
