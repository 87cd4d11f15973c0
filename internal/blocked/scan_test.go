package blocked

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lwcomp/internal/core"
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

// hookSource serves a resident column's forms, each fetch first
// through the test's hook.
type hookSource struct {
	orig  *Column
	fetch func(i int)
}

func (s *hookSource) BlockForm(i int) (*core.Form, Lease, error) {
	s.fetch(i)
	return s.orig.Blocks[i].Form, Lease{}, nil
}

// TestDecompressTakesIdleCores: a whole-column decode sizes its workers
// as a scan does and counts as a running scan while it decodes. On two
// cores a lone decode fans out onto a helper; one started while a scan
// is inside a Visit decodes every block on its caller; and a scan
// started while a decode is inside a fetch starts no helper.
func TestDecompressTakesIdleCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ctx := context.Background()
	vals := make([]int64, 8*64)
	var fetch func(i int)
	col := lazify(t, vals, 64, func(orig *Column) BlockSource {
		return &hookSource{orig: orig, fetch: func(i int) { fetch(i) }}
	})
	dst := make([]int64, len(vals))

	// Lone: a fetch waits until a second goroutine has fetched, which
	// only a helper can.
	var mu sync.Mutex
	fetchers := map[string]bool{}
	second := make(chan struct{})
	fetch = func(int) {
		mu.Lock()
		if id := goid(); !fetchers[id] {
			if fetchers[id] = true; len(fetchers) == 2 {
				close(second)
			}
		}
		mu.Unlock()
		select {
		case <-second:
		case <-time.After(10 * time.Second):
		}
	}
	if err := col.DecompressInto(dst); err != nil || len(fetchers) != 2 {
		t.Fatalf("lone decode on two idle cores: %d goroutines fetched, %v; want 2", len(fetchers), err)
	}

	// Beside a scan held inside its Visit: every fetch on the caller.
	held, release := make(chan struct{}), make(chan struct{})
	a := &hookScan{n: 1, visit: func(int) error {
		close(held)
		<-release
		return nil
	}}
	done := make(chan error)
	go func() {
		_, err := Scan(ctx, 0, a, a)
		done <- err
	}()
	<-held
	caller, others := goid(), 0
	fetch = func(int) {
		if goid() != caller {
			others++ // only read after DecompressInto returns
		}
	}
	err := col.DecompressInto(dst)
	close(release)
	if aErr := <-done; aErr != nil {
		t.Fatalf("held scan: %v", aErr)
	}
	if err != nil || others != 0 {
		t.Fatalf("decode beside a running scan: %d fetches off the caller, %v", others, err)
	}

	// A decode inside a fetch holds a core: a scan beside it starts no
	// helper.
	inFetch, leave := make(chan struct{}), make(chan struct{})
	var once sync.Once
	fetch = func(int) {
		once.Do(func() {
			close(inFetch)
			<-leave
		})
	}
	go func() { done <- col.DecompressInto(dst) }()
	<-inFetch
	b := &hookScan{n: 8, visit: func(int) error { return nil }}
	n, err := Scan(ctx, 0, b, b)
	close(leave)
	if dErr := <-done; dErr != nil {
		t.Fatalf("held decode: %v", dErr)
	}
	if err != nil || n.Helpers != 0 {
		t.Fatalf("scan beside a running decode: %+v, %v; want 0 helpers", n, err)
	}
}
