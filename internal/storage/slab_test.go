package storage

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"testing"

	"lwcomp/internal/blocked"
	"lwcomp/internal/core"
)

// TestSlabClass: a class's slab holds every request it serves with
// less than an eighth to spare, and classes and lengths correspond one
// to one, so a slab goes back to the class it came from.
func TestSlabClass(t *testing.T) {
	prev := -1
	for n := 0; n < 1<<16; n++ {
		c, words := slabClass(n)
		if words < n || words-n > n/8 {
			t.Fatalf("n=%d: class %d of %d words", n, c, words)
		}
		if c < prev || c > prev+1 {
			t.Fatalf("n=%d: class %d after %d", n, c, prev)
		}
		if back, _ := slabClass(words); back != c {
			t.Fatalf("a %d-word slab files under class %d, not %d", words, back, c)
		}
		prev = c
	}
	if c, _ := slabClass(1<<62 + 1); c >= slabClasses {
		t.Fatalf("class %d of %d", c, slabClasses)
	}
}

// TestColdFetchReusesSlab: a lazily opened container whose cache holds
// two blocks, cycled over eight, evicts a block per cold fetch — and
// the fetch decodes into the slab the eviction released instead of
// allocating a new one. Once warm, a fetch allocates under an eighth of
// its payload.
func TestColdFetchReusesSlab(t *testing.T) {
	const blockRows, blocks = 1 << 14, 8
	schemes, src := slabForms(t, blockRows*blocks)
	col, err := blocked.Encode(src, blocked.EncodeOptions{BlockSize: blockRows, Scheme: schemes["ns"]})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteContainerV3(&buf, []BlockedColumn{{Name: "ns", Col: col}}); err != nil {
		t.Fatal(err)
	}
	probe, err := OpenContainer(bytes.NewReader(buf.Bytes()), int64(buf.Len()), OpenOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	payload := probe.Extents(0)[0].Bytes
	probe.Close()
	cf, err := OpenContainer(bytes.NewReader(buf.Bytes()), int64(buf.Len()), OpenOptions{CacheBytes: 2*payload + payload/2})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	lazy := cf.Columns()[0].Col
	fetch := func(i int) {
		f, l, err := lazy.LeasedForm(i)
		if err != nil {
			t.Fatal(err)
		}
		if f.N != blockRows {
			t.Fatalf("block %d: %d rows", i, f.N)
		}
		l.Release()
	}
	for i := 0; i < 2*blocks; i++ { // warm: the free list holds slabs
		fetch(i % blocks)
	}
	var per []uint64
	var ms runtime.MemStats
	for i := 0; i < 4*blocks; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		fetch(i % blocks)
		runtime.ReadMemStats(&ms)
		per = append(per, ms.TotalAlloc-before)
	}
	slices.Sort(per)
	median := per[len(per)/2]
	st := cf.CacheStats()
	t.Logf("payload %d B, median %d B per cold fetch; %+v", payload, median, st)
	if median >= uint64(payload)/8 {
		t.Errorf("a cold fetch allocates %d B (median) of a %d-byte payload; want under an eighth", median, payload)
	}
	if st.Evictions < 5*blocks || st.Reused == 0 {
		t.Errorf("cache traffic %+v: want an eviction and a reused slab per cold fetch", st)
	}
}

// TestSlabListKeepsFew: a class's free list keeps what keepSlab allows
// — two slabs a thread for large slabs, more for small ones, never more
// than slabKeepBytes a thread beyond those two — hands the rest of what
// is freed to the collector, and gives back the ones it keeps.
func TestSlabListKeepsFew(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, n := range []int{12345, 100} { // classes no other test in the package frees into
		_, words := slabClass(n)
		keep := max(2*procs, slabKeepBytes*procs/(8*words))
		for range 3 * keep {
			putSlab(&slab{words: make([]uint64, words)})
		}
		reused := 0
		for range 3 * keep {
			if _, ok := getSlab(n); ok {
				reused++
			}
		}
		if reused != keep {
			t.Fatalf("%d-word slabs: %d of %d freed came back, want %d", words, reused, 3*keep, keep)
		}
	}
}

// gatedReaderAt holds every read at or past from until n reads are
// waiting, so n callers that missed the cache read at once.
type gatedReaderAt struct {
	ra    io.ReaderAt
	from  int64
	n     int
	mu    sync.Mutex
	cond  *sync.Cond
	reads int
}

func (g *gatedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= g.from {
		g.mu.Lock()
		if g.reads++; g.reads == g.n {
			g.cond.Broadcast()
		}
		for g.reads < g.n {
			g.cond.Wait()
		}
		g.mu.Unlock()
	}
	return g.ra.ReadAt(p, off)
}

// TestRacingColdMisses: callers that miss one cold block at once each
// read and decode it. Every one gets the block's values, the cache
// keeps the first form it is offered and refuses the rest, every decode
// is counted, and once the last lease ends each refused form's slab has
// gone back to the free list exactly once — the cached one's not at all.
func TestRacingColdMisses(t *testing.T) {
	const rows, callers = 1 << 12, 4
	schemes, src := slabForms(t, rows)
	col, err := blocked.Encode(src, blocked.EncodeOptions{Scheme: schemes["ns"]})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteContainerV3(&buf, []BlockedColumn{{Name: "ns", Col: col}}); err != nil {
		t.Fatal(err)
	}
	gate := &gatedReaderAt{ra: bytes.NewReader(buf.Bytes()), from: int64(buf.Len()), n: callers}
	gate.cond = sync.NewCond(&gate.mu)
	cf, err := OpenContainer(gate, int64(buf.Len()), OpenOptions{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	gate.from = cf.payloadStart // open is done: gate the block reads only

	freed := map[*uint64]int{}
	SlabFreeHook = func(words []uint64) { freed[&words[0]]++ }
	defer func() { SlabFreeHook = nil }()

	lazy := cf.Columns()[0].Col
	leases := make([]blocked.Lease, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var f *core.Form
			if f, leases[c], errs[c] = lazy.LeasedForm(0); errs[c] != nil {
				return
			}
			got, err := core.Decompress(f)
			if err == nil && !slices.Equal(got, src) {
				err = fmt.Errorf("caller %d: wrong values", c)
			}
			errs[c] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := cf.CacheStats()
	if n := gate.reads; n != callers || st.Misses != callers || st.Decodes != callers {
		t.Fatalf("%d callers: %d reads, cache %+v; want a miss, a read and a decode each", callers, n, st)
	}
	if len(cf.cache.m) != 1 {
		t.Fatalf("the cache holds %d entries, want 1", len(cf.cache.m))
	}
	if len(freed) != 0 {
		t.Fatalf("%d slabs freed while every form is leased", len(freed))
	}
	for _, l := range leases {
		l.Release()
	}
	cached := &cf.cache.ll.Front().Value.(*cacheEntry).slab.words[0]
	if len(freed) != callers-1 || freed[cached] != 0 {
		t.Fatalf("freed %v (cached slab %p); want the %d refused slabs", freed, cached, callers-1)
	}
	for p, n := range freed {
		if n != 1 {
			t.Fatalf("slab %p freed %d times", p, n)
		}
	}
}
