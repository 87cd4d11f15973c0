package storage

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"lwcomp/internal/blocked"
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
	if raceEnabled {
		t.Skip("sync.Pool reuse is defeated under the race detector")
	}
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
