package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"lwcomp/internal/blocked"
	"lwcomp/internal/workload"
)

// encodeBlocked builds a deterministic multi-block column.
func encodeBlockedV3(t *testing.T, n, blockSize int) (*blocked.Column, []int64) {
	t.Helper()
	src := make([]int64, n)
	for i := range src {
		src[i] = int64(i % 7000)
	}
	col, err := blocked.Encode(src, blocked.EncodeOptions{BlockSize: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	return col, src
}

func TestContainerV3RoundTrip(t *testing.T) {
	colA, srcA := encodeBlockedV3(t, 10000, 2048)
	colB, srcB := encodeBlockedV3(t, 3000, 1024)
	var buf bytes.Buffer
	err := WriteContainerV3(&buf, []BlockedColumn{{Name: "a", Col: colA}, {Name: "b", Col: colB}})
	if err != nil {
		t.Fatal(err)
	}

	// Resident read.
	cols, err := LoadContainer(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0].Name != "a" || cols[1].Name != "b" {
		t.Fatalf("columns: %+v", cols)
	}
	for i, want := range [][]int64{srcA, srcB} {
		got, err := cols[i].Col.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("column %d length %d, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("column %d element %d: %d != %d", i, j, got[j], want[j])
			}
		}
	}
	for _, c := range cols {
		for i := range c.Col.Blocks {
			if c.Col.Blocks[i].Form == nil {
				t.Fatalf("column %q block %d not resident", c.Name, i)
			}
		}
		if c.Col.Source != nil {
			t.Fatalf("column %q still has a source", c.Name)
		}
	}
}

// TestContainerV3StatsFlags round-trips every block flag — 0 (no
// stats), 1 (stats), 2 (tombstone), 3 (stats and certificate) — through
// the resident and the lazy reader, drops a certificate that has no stats
// to sit beside, and rejects flag 4 at open even under a valid index
// checksum.
func TestContainerV3StatsFlags(t *testing.T) {
	payload := func(vals ...int64) []byte {
		f, err := blocked.Encode(vals, blocked.EncodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		enc, err := EncodeForm(f.Blocks[0].Form)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	want := []blocked.Block{
		{Count: 2},
		{Count: 2, HasStats: true, Min: -3, Max: 9},
		{Count: 2, Tombstone: true, TombstoneReason: "lost"},
		{Count: 2, HasStats: true, Min: 4, Max: 5, Certificate: 0xC0FFEE},
		{Count: 2},
	}
	raw := RawColumn{Name: "c", BlockSize: 2, Blocks: []RawBlock{
		{Count: 2, Payload: payload(1, 2)},
		{Count: 2, HasStats: true, Min: -3, Max: 9, Payload: payload(-3, 9)},
		{Count: 2, Tombstone: true, TombstoneReason: "lost"},
		{Count: 2, HasStats: true, Min: 4, Max: 5, Certificate: 0xC0FFEE, Payload: payload(4, 5)},
		{Count: 2, Certificate: 0xC0FFEE, Payload: payload(6, 7)},
	}}
	var buf bytes.Buffer
	if err := WriteContainerV3Raw(&buf, []RawColumn{raw}); err != nil {
		t.Fatal(err)
	}
	eager, err := LoadContainer(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cf, err := OpenContainer(bytes.NewReader(buf.Bytes()), int64(buf.Len()), OpenOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	for _, col := range []*blocked.Column{eager[0].Col, cf.Columns()[0].Col} {
		for i, w := range want {
			b := col.Blocks[i]
			if b.Count != w.Count || b.HasStats != w.HasStats || b.Min != w.Min || b.Max != w.Max ||
				b.Certificate != w.Certificate || b.Tombstone != w.Tombstone || b.TombstoneReason != w.TombstoneReason {
				t.Fatalf("block %d read back as %+v, want %+v", i, b, w)
			}
		}
	}

	// Rewrite block 3's flag byte to 4 and re-seal the index.
	data := append([]byte(nil), buf.Bytes()...)
	indexLen := int(binary.LittleEndian.Uint64(data[6:14]))
	index := data[v3PrefixLen : v3PrefixLen+indexLen]
	certBytes := binary.LittleEndian.AppendUint32(nil, 0xC0FFEE)
	at := bytes.Index(index, certBytes) - 3 // the flag, then min and max as one-byte varints
	if at < 0 || index[at] != 3 {
		t.Fatalf("no flag-3 block found in the index")
	}
	index[at] = 4
	binary.LittleEndian.PutUint32(index[indexLen-4:], crc32.Checksum(index[:indexLen-4], castagnoli))
	if _, err := LoadContainer(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bad stats flag 4") {
		t.Fatalf("flag 4: %v", err)
	}
}

func TestOpenContainerLazyAndCacheCounters(t *testing.T) {
	col, src := encodeBlockedV3(t, 1<<14, 4096)
	var buf bytes.Buffer
	if err := WriteContainerV3(&buf, []BlockedColumn{{Name: "c", Col: col}}); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenContainer(bytes.NewReader(buf.Bytes()), int64(buf.Len()),
		OpenOptions{CacheBytes: DefaultBlockCacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	lazy := cf.Columns()[0].Col
	if lazy.Source == nil {
		t.Fatal("lazy column has no source")
	}
	for i := range lazy.Blocks {
		if lazy.Blocks[i].Form != nil {
			t.Fatalf("block %d resident after open", i)
		}
		if !lazy.Blocks[i].HasStats {
			t.Fatalf("block %d lost its stats", i)
		}
	}
	if err := lazy.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(cf.Extents(0)); got != len(lazy.Blocks) {
		t.Fatalf("%d extents for %d blocks", got, len(lazy.Blocks))
	}

	// Cold pass misses every block, warm pass hits every block.
	out := make([]int64, lazy.N)
	if err := lazy.DecompressInto(out); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if out[i] != src[i] {
			t.Fatalf("element %d: %d != %d", i, out[i], src[i])
		}
	}
	cold := cf.CacheStats()
	if cold.Misses == 0 || cold.BytesUsed == 0 || cold.Decodes != int64(len(lazy.Blocks)) {
		t.Fatalf("cold stats over %d blocks: %+v", len(lazy.Blocks), cold)
	}
	if err := lazy.DecompressInto(out); err != nil {
		t.Fatal(err)
	}
	warm := cf.CacheStats()
	if warm.Hits < int64(len(lazy.Blocks)) {
		t.Fatalf("warm pass hit %d of %d blocks", warm.Hits, len(lazy.Blocks))
	}
	if warm.Misses != cold.Misses || warm.Decodes != cold.Decodes {
		t.Fatalf("warm pass missed or decoded: %+v -> %+v", cold, warm)
	}
}

func TestOpenContainerTinyCacheEvicts(t *testing.T) {
	// Incompressible values make every block's payload comparable in
	// size, so a budget of roughly one payload forces the LRU to
	// evict on every fetch of a round-robin scan.
	src := make([]int64, 1<<13)
	state := uint64(42)
	for i := range src {
		state = state*6364136223846793005 + 1442695040888963407
		src[i] = int64(state >> 34)
	}
	col, err := blocked.Encode(src, blocked.EncodeOptions{BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteContainerV3(&buf, []BlockedColumn{{Name: "c", Col: col}}); err != nil {
		t.Fatal(err)
	}
	var maxExtent int64
	cfProbe, err := OpenContainer(bytes.NewReader(buf.Bytes()), int64(buf.Len()), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range cfProbe.Extents(0) {
		if e.Bytes > maxExtent {
			maxExtent = e.Bytes
		}
	}
	cfProbe.Close()

	cf, err := OpenContainer(bytes.NewReader(buf.Bytes()), int64(buf.Len()),
		OpenOptions{CacheBytes: maxExtent + maxExtent/2})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	lazy := cf.Columns()[0].Col
	lazy.Parallelism = 1
	want, err := col.Sum()
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		got, err := lazy.Sum()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("pass %d sum = %d, want %d", pass, got, want)
		}
	}
	st := cf.CacheStats()
	if st.BytesUsed > st.BytesBudget {
		t.Fatalf("cache over budget: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("three passes over a one-block cache evicted nothing: %+v", st)
	}
}

// TestOpenContainerFileCloseForwards opens a container from disk,
// reads it back whole, and closes it through a column handle: that
// forwards to the container, and closing again is harmless.
func TestOpenContainerFileCloseForwards(t *testing.T) {
	col, src := encodeBlockedV3(t, 1<<13, 2048)
	var buf bytes.Buffer
	if err := WriteContainerV3(&buf, []BlockedColumn{{Name: "c", Col: col}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.lwc")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenContainerFile(path, OpenOptions{CacheBytes: DefaultBlockCacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	got, err := cf.Columns()[0].Col.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("element %d: %d != %d", i, got[i], src[i])
		}
	}
	if err := cf.Columns()[0].Col.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBlockReaderPayloads reads every block's raw payload through
// ContainerFile.Payload: each is as long as its extent and decodes
// standalone.
func TestBlockReaderPayloads(t *testing.T) {
	col, _ := encodeBlockedV3(t, 1<<13, 2048)
	var buf bytes.Buffer
	if err := WriteContainerV3(&buf, []BlockedColumn{{Name: "c", Col: col}}); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenContainer(bytes.NewReader(buf.Bytes()), int64(buf.Len()), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	lazy := cf.Columns()[0].Col
	extents := cf.Extents(0)
	var scratch []byte
	for i := range lazy.Blocks {
		payload, err := cf.Payload(0, i, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(payload)) != extents[i].Bytes {
			t.Fatalf("block %d payload %d bytes, extent says %d", i, len(payload), extents[i].Bytes)
		}
		// The payload decodes standalone — the re-composition
		// property the lazy path depends on.
		f, consumed, err := DecodeForm(payload)
		if err != nil {
			t.Fatal(err)
		}
		if consumed != len(payload) || f.N != lazy.Blocks[i].Count {
			t.Fatalf("block %d decodes to n=%d (%d consumed)", i, f.N, consumed)
		}
		scratch = payload[:0]
	}

}

// TestConcurrentQueriesUnderCachePressure hammers a lazily opened
// container from many goroutines with a cache small enough to evict
// constantly. This pins the ownership contract the cache relies on:
// an evicted payload buffer may still be mid-decode in a concurrent
// reader, so it must never be recycled into the fetch pool (caught
// by -race, and by corrupt decodes, if violated).
func TestConcurrentQueriesUnderCachePressure(t *testing.T) {
	src := make([]int64, 1<<13)
	state := uint64(7)
	for i := range src {
		state = state*6364136223846793005 + 1442695040888963407
		src[i] = int64(state >> 40)
	}
	col, err := blocked.Encode(src, blocked.EncodeOptions{BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteContainerV3(&buf, []BlockedColumn{{Name: "c", Col: col}}); err != nil {
		t.Fatal(err)
	}
	want, err := col.Sum()
	if err != nil {
		t.Fatal(err)
	}
	// Budget ≈ two payloads: every scan evicts while others decode.
	cf, err := OpenContainer(bytes.NewReader(buf.Bytes()), int64(buf.Len()),
		OpenOptions{CacheBytes: 2 * int64(buf.Len()) / int64(col.NumBlocks())})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	lazy := cf.Columns()[0].Col

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				got, err := lazy.Sum()
				if err != nil {
					errs <- err
					return
				}
				if got != want {
					errs <- fmt.Errorf("worker %d iter %d: sum %d != %d", w, it, got, want)
					return
				}
				row := int64((w*2048 + it*131) % len(src))
				v, err := lazy.PointLookup(row)
				if err != nil {
					errs <- err
					return
				}
				if v != src[row] {
					errs <- fmt.Errorf("worker %d: lookup(%d) = %d, want %d", w, row, v, src[row])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestWriteContainerV3RejectsBrokenColumn(t *testing.T) {
	col, _ := encodeBlockedV3(t, 2048, 1024)
	col.Blocks[1].Start = 7 // break the tiling
	var buf bytes.Buffer
	if err := WriteContainerV3(&buf, []BlockedColumn{{Name: "c", Col: col}}); err == nil {
		t.Fatal("broken block index accepted")
	}
	if err := WriteContainerV3(&buf, []BlockedColumn{{Name: "", Col: nil}}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := WriteContainerV3(&buf, []BlockedColumn{{Name: "c", Col: nil}}); err == nil {
		t.Fatal("nil column accepted")
	}
}

// TestWriteContainerAllocs pins what writing a container allocates to
// little more than the container itself: each form is serialized
// straight into the one buffer the container is assembled in, sized
// once, so no per-block payload copy or growing buffer is made.
func TestWriteContainerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation may allocate")
	}
	const n, runs = 1 << 16, 5
	for _, sh := range workload.MaintainShapes(n, 1) {
		col, err := blocked.Encode(sh.Data, blocked.EncodeOptions{BlockSize: n, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		cols := []BlockedColumn{{Name: sh.Name, Col: col}}
		var out bytes.Buffer
		if err := WriteContainerV3(&out, cols); err != nil {
			t.Fatal(err)
		}
		size := out.Len()
		// The counter is the process's: the least of three readings
		// leaves out what another goroutine allocated meanwhile.
		perWrite := math.Inf(1)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				if err := WriteContainerV3(io.Discard, cols); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			perWrite = min(perWrite, float64(after.TotalAlloc-before.TotalAlloc)/runs)
		}
		t.Logf("%s: %d-byte container, %.0f bytes allocated", sh.Name, size, perWrite)
		if limit := 1.25 * float64(size); perWrite > limit {
			t.Errorf("%s: writing a %d-byte container allocates %.0f bytes, limit %.0f",
				sh.Name, size, perWrite, limit)
		}
	}
}
