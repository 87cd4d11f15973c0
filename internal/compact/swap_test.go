package compact

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"lwcomp/internal/storage"
	"lwcomp/internal/workload"
)

// TestSwapUnderConcurrentReads is the generation-swap contract, run
// under the race detector in CI: readers that opened the old
// generation finish on the retired inode with correct answers while
// swaps land, and every open after a swap sees the new generation.
func TestSwapUnderConcurrentReads(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dates.lwc")
	data := workload.OrderShipDates(40000, 64, 730120, 7)
	cols := map[string][]int64{"d": data}
	var wantSum int64
	for _, v := range data {
		wantSum += v
	}
	writeCheap(t, path, 4096, cols)
	cheap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// One long-lived handle opened on the first (cheap) generation: it
	// must keep answering across every swap below, from the retired
	// inode its descriptor pins.
	retired, err := storage.OpenContainerFile(path, storage.OpenOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer retired.Close()

	const (
		readers = 4
		rounds  = 8
	)
	stop := make(chan struct{})
	errs := make(chan error, readers*64)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// A fresh open each iteration: before, during or after a
				// swap, whatever generation the open lands on must answer
				// exactly.
				cf, err := storage.OpenContainerFile(path, storage.OpenOptions{CacheBytes: -1})
				if err != nil {
					errs <- err
					return
				}
				col, err := cf.Column("d")
				if err == nil {
					var sum int64
					sum, err = col.Sum()
					if err == nil && sum != wantSum {
						errs <- fmt.Errorf("sum = %d, want %d", sum, wantSum)
					}
				}
				if err != nil {
					errs <- err
				}
				cf.Close()
			}
		}()
	}

	// The writer: alternate cheap rewrites and compactions so every
	// round really swaps a new generation under the readers.
	c := New(Options{MinGainBytes: -1})
	for i := 0; i < rounds; i++ {
		res, err := c.CompactFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if res.Action != ActionRewritten {
			t.Fatalf("round %d: action %q (err %v)", i, res.Action, res.Err)
		}
		if err := storage.AtomicWriteFile(path, func(w io.Writer) error {
			_, err := w.Write(cheap)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	final, err := c.CompactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if final.Action != ActionRewritten {
		t.Fatalf("final compaction: %q", final.Action)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// The pre-swap handle still answers from the retired generation.
	col, err := retired.Column("d")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := col.Sum()
	if err != nil || sum != wantSum {
		t.Fatalf("retired-generation read: sum %d err %v, want %d", sum, err, wantSum)
	}

	// A fresh open sees the compacted generation.
	if got := fileSize(t, path); got != final.BytesAfter {
		t.Fatalf("new generation is %d bytes, compaction reported %d", got, final.BytesAfter)
	}
	equalCols(t, readBack(t, path), cols)
	if gen := c.Generation(); gen != rounds+1 {
		t.Fatalf("generation = %d, want %d", gen, rounds+1)
	}
}

// TestCompactNoFdLeak: 20 compaction cycles leave the process fd
// table where it started — every open the compactor makes (the lazy
// read, the verify pass, the temp file) is matched by a close. Every
// cycle takes the same path, so a leak of one fd a cycle exceeds the
// slack of 4.
func TestCompactNoFdLeak(t *testing.T) {
	countFds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "dates.lwc")
	writeCheap(t, path, 4096, map[string][]int64{"d": workload.OrderShipDates(20000, 64, 730120, 7)})
	cheap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	c := New(Options{MinGainBytes: -1})
	// Warm up once so pools and lazily initialized state exist.
	if _, err := c.CompactFile(path); err != nil {
		t.Fatal(err)
	}
	before := countFds()
	const cycles = 20
	for i := 0; i < cycles; i++ {
		if err := os.WriteFile(path, cheap, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := c.CompactFile(path)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if res.Action != ActionRewritten {
			t.Fatalf("cycle %d: action %q", i, res.Action)
		}
	}
	after := countFds()
	if after > before+4 {
		t.Fatalf("fd count grew from %d to %d across %d compactions", before, after, cycles)
	}
}
