package blocked

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"lwcomp/internal/core"
	_ "lwcomp/internal/scheme" // register schemes
	"lwcomp/internal/workload"
)

func equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEncodePartitioning(t *testing.T) {
	data := workload.RandomWalk(10_000, 8, 1<<20, 1)
	col, err := Encode(data, EncodeOptions{BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if col.NumBlocks() != 3 {
		t.Fatalf("blocks = %d, want 3", col.NumBlocks())
	}
	wantCounts := []int{4096, 4096, 10_000 - 2*4096}
	for i, b := range col.Blocks {
		if b.Count != wantCounts[i] {
			t.Fatalf("block %d count = %d, want %d", i, b.Count, wantCounts[i])
		}
		if !b.HasStats {
			t.Fatalf("block %d missing stats", i)
		}
	}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
	back, err := col.Decompress()
	if err != nil || !equal(back, data) {
		t.Fatalf("roundtrip: %v", err)
	}
}

// failOn compresses as its scheme does, except that it fails on a
// block holding bad and panics on one holding boom.
type failOn struct {
	core.Scheme
	bad, boom int64
}

var errBad = errors.New("bad block")

func (f failOn) Compress(src []int64) (*core.Form, error) {
	switch {
	case slices.Contains(src, f.bad):
		return nil, errBad
	case slices.Contains(src, f.boom):
		panic("boom")
	}
	return f.Scheme.Compress(src)
}

// TestEncodeBlockFails: a middle block that fails, or panics, fails the
// whole encode with that block's error and no column, serially and in
// parallel.
func TestEncodeBlockFails(t *testing.T) {
	ns, _ := core.Lookup("ns")
	data := make([]int64, 1000)
	for i := range data {
		data[i] = int64(i % 50)
	}
	data[530], data[770] = -1, -2
	for _, workers := range []int{1, 4} {
		for _, c := range []struct {
			sch  failOn
			want string
		}{
			{failOn{ns, -1, 99}, "block at row 500: bad block"},
			{failOn{ns, 99, -2}, "panic in parallel worker on index 7: boom"},
		} {
			col, err := Encode(data, EncodeOptions{BlockSize: 100, Scheme: c.sch, Parallelism: workers})
			if col != nil || err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("workers=%d: Encode = %v, %v; want no column and %q", workers, col, err, c.want)
			}
			if c.sch.bad == -1 && !errors.Is(err, errBad) {
				t.Fatalf("workers=%d: %v does not wrap the block's error", workers, err)
			}
		}
	}
}

func TestBlockStatsMatchData(t *testing.T) {
	data := workload.RandomWalk(8192, 16, 0, 2)
	col, err := Encode(data, EncodeOptions{BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range col.Blocks {
		lo, hi := data[b.Start], data[b.Start]
		for _, v := range data[b.Start : b.Start+int64(b.Count)] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if b.Min != lo || b.Max != hi {
			t.Fatalf("block %d stats [%d,%d], data says [%d,%d]", i, b.Min, b.Max, lo, hi)
		}
	}
}

func TestPointLookupAcrossBoundaries(t *testing.T) {
	data := workload.Sorted(5000, 1<<30, 3)
	col, err := Encode(data, EncodeOptions{BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []int64{0, 511, 512, 1023, 1024, 4999} {
		got, err := col.PointLookup(row)
		if err != nil || got != data[row] {
			t.Fatalf("PointLookup(%d) = %d, want %d (%v)", row, got, data[row], err)
		}
	}
	if _, err := col.PointLookup(-1); err == nil {
		t.Fatal("negative row accepted")
	}
	if _, err := col.PointLookup(5000); err == nil {
		t.Fatal("row == N accepted")
	}
}

func TestFromFormDelegates(t *testing.T) {
	data := workload.Runs(4000, 32, 1<<10, 4)
	s, ok := core.Lookup("rle")
	if !ok {
		t.Fatal("rle not registered")
	}
	f, err := s.Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, withStats := range []bool{false, true} {
		col, err := FromForm(f, withStats)
		if err != nil {
			t.Fatal(err)
		}
		if col.NumBlocks() != 1 || col.Blocks[0].HasStats != withStats {
			t.Fatalf("withStats=%v: blocks=%d hasStats=%v", withStats, col.NumBlocks(), col.Blocks[0].HasStats)
		}
		back, err := col.Decompress()
		if err != nil || !equal(back, data) {
			t.Fatalf("withStats=%v roundtrip: %v", withStats, err)
		}
	}
	if _, err := FromForm(nil, false); err == nil {
		t.Fatal("FromForm(nil) accepted")
	}
}

func TestValidateRejectsBrokenIndex(t *testing.T) {
	data := workload.RandomWalk(2048, 8, 1<<20, 5)
	col, err := Encode(data, EncodeOptions{BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	broken := &Column{N: col.N, BlockSize: col.BlockSize}
	broken.Blocks = append([]Block{}, col.Blocks...)
	broken.Blocks[1].Start = 999
	if err := broken.Validate(); !errors.Is(err, core.ErrCorruptForm) {
		t.Fatalf("gapped index: err = %v", err)
	}
	broken.Blocks[1].Start = 1024
	broken.N = 4096
	if err := broken.Validate(); !errors.Is(err, core.ErrCorruptForm) {
		t.Fatalf("short cover: err = %v", err)
	}
	broken.N = 2048
	broken.Blocks[0].Min, broken.Blocks[0].Max = 5, -5
	if err := broken.Validate(); !errors.Is(err, core.ErrCorruptForm) {
		t.Fatalf("inverted stats: err = %v", err)
	}
}

func TestBuilderPartialBlocks(t *testing.T) {
	b := NewBuilder(EncodeOptions{BlockSize: 100})
	var all []int64
	for i := 0; i < 7; i++ {
		batch := workload.UniformBits(33, 12, int64(i))
		all = append(all, batch...)
		if err := b.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	col, err := b.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if col.N != len(all) {
		t.Fatalf("N = %d, want %d", col.N, len(all))
	}
	if col.NumBlocks() != 3 { // 231 values / 100 per block
		t.Fatalf("blocks = %d, want 3", col.NumBlocks())
	}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
	back, err := col.Decompress()
	if err != nil || !equal(back, all) {
		t.Fatalf("roundtrip: %v", err)
	}
}

func TestBuilderEmptyFlush(t *testing.T) {
	b := NewBuilder(EncodeOptions{})
	col, err := b.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if col.N != 0 {
		t.Fatalf("N = %d", col.N)
	}
	if s, err := col.Sum(); err != nil || s != 0 {
		t.Fatalf("Sum = %d (%v)", s, err)
	}
}

func TestDescribeSingleBlockMatchesForm(t *testing.T) {
	data := workload.UniformBits(1000, 8, 6)
	col, err := Encode(data, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if col.Describe() != col.Blocks[0].Form.Describe() {
		t.Fatalf("single-block Describe = %q, form = %q",
			col.Describe(), col.Blocks[0].Form.Describe())
	}
}
