package lwcomp_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lwcomp"
	"lwcomp/internal/storage"
)

// countingReaderAt wraps a bytes.Reader and records every positioned
// read — the instrument behind the PR's acceptance criterion that a
// point lookup on an opened container reads only the header, the
// block index, and the single resident block.
type countingReaderAt struct {
	data []byte

	mu     sync.Mutex
	calls  int
	total  int64
	ranges [][2]int64 // {offset, length} per ReadAt
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.mu.Lock()
	c.calls++
	c.total += int64(len(p))
	c.ranges = append(c.ranges, [2]int64{off, int64(len(p))})
	c.mu.Unlock()
	return bytes.NewReader(c.data).ReadAt(p, off)
}

func (c *countingReaderAt) reset() {
	c.mu.Lock()
	c.calls, c.total, c.ranges = 0, 0, nil
	c.mu.Unlock()
}

func (c *countingReaderAt) snapshot() (calls int, total int64, ranges [][2]int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls, c.total, append([][2]int64(nil), c.ranges...)
}

// sortedColumn returns a monotone column, so consecutive blocks carry
// disjoint [min, max] ranges and block skipping is exact.
func sortedColumn(n int) []int64 {
	src := make([]int64, n)
	for i := range src {
		src[i] = int64(3 * i)
	}
	return src
}

// buildContainer encodes src into a blocked column and serializes it
// as a v3 container.
func buildContainer(t *testing.T, src []int64, blockSize int) []byte {
	t.Helper()
	col, err := lwcomp.Encode(src, lwcomp.WithBlockSize(blockSize))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lwcomp.WriteColumns(&buf, []lwcomp.NamedColumn{{Name: "c", Col: col}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeTemp writes data to a file in the test's temp dir.
func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "col.lwc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// containerExtents opens data from disk and returns the first
// column's payload extents plus the payload region's file offset.
func containerExtents(t *testing.T, data []byte) ([]lwcomp.BlockExtent, int64) {
	t.Helper()
	cf, err := lwcomp.OpenContainer(writeTemp(t, data))
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	extents := cf.Extents(0)
	if extents == nil {
		t.Fatal("no extents on a v3 container")
	}
	// Payload region offset: prefix (14 bytes) + index length.
	payloadStart := int64(14) + int64(binary.LittleEndian.Uint64(data[6:14]))
	return extents, payloadStart
}

// TestOpenReaderLazyPointLookup is the acceptance criterion: opening
// reads only the header + index, and one point lookup reads exactly
// the single block covering the row.
func TestOpenReaderLazyPointLookup(t *testing.T) {
	src := sortedColumn(1 << 16)
	data := buildContainer(t, src, 4096)
	extents, payloadStart := containerExtents(t, data)
	if len(extents) != 16 {
		t.Fatalf("expected 16 blocks, got %d", len(extents))
	}

	ra := &countingReaderAt{data: data}
	col, err := lwcomp.OpenReader(ra, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	// Open must not touch the payload region.
	calls, total, ranges := ra.snapshot()
	for _, r := range ranges {
		if r[0]+r[1] > payloadStart {
			t.Fatalf("open read [%d, %d) past the index (payload starts at %d)", r[0], r[0]+r[1], payloadStart)
		}
	}
	if total > payloadStart+64 {
		t.Fatalf("open read %d bytes; header+index is only %d", total, payloadStart)
	}
	if calls == 0 {
		t.Fatal("open issued no reads")
	}

	// One lookup in the middle: exactly one read, covering exactly
	// the payload extent of the block that holds the row.
	const row = 9*4096 + 17
	blockIdx := row / 4096
	ra.reset()
	v, err := col.PointLookup(row)
	if err != nil {
		t.Fatal(err)
	}
	if v != src[row] {
		t.Fatalf("PointLookup(%d) = %d, want %d", row, v, src[row])
	}
	calls, total, ranges = ra.snapshot()
	if calls != 1 {
		t.Fatalf("point lookup issued %d reads, want 1: %v", calls, ranges)
	}
	want := extents[blockIdx]
	got := ranges[0]
	if got[0] != payloadStart+want.Offset || got[1] != want.Bytes {
		t.Fatalf("point lookup read [%d, %d), want block %d's extent [%d, %d)",
			got[0], got[0]+got[1], blockIdx, payloadStart+want.Offset, payloadStart+want.Offset+want.Bytes)
	}
	if total >= int64(len(data))/4 {
		t.Fatalf("point lookup read %d of %d container bytes", total, len(data))
	}
}

// TestOpenReaderRangeScanReadsOnlyStraddlingBlocks checks that
// SelectRange and CountRange on a lazily opened column fetch only the
// blocks their [min, max] stats cannot classify, and that Min/Max
// answer from the index without any read at all.
func TestOpenReaderRangeScanReadsOnlyStraddlingBlocks(t *testing.T) {
	src := sortedColumn(1 << 15)
	data := buildContainer(t, src, 4096)
	_, payloadStart := containerExtents(t, data)

	ra := &countingReaderAt{data: data}
	// Disable the cache so every fetch is visible to the counter.
	col, err := lwcomp.OpenReader(ra, int64(len(data)), lwcomp.WithBlockCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	ra.reset()

	// [min of block 2, max of block 2]: blocks 0-1 miss, block 2 is
	// entirely inside (whole-run emit, no read), blocks 3+ miss.
	lo, hi := src[2*4096], src[3*4096-1]
	rows, err := col.SelectRange(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4096 || rows[0] != 2*4096 {
		t.Fatalf("SelectRange returned %d rows starting at %v", len(rows), rows[:1])
	}
	if calls, _, ranges := ra.snapshot(); calls != 0 {
		t.Fatalf("whole-block range issued %d reads: %v", calls, ranges)
	}

	// A range straddling the block 4 / block 5 boundary: exactly two
	// block fetches.
	lo, hi = src[5*4096]-30, src[5*4096]+30
	n, err := col.CountRange(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if n != 21 {
		t.Fatalf("CountRange = %d, want 21", n)
	}
	calls, _, ranges := ra.snapshot()
	if calls != 2 {
		t.Fatalf("straddling range issued %d reads, want 2: %v", calls, ranges)
	}
	for _, r := range ranges {
		if r[0] < payloadStart {
			t.Fatalf("range scan read the index region at %d", r[0])
		}
	}

	// Min/Max come from the block index: zero reads.
	ra.reset()
	if _, err := col.Min(); err != nil {
		t.Fatal(err)
	}
	if _, err := col.Max(); err != nil {
		t.Fatal(err)
	}
	if calls, _, _ := ra.snapshot(); calls != 0 {
		t.Fatalf("Min/Max issued %d reads, want 0", calls)
	}
}

// TestOpenFileTruncated cuts a container at every structurally
// interesting point and expects open (not first touch) to fail —
// the index invariant makes truncation detectable up front.
func TestOpenFileTruncated(t *testing.T) {
	data := buildContainer(t, sortedColumn(1<<13), 2048)
	indexLen := int64(binary.LittleEndian.Uint64(data[6:14]))
	payloadStart := 14 + indexLen
	cuts := map[string]int64{
		"mid-magic":        2,
		"mid-prefix":       9,
		"mid-index":        14 + indexLen/2,
		"index-only":       payloadStart,
		"mid-payload":      payloadStart + (int64(len(data))-payloadStart)/2,
		"one-byte-missing": int64(len(data)) - 1,
	}
	for name, cut := range cuts {
		t.Run(name, func(t *testing.T) {
			if _, err := lwcomp.OpenFile(writeTemp(t, data[:cut])); err == nil {
				t.Fatalf("opened a container truncated to %d of %d bytes", cut, len(data))
			}
		})
	}
	// Sanity: the untruncated file opens.
	col, err := lwcomp.OpenFile(writeTemp(t, data))
	if err != nil {
		t.Fatal(err)
	}
	col.Close()
}

// TestOpenReaderCorruptBlockDetectedLazily flips one payload byte:
// open succeeds, queries that avoid the block succeed, and the first
// touch of the corrupt block reports ErrChecksum.
func TestOpenReaderCorruptBlockDetectedLazily(t *testing.T) {
	src := sortedColumn(1 << 14)
	data := buildContainer(t, src, 4096)
	extents, payloadStart := containerExtents(t, data)

	// Corrupt the middle of the last block's payload.
	last := extents[len(extents)-1]
	data[payloadStart+last.Offset+last.Bytes/2] ^= 0xFF

	col, err := lwcomp.OpenReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("open should not touch payloads, got %v", err)
	}
	defer col.Close()

	// Blocks before the corrupt one stay readable.
	if v, err := col.PointLookup(0); err != nil || v != src[0] {
		t.Fatalf("PointLookup(0) = %d, %v", v, err)
	}
	// First touch of the corrupt block reports the checksum.
	if _, err := col.PointLookup(int64(len(src) - 1)); !errors.Is(err, lwcomp.ErrChecksum) {
		t.Fatalf("corrupt block returned %v, want ErrChecksum", err)
	}
	// A whole-column aggregate hits it too.
	if _, err := col.Sum(); !errors.Is(err, lwcomp.ErrChecksum) {
		t.Fatalf("Sum over corrupt block returned %v, want ErrChecksum", err)
	}
	// And the healthy blocks keep working afterwards.
	if v, err := col.PointLookup(4096); err != nil || v != src[4096] {
		t.Fatalf("PointLookup(4096) after failure = %d, %v", v, err)
	}
}

// legacyFixture returns one of the checked-in v1/v2 containers; their
// provenance is pinned by cmd/lwc/upgrade_test.go.
func legacyFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "legacy", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkLegacyRejected opens a legacy fixture through every public open
// path: each turns it away with a permanent error naming the upgrade.
func checkLegacyRejected(t *testing.T, name string) {
	data := legacyFixture(t, name)
	path := writeTemp(t, data)
	errs := map[string]error{}
	_, errs["OpenFile"] = lwcomp.OpenFile(path)
	_, errs["OpenReader"] = lwcomp.OpenReader(bytes.NewReader(data), int64(len(data)))
	_, errs["OpenContainer"] = lwcomp.OpenContainer(path)
	_, errs["OpenTable"] = lwcomp.OpenTable(path)
	_, errs["ReadColumns"] = lwcomp.ReadColumns(bytes.NewReader(data))
	rep, err := storage.VerifyFile(path)
	if err != nil || rep.OK() {
		t.Fatalf("verify: %+v, %v", rep, err)
	}
	errs["VerifyFile"] = rep.Issues[0].Err
	for path, err := range errs {
		if !errors.Is(err, lwcomp.ErrCorrupt) || !strings.Contains(err.Error(), "lwc upgrade") {
			t.Errorf("%s: %s: err = %v", name, path, err)
		}
	}
}

// TestOpenFileV1Container: a v1 (one form per column) container opens
// nowhere; `lwc upgrade` converts it.
func TestOpenFileV1Container(t *testing.T) { checkLegacyRejected(t, "v1.lwc") }

// TestOpenFileV2Container: neither does a v2 (blocked, whole-body CRC)
// container.
func TestOpenFileV2Container(t *testing.T) { checkLegacyRejected(t, "v2.lwc") }

// TestOpenRejectsAfterMagic: a file that is not a v3 container is
// turned away after its 4-byte magic however large it is — 64 MiB of
// zeros costs no more reading than a legacy container does.
func TestOpenRejectsAfterMagic(t *testing.T) {
	const v3PrefixLen = 14 // magic, version and index length
	for _, tc := range []struct {
		name    string
		data    []byte
		upgrade bool
	}{
		{"zeros", make([]byte, 64<<20), false},
		{"v1", legacyFixture(t, "v1.lwc"), true},
		{"v2", legacyFixture(t, "v2.lwc"), true},
	} {
		ra := &countingReaderAt{data: tc.data}
		_, err := lwcomp.OpenReader(ra, int64(len(tc.data)))
		if !errors.Is(err, lwcomp.ErrCorrupt) || strings.Contains(err.Error(), "lwc upgrade") != tc.upgrade {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
		if _, total, _ := ra.snapshot(); total > v3PrefixLen {
			t.Fatalf("%s: read %d bytes before rejecting, want at most %d", tc.name, total, v3PrefixLen)
		}
	}
}

// TestOpenFileColumnSelection: multi-column containers require
// WithColumn through OpenFile; OpenContainer hands out every handle.
func TestOpenFileColumnSelection(t *testing.T) {
	a := sortedColumn(4096)
	b := make([]int64, 4096)
	for i := range b {
		b[i] = int64(-i)
	}
	colA, err := lwcomp.Encode(a, lwcomp.WithBlockSize(1024))
	if err != nil {
		t.Fatal(err)
	}
	colB, err := lwcomp.Encode(b, lwcomp.WithBlockSize(1024))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = lwcomp.WriteColumns(&buf, []lwcomp.NamedColumn{{Name: "a", Col: colA}, {Name: "b", Col: colB}})
	if err != nil {
		t.Fatal(err)
	}
	path := writeTemp(t, buf.Bytes())

	if _, err := lwcomp.OpenFile(path); err == nil {
		t.Fatal("OpenFile accepted a two-column container without WithColumn")
	}
	col, err := lwcomp.OpenFile(path, lwcomp.WithColumn("b"))
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	if v, err := col.PointLookup(100); err != nil || v != -100 {
		t.Fatalf("column b lookup = %d, %v", v, err)
	}
	if _, err := lwcomp.OpenFile(path, lwcomp.WithColumn("nope")); err == nil {
		t.Fatal("OpenFile found a column that does not exist")
	}

	cf, err := lwcomp.OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	if got := len(cf.Columns()); got != 2 {
		t.Fatalf("OpenContainer sees %d columns, want 2", got)
	}
}

// TestOpenReaderCacheEviction exercises the LRU under a budget that
// holds roughly one block: every pass over the column keeps reading,
// while the default budget serves the second pass entirely from
// cache.
func TestOpenReaderCacheEviction(t *testing.T) {
	src := sortedColumn(1 << 15)
	data := buildContainer(t, src, 4096)
	extents, _ := containerExtents(t, data)
	var maxExtent int64
	for _, e := range extents {
		if e.Bytes > maxExtent {
			maxExtent = e.Bytes
		}
	}
	want := int64(0)
	for _, v := range src {
		want += v
	}

	// Tiny budget: at most one block resident, so a second full pass
	// still fetches nearly every block from the reader.
	ra := &countingReaderAt{data: data}
	col, err := lwcomp.OpenReader(ra, int64(len(data)),
		lwcomp.WithBlockCache(maxExtent+8), lwcomp.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		ra.reset()
		sum, err := col.Sum()
		if err != nil {
			t.Fatal(err)
		}
		if sum != want {
			t.Fatalf("pass %d sum = %d, want %d", pass, sum, want)
		}
		if calls, _, _ := ra.snapshot(); calls < len(extents)-1 {
			t.Fatalf("pass %d with a one-block cache issued only %d reads for %d blocks",
				pass, calls, len(extents))
		}
	}
	col.Close()

	// Default budget: the second pass is read-free.
	ra = &countingReaderAt{data: data}
	col, err = lwcomp.OpenReader(ra, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	if _, err := col.Sum(); err != nil {
		t.Fatal(err)
	}
	ra.reset()
	sum, err := col.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if sum != want {
		t.Fatalf("cached sum = %d, want %d", sum, want)
	}
	if calls, _, ranges := ra.snapshot(); calls != 0 {
		t.Fatalf("warm pass issued %d reads: %v", calls, ranges)
	}
}

// TestRewriteLazyColumn writes a lazily opened column back out —
// blocks stream through the source — and the rewrite round-trips.
func TestRewriteLazyColumn(t *testing.T) {
	src := sortedColumn(1 << 14)
	data := buildContainer(t, src, 4096)
	col, err := lwcomp.OpenFile(writeTemp(t, data))
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	var buf bytes.Buffer
	if err := lwcomp.WriteColumns(&buf, []lwcomp.NamedColumn{{Name: "rw", Col: col}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		// Same blocks, same forms, same order — the rewrite is
		// byte-identical apart from the column name, so just verify
		// the content round-trips.
		cols, err := lwcomp.ReadColumns(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		back, err := cols[0].Col.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		if !equal(back, src) {
			t.Fatal("rewritten container does not round-trip")
		}
	}
}

// eofReaderAt returns (n, io.EOF) on reads ending exactly at EOF —
// explicitly permitted by the io.ReaderAt contract. The last block of
// a container always ends there, so the open path must accept it.
type eofReaderAt struct {
	data []byte
}

func (r *eofReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(r.data)) {
		return 0, io.EOF
	}
	n := copy(p, r.data[off:])
	if off+int64(n) == int64(len(r.data)) {
		return n, io.EOF
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// TestOpenReaderEOFAtExactEnd pins the io.ReaderAt contract corner:
// a conforming reader may return io.EOF alongside a full read, and
// the final block's payload always ends at end-of-file.
func TestOpenReaderEOFAtExactEnd(t *testing.T) {
	src := sortedColumn(1 << 14)
	data := buildContainer(t, src, 4096)
	col, err := lwcomp.OpenReader(&eofReaderAt{data: data}, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	last := int64(len(src) - 1)
	if v, err := col.PointLookup(last); err != nil || v != src[last] {
		t.Fatalf("PointLookup(last) = %d, %v", v, err)
	}
	sum, err := col.Sum()
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, v := range src {
		want += v
	}
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}
