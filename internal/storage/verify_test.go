package storage

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"lwcomp/internal/blocked"
	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
)

// writeV3File writes one encoded column to a v3 container on disk.
func writeV3File(t *testing.T, vals []int64, blockSize int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "col.lwc")
	if err := os.WriteFile(path, buildV3(t, vals, blockSize), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// payloadOffset returns the absolute file offset of column ci, block
// bi's payload: prefix + index + relative extent.
func payloadOffset(t *testing.T, path string, ci, bi int) int64 {
	t.Helper()
	cf, err := OpenContainerFile(path, OpenOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	exts := cf.Extents(ci)
	if exts == nil || bi >= len(exts) {
		t.Fatalf("no extent for column %d block %d", ci, bi)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	indexLen := binary.LittleEndian.Uint64(data[6:14])
	return int64(v3PrefixLen) + int64(indexLen) + exts[bi].Offset
}

// flipByteAt XORs one byte of the file in place.
func flipByteAt(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func verifyVals(n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64((i * 37) % 1000)
	}
	return vals
}

func TestVerifyCleanContainer(t *testing.T) {
	path := writeV3File(t, verifyVals(1024), 128)
	rep, err := VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean container failed verification: %v", rep.Issues)
	}
	if rep.Columns != 1 || rep.Blocks != 8 {
		t.Fatalf("walked %d columns, %d blocks; want 1 and 8", rep.Columns, rep.Blocks)
	}
}

func TestFaultVerifyFlagsCorruptPayload(t *testing.T) {
	path := writeV3File(t, verifyVals(1024), 128)
	flipByteAt(t, path, payloadOffset(t, path, 0, 3))
	rep, err := VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("verification passed a container with a corrupted payload")
	}
	found := false
	for _, issue := range rep.Issues {
		if issue.Block == 3 && errors.Is(issue.Err, ErrChecksum) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no checksum issue on block 3: %v", rep.Issues)
	}
	// The walk continues past the bad block: all blocks visited.
	if rep.Blocks != 8 {
		t.Fatalf("walk stopped early: %d blocks", rep.Blocks)
	}
}

func TestFaultVerifyFlagsLyingStats(t *testing.T) {
	// A container whose index stats disagree with the data it decodes
	// to — self-consistent CRCs, so only the re-derivation catches it.
	col, err := blocked.Encode(verifyVals(512), blocked.EncodeOptions{BlockSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	col.Blocks[1].Min -= 5 // the lie: claims values below what exists
	path := filepath.Join(t.TempDir(), "lying.lwc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteContainerV3(f, []BlockedColumn{{Name: "c", Col: col}}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rep, err := VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, issue := range rep.Issues {
		if issue.Block == 1 && errors.Is(issue.Err, ErrCorrupt) {
			found = true
		}
	}
	if !found {
		t.Fatalf("stats lie not flagged: %v", rep.Issues)
	}
}

func TestVerifyUnopenableFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.lwc")
	if err := os.WriteFile(path, []byte("not a container at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Issues) != 1 || rep.Issues[0].Block != -1 {
		t.Fatalf("want one container-level issue, got %v", rep.Issues)
	}
	// A missing file is environmental, not an integrity finding.
	if _, err := VerifyFile(filepath.Join(t.TempDir(), "missing.lwc")); err == nil {
		t.Fatal("missing file did not error")
	}
}

func TestFaultVerifyFlagsLyingFrame(t *testing.T) {
	// A delta block whose frame claims a segment maximum below what the
	// segment holds — its CRC computed over the lie, so only the
	// re-derivation of the frame from the decoded values catches it.
	vals := make([]int64, 4096)
	x := int64(1 << 30)
	for i := range vals {
		vals[i] = x
		x += int64(i*7919%25 - 12)
	}
	col, err := blocked.Encode(vals, blocked.EncodeOptions{BlockSize: 2048, Scheme: scheme.DeltaNS()})
	if err != nil {
		t.Fatal(err)
	}
	f := col.Blocks[1].Form
	frame, err := core.Decompress(f.Children["frame"])
	if err != nil {
		t.Fatal(err)
	}
	frame[3*2+2] -= 7 // segment 2's maximum
	f.Children["frame"], err = scheme.NS{}.Compress(frame)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lying.lwc")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteContainerV3(out, []BlockedColumn{{Name: "c", Col: col}}); err != nil {
		t.Fatal(err)
	}
	out.Close()
	rep, err := VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Block != 1 || !errors.Is(rep.Issues[0].Err, core.ErrCorruptForm) {
		t.Fatalf("frame lie on block 1 not flagged alone: %v", rep.Issues)
	}
}
