package scrub

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"lwcomp/internal/blocked"
	"lwcomp/internal/core"
	"lwcomp/internal/faults"
	"lwcomp/internal/scheme"
	"lwcomp/internal/storage"
)

// repairVals is a mildly irregular sequence so every block carries
// real stats and a few distinct compression forms.
func repairVals(n int) []int64 {
	vals := make([]int64, n)
	v := int64(1000)
	for i := range vals {
		v += int64(i%7) - 3
		vals[i] = v
	}
	return vals
}

// encodeContainer encodes vals into one column ("c", block size bs)
// and returns the column plus the container's exact bytes.
func encodeContainer(t *testing.T, vals []int64, bs int) (*blocked.Column, []byte) {
	t.Helper()
	col, err := blocked.Encode(vals, blocked.EncodeOptions{BlockSize: bs})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := storage.WriteContainerV3(&buf, []storage.BlockedColumn{{Name: "c", Col: col}}); err != nil {
		t.Fatal(err)
	}
	return col, buf.Bytes()
}

// payloadStart returns the absolute file offset of block bi's payload
// in column ci: prefix (magic 4 + version 2 + indexLen 8) + indexLen +
// the block's extent offset.
func payloadStart(t *testing.T, path string, ci, bi int) (int64, int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := storage.OpenContainerFile(path, storage.OpenOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	ext := cf.Extents(ci)[bi]
	return 14 + int64(binary.LittleEndian.Uint64(data[6:14])) + ext.Offset, int(ext.Bytes)
}

func writeBytes(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func fileSum(t *testing.T, path string) [32]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(data)
}

func TestRepairCleanIsNoOp(t *testing.T) {
	_, good := encodeContainer(t, repairVals(512), 128)
	path := filepath.Join(t.TempDir(), "c.lwc")
	writeBytes(t, path, good)
	res, err := RepairFile(path, RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ActionClean || res.Preserved != 4 || res.Blocks != 4 {
		t.Fatalf("clean repair: %+v", res)
	}
	if fileSum(t, path) != sha256.Sum256(good) {
		t.Fatal("no-op repair rewrote the file")
	}
}

func TestRepairStatsLieRestoresExactBytes(t *testing.T) {
	vals := repairVals(512)
	col, good := encodeContainer(t, vals, 128)

	// A lying writer: self-consistent CRCs, wrong index stats — only
	// re-deriving [min, max] from the decompressed values catches it.
	col.Blocks[1].Min -= 5
	var lying bytes.Buffer
	if err := storage.WriteContainerV3(&lying, []storage.BlockedColumn{{Name: "c", Col: col}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.lwc")
	writeBytes(t, path, lying.Bytes())

	res, err := RepairFile(path, RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ActionRepaired || res.StatsFixed != 1 || res.Preserved != 3 ||
		res.Tombstoned != 0 || res.Reread != 0 {
		t.Fatalf("stats-lie repair: %+v", res)
	}
	// Payloads were untouched and the stats re-derivation lands on the
	// honest values, so the healed file is byte-identical to what the
	// truthful writer produced.
	if fileSum(t, path) != sha256.Sum256(good) {
		t.Fatal("healed file differs from the pre-corruption original")
	}
	rep, err := storage.VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Tombstones) != 0 {
		t.Fatalf("healed file fails verification: %+v", rep)
	}
}

// TestRepairLyingFrameReencodes: a delta block whose frame claims a
// segment maximum below what the segment holds, its CRC computed over
// the lie (the container storage's TestFaultVerifyFlagsLyingFrame
// forges), decodes to the right values under true stats. Repair
// re-encodes it from those values, so the new generation verifies and
// reads back the same values.
func TestRepairLyingFrameReencodes(t *testing.T) {
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
	if f.Children["frame"], err = (scheme.NS{}).Compress(frame); err != nil {
		t.Fatal(err)
	}
	var lying bytes.Buffer
	if err := storage.WriteContainerV3(&lying, []storage.BlockedColumn{{Name: "c", Col: col}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.lwc")
	writeBytes(t, path, lying.Bytes())
	if rep, err := storage.VerifyFile(path); err != nil || len(rep.Issues) != 1 {
		t.Fatalf("forged frame not reported before repair: %v, %v", rep, err)
	}

	res, err := RepairFile(path, RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ActionRepaired || res.StatsFixed != 1 || res.Preserved != 1 || res.Tombstoned != 0 {
		t.Fatalf("lying-frame repair: %+v", res)
	}
	rep, err := storage.VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Tombstones) != 0 {
		t.Fatalf("repaired file fails verification: %+v", rep.Issues)
	}
	cf, err := storage.OpenContainerFile(path, storage.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	repaired := cf.Columns()[0].Col
	if repaired.Blocks[1].Certificate == 0 {
		t.Fatal("the re-encoded block carries no certificate")
	}
	got, err := repaired.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, vals) {
		t.Fatal("repair changed the values")
	}
}

func TestRepairUndecodablePayloadTombstones(t *testing.T) {
	vals := repairVals(512)
	_, good := encodeContainer(t, vals, 128)
	path := filepath.Join(t.TempDir(), "c.lwc")
	writeBytes(t, path, good)

	// Destroy block 2's scheme-name length byte: every read of the
	// payload now fails decoding deterministically, no re-read helps.
	off, _ := payloadStart(t, path, 0, 2)
	corrupt := append([]byte(nil), good...)
	corrupt[off] = 0xFF
	writeBytes(t, path, corrupt)

	res, err := RepairFile(path, RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ActionRepaired || res.Tombstoned != 1 || res.Preserved != 3 {
		t.Fatalf("tombstone repair: %+v", res)
	}

	rep, err := storage.VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("repaired file fails verification: %v", rep.Issues)
	}
	if len(rep.Tombstones) != 1 || rep.Tombstones[0].Block != 2 ||
		rep.Tombstones[0].RowStart != 256 || rep.Tombstones[0].RowCount != 128 {
		t.Fatalf("tombstone manifest: %+v", rep.Tombstones)
	}

	// Surviving rows still decode exactly; the lost range fails with
	// the tombstone sentinel.
	cf, err := storage.OpenContainerFile(path, storage.OpenOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	colr := cf.Columns()[0].Col
	out := make([]int64, 128)
	if err := colr.DecompressBlock(3, out); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != vals[384+i] {
			t.Fatalf("surviving row %d: got %d want %d", 384+i, v, vals[384+i])
		}
	}
	if err := colr.DecompressBlock(2, out); err == nil {
		t.Fatal("tombstoned block decoded")
	}

	// A second repair has nothing left to do: the tombstone is carried,
	// not re-litigated.
	res2, err := RepairFile(path, RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Action != ActionClean || res2.CarriedTombstones != 1 || res2.Tombstoned != 0 {
		t.Fatalf("re-repair of tombstoned container: %+v", res2)
	}
}

func TestRepairTransientFlipRecovers(t *testing.T) {
	_, good := encodeContainer(t, repairVals(512), 128)
	path := filepath.Join(t.TempDir(), "c.lwc")
	writeBytes(t, path, good)

	// The disk bytes are fine; only the first read of block 1's payload
	// comes back flipped. The salvage must re-read, see stable clean
	// bytes, and leave the file alone.
	off, length := payloadStart(t, path, 0, 1)
	wrap, _ := faults.Wrap(faults.Config{
		FlipOffsets:  []int64{off + int64(length)/2},
		FlipMaxReads: 1,
	})
	res, err := RepairFile(path, RepairOptions{WrapReader: wrap})
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ActionClean || res.Reread != 1 || res.Tombstoned != 0 || res.ChecksumsFixed != 0 {
		t.Fatalf("transient-flip repair: %+v", res)
	}
	if fileSum(t, path) != sha256.Sum256(good) {
		t.Fatal("transient fault caused a rewrite")
	}
}

func TestRepairStableDecodableBytesFixChecksum(t *testing.T) {
	vals := repairVals(512)
	_, good := encodeContainer(t, vals, 128)
	path := filepath.Join(t.TempDir(), "c.lwc")
	writeBytes(t, path, good)

	// Find a persistent payload flip that still decodes cleanly with
	// the right row count — packed-value bits qualify. Stable decodable
	// bytes under a wrong recorded CRC are accepted as authoritative
	// (after a confirming identical re-read) and the CRC is recomputed.
	off, length := payloadStart(t, path, 0, 1)
	corrupt := append([]byte(nil), good...)
	flipped := int64(-1)
	for i := int64(length) - 1; i >= 0; i-- {
		corrupt[off+i] ^= 0x01
		f, err := storage.DecodeBlockPayload(corrupt[off:off+int64(length)], 128)
		if err == nil {
			_, err = core.Decompress(f)
		}
		if err == nil {
			flipped = off + i
			break
		}
		corrupt[off+i] ^= 0x01
	}
	if flipped < 0 {
		t.Fatal("no decodable single-bit payload flip found")
	}
	writeBytes(t, path, corrupt)

	res, err := RepairFile(path, RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ActionRepaired || res.ChecksumsFixed != 1 || res.Tombstoned != 0 {
		t.Fatalf("checksum-fix repair: %+v", res)
	}
	rep, err := storage.VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Tombstones) != 0 {
		t.Fatalf("checksum-fixed file fails verification: %+v", rep)
	}
	// The accepted bytes may not be the encoder's, so block 1 loses its
	// search certificate; the untouched blocks keep theirs.
	cf, err := storage.OpenContainerFile(path, storage.OpenOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	for i, b := range cf.Columns()[0].Col.Blocks {
		if (b.Certificate == 0) != (i == 1) {
			t.Fatalf("block %d has certificate %08x after a checksum fix of block 1", i, b.Certificate)
		}
	}
}

func TestRepairUnparseableIndexUnrepairable(t *testing.T) {
	_, good := encodeContainer(t, repairVals(256), 128)
	path := filepath.Join(t.TempDir(), "c.lwc")
	// Rot inside the index region: the index CRC fails, and without a
	// trustworthy block map there is nothing to salvage from.
	corrupt := append([]byte(nil), good...)
	corrupt[20] ^= 0x01
	writeBytes(t, path, corrupt)

	res, err := RepairFile(path, RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ActionUnrepairable || res.Err == "" {
		t.Fatalf("index-rot repair: %+v", res)
	}
	// The damaged file must be left exactly as found.
	if fileSum(t, path) != sha256.Sum256(corrupt) {
		t.Fatal("unrepairable path modified the file")
	}
}

func TestRepairMissingFileIsEnvironmental(t *testing.T) {
	if _, err := RepairFile(filepath.Join(t.TempDir(), "nope.lwc"), RepairOptions{}); err == nil {
		t.Fatal("missing file did not surface as an environmental error")
	}
}

func TestScrubFileCountersAndThrottle(t *testing.T) {
	_, good := encodeContainer(t, repairVals(512), 128)
	dir := t.TempDir()
	path := filepath.Join(dir, "c.lwc")
	writeBytes(t, path, good)

	s := New(Options{})
	rep, err := s.ScrubFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean file failed scrub: %v", rep.Issues)
	}
	ctr := s.Counters()
	if ctr.ContainersScanned != 1 || ctr.BlocksScanned != 4 || ctr.ErrorsFound != 0 {
		t.Fatalf("counters after clean scrub: %+v", ctr)
	}
	// The whole file passes through the counting reader at least once.
	if ctr.BytesScanned < int64(len(good)) {
		t.Fatalf("bytes scanned %d < file size %d", ctr.BytesScanned, len(good))
	}
	if ctr.LastSweepUnix != 0 {
		t.Fatal("sweep stamp set before MarkSweepDone")
	}
	s.MarkSweepDone()
	if s.Counters().LastSweepUnix == 0 {
		t.Fatal("MarkSweepDone did not stamp")
	}

	// A corrupt payload is a finding, not an environmental error.
	off, _ := payloadStart(t, path, 0, 2)
	corrupt := append([]byte(nil), good...)
	corrupt[off] = 0xFF
	writeBytes(t, path, corrupt)
	rep, err = s.ScrubFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Issues) != 1 || rep.Issues[0].Block != 2 {
		t.Fatalf("scrub of corrupt file: %+v", rep)
	}
	if got := s.Counters().ErrorsFound; got != 1 {
		t.Fatalf("errors found: %d", got)
	}
}

func TestScrubThrottlePacesReads(t *testing.T) {
	_, good := encodeContainer(t, repairVals(4096), 256)
	path := filepath.Join(t.TempDir(), "c.lwc")
	writeBytes(t, path, good)

	// Budget the sweep to ~4x the file per second: the walk must take
	// at least (bytes read / rate) even on an instant disk. Bounding
	// from below only keeps the test timing-safe under load.
	var counted int64
	wrap := func(ra io.ReaderAt) io.ReaderAt {
		return countingReader{ra: ra, n: &counted}
	}
	rate := int64(len(good)) * 4
	s := New(Options{RateBytesPerSec: rate, WrapReader: wrap})
	start := time.Now()
	if _, err := s.ScrubFile(path); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	minWall := float64(counted) / float64(rate)
	if elapsed < minWall*0.9 {
		t.Fatalf("throttled scrub of %d bytes at %d B/s took %.3fs, want >= %.3fs",
			counted, rate, elapsed, minWall)
	}
}

type countingReader struct {
	ra io.ReaderAt
	n  *int64
}

func (c countingReader) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.ra.ReadAt(p, off)
	*c.n += int64(n)
	return n, err
}
