package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lwcomp/internal/blocked"
)

// writeTombstonedV3 encodes vals, tombstones block tomb with reason,
// and writes the container to a temp file.
func writeTombstonedV3(t *testing.T, vals []int64, blockSize, tomb int, reason string) string {
	t.Helper()
	col, err := blocked.Encode(vals, blocked.EncodeOptions{BlockSize: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	col.MarkTombstone(tomb, reason)
	path := filepath.Join(t.TempDir(), "tombstoned.lwc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteContainerV3(f, []BlockedColumn{{Name: "c", Col: col}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestVerifyTombstoneRoundTripLazy(t *testing.T) {
	vals := verifyVals(512)
	path := writeTombstonedV3(t, vals, 128, 2, "payload lost in test")
	cf, err := OpenContainerFile(path, OpenOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	col := cf.Columns()[0].Col

	b := &col.Blocks[2]
	if !b.Tombstone || b.TombstoneReason != "payload lost in test" {
		t.Fatalf("tombstone not materialized: %+v", b)
	}
	// Stats must not survive the payload: a planner proving the block
	// from [min, max] would count rows that no longer exist.
	if b.HasStats {
		t.Fatal("tombstoned block kept its index stats")
	}
	if qerr, ok := col.QuarantineError(2); !ok || !errors.Is(qerr, blocked.ErrTombstone) {
		t.Fatalf("tombstone not quarantined: %v, %v", qerr, ok)
	}

	// Default (fail-fast) reads of the lost range fail with the
	// tombstone cause; surviving blocks still decode exactly.
	out := make([]int64, len(vals))
	if err := col.DecompressInto(out); !errors.Is(err, blocked.ErrTombstone) {
		t.Fatalf("full decompress over a tombstone: %v", err)
	}
	good := make([]int64, 128)
	if err := col.DecompressBlock(1, good); err != nil {
		t.Fatal(err)
	}
	for i, v := range good {
		if v != vals[128+i] {
			t.Fatalf("surviving block value %d: got %d want %d", i, v, vals[128+i])
		}
	}

	// The verifier reports the tombstone separately and does not fail
	// the container: a tombstoned container is in its intended state.
	rep, err := VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("tombstoned container failed verification: %v", rep.Issues)
	}
	if len(rep.Tombstones) != 1 || rep.Tombstones[0].Block != 2 ||
		rep.Tombstones[0].RowStart != 256 || rep.Tombstones[0].RowCount != 128 {
		t.Fatalf("tombstone report: %+v", rep.Tombstones)
	}
}

func TestVerifyTombstoneRoundTripEager(t *testing.T) {
	path := writeTombstonedV3(t, verifyVals(512), 128, 0, "gone")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := LoadContainer(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	col := cols[0].Col
	if !col.Blocks[0].Tombstone {
		t.Fatal("eager read dropped the tombstone flag")
	}
	// In-memory columns have no Source; the quarantine check must
	// still fire before the nil-source fetch path.
	out := make([]int64, 128)
	if err := col.DecompressBlock(0, out); !errors.Is(err, blocked.ErrTombstone) {
		t.Fatalf("eager tombstone fetch: %v", err)
	}
}

func TestTombstoneRawWriterRejectsPayload(t *testing.T) {
	var buf bytes.Buffer
	err := WriteContainerV3Raw(&buf, []RawColumn{{
		Name:      "c",
		BlockSize: 4,
		Blocks:    []RawBlock{{Count: 4, Tombstone: true, Payload: []byte{1}}},
	}})
	if err == nil {
		t.Fatal("tombstone with a payload was written")
	}
}

func TestTombstoneAllBlocksRoundTrip(t *testing.T) {
	// Every block lost: the payload region is empty, maxEnd is 0, and
	// the container still parses — fully degraded, not corrupt.
	var buf bytes.Buffer
	err := WriteContainerV3Raw(&buf, []RawColumn{{
		Name:      "c",
		BlockSize: 4,
		Blocks: []RawBlock{
			{Count: 4, Tombstone: true, TombstoneReason: "a"},
			{Count: 4, Tombstone: true, TombstoneReason: "b"},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cols, err := LoadContainer(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	col := cols[0].Col
	if col.N != 8 || !col.Blocks[0].Tombstone || !col.Blocks[1].Tombstone {
		t.Fatalf("all-tombstone roundtrip: n=%d blocks=%+v", col.N, col.Blocks)
	}
	if col.Blocks[1].TombstoneReason != "b" {
		t.Fatalf("reason lost: %q", col.Blocks[1].TombstoneReason)
	}
}

func TestTombstoneClearQuarantineKeepsTombstones(t *testing.T) {
	col, err := blocked.Encode(verifyVals(256), blocked.EncodeOptions{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	col.MarkTombstone(1, "gone")
	if !col.Quarantine(2, ErrChecksum) {
		t.Fatal("quarantine of a permanent error rejected")
	}
	if col.Quarantine(2, ErrChecksum) {
		t.Fatal("double quarantine reported as new")
	}
	if col.Quarantine(3, errors.New("transient-looking")) {
		t.Fatal("non-permanent error accepted into the ledger")
	}
	if cleared := col.ClearQuarantine(); cleared != 1 {
		t.Fatalf("cleared %d entries, want 1 (the non-tombstone)", cleared)
	}
	// The tombstone must stay condemned: its payload does not exist.
	if _, ok := col.QuarantineError(1); !ok {
		t.Fatal("ClearQuarantine re-admitted a tombstone")
	}
	if _, ok := col.QuarantineError(2); ok {
		t.Fatal("ClearQuarantine kept a repairable entry")
	}
}

func TestTombstoneReasonTruncated(t *testing.T) {
	long := strings.Repeat("x", 400)
	var buf bytes.Buffer
	err := WriteContainerV3Raw(&buf, []RawColumn{{
		Name:      "c",
		BlockSize: 4,
		Blocks:    []RawBlock{{Count: 4, Tombstone: true, TombstoneReason: long}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cols, err := LoadContainer(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := cols[0].Col.Blocks[0].TombstoneReason
	if len(got) != 255 || !strings.HasPrefix(long, got) {
		t.Fatalf("reason not truncated to 255 bytes: len=%d", len(got))
	}
}
