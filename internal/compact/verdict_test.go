package compact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lwcomp/internal/blocked"
	"lwcomp/internal/scheme"
	"lwcomp/internal/scrub"
	"lwcomp/internal/storage"
	"lwcomp/internal/workload"
)

// verdictBlock is the block every corruption below lands in.
const verdictBlock = 2

// rebuildBlock reassembles a one-column container with verdictBlock's
// raw block passed through edit (vals are its decoded values). The raw
// writer computes every CRC over the bytes it is given, so the edit is
// the only thing wrong with the result.
func rebuildBlock(t *testing.T, container []byte, edit func(rb *storage.RawBlock, vals []int64)) []byte {
	t.Helper()
	cf, err := storage.OpenContainer(bytes.NewReader(container), int64(len(container)), storage.OpenOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	bc := cf.Columns()[0]
	rc := storage.RawColumn{Name: bc.Name, BlockSize: bc.Col.BlockSize}
	for i, b := range bc.Col.Blocks {
		payload, err := cf.Payload(0, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		rb := storage.RawBlock{Count: b.Count, HasStats: b.HasStats, Min: b.Min, Max: b.Max,
			Certificate: b.Certificate, Payload: append([]byte(nil), payload...)}
		if i == verdictBlock {
			vals := make([]int64, b.Count)
			if err := bc.Col.DecompressBlock(i, vals); err != nil {
				t.Fatal(err)
			}
			edit(&rb, vals)
		}
		rc.Blocks = append(rc.Blocks, rb)
	}
	var buf bytes.Buffer
	if err := storage.WriteContainerV3Raw(&buf, []storage.RawColumn{rc}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rotCRC flips one bit of verdictBlock's recorded payload CRC and
// re-seals the index, so the payload is intact but fails its CRC.
func rotCRC(t *testing.T, container []byte) []byte {
	t.Helper()
	cf, err := storage.OpenContainer(bytes.NewReader(container), int64(len(container)), storage.OpenOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	crc := binary.LittleEndian.AppendUint32(nil, cf.Extents(0)[verdictBlock].CRC)
	cf.Close()
	out := append([]byte(nil), container...)
	// prefix: magic 4 + version 2 + index length 8; the index ends in
	// its own CRC.
	body := out[14 : 14+binary.LittleEndian.Uint64(out[6:14])-4]
	if bytes.Count(body, crc) != 1 {
		t.Fatalf("the block's CRC is not unique in the index")
	}
	body[bytes.Index(body, crc)] ^= 0x01
	binary.LittleEndian.PutUint32(out[14+len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// TestOneDecoderOneVerdict: a corrupt block meets the same check on
// every path that reads one. The lazy read (Column.BlockForm), the
// verifier (storage.VerifyReader) and the compactor's pre-swap gate
// refuse it with the same error class, and salvage repair fixes or
// tombstones it for the same reason — because all four decode through
// storage.DecodeBlockPayload and check stats with storage.CheckBlock.
// Lying index stats are the one defect the lazy read does not see: it
// trusts the index (that is what block skipping is), which is why the
// verifier re-derives them.
func TestOneDecoderOneVerdict(t *testing.T) {
	const blockSize = 1024
	data := workload.OrderShipDates(5*blockSize, 64, 730120, 7)
	col, err := blocked.Encode(data, blocked.EncodeOptions{BlockSize: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	var good bytes.Buffer
	if err := storage.WriteContainerV3(&good, []storage.BlockedColumn{{Name: "d", Col: col}}); err != nil {
		t.Fatal(err)
	}
	ns, err := scheme.Parse("ns")
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, container []byte) []byte
		class   error
		lazyOK  bool
		repair  func(r *scrub.RepairResult) int // the tally repair must bump
	}{
		{"trailing byte", func(t *testing.T, c []byte) []byte {
			return rebuildBlock(t, c, func(rb *storage.RawBlock, _ []int64) { rb.Payload = append(rb.Payload, 0) })
		}, storage.ErrCorrupt, false, func(r *scrub.RepairResult) int { return r.Tombstoned }},
		{"row count", func(t *testing.T, c []byte) []byte {
			return rebuildBlock(t, c, func(rb *storage.RawBlock, vals []int64) {
				f, err := ns.Compress(vals[1:])
				if err != nil {
					t.Fatal(err)
				}
				if rb.Payload, err = storage.EncodeForm(f); err != nil {
					t.Fatal(err)
				}
			})
		}, storage.ErrCorrupt, false, func(r *scrub.RepairResult) int { return r.Tombstoned }},
		{"bad CRC", rotCRC, storage.ErrChecksum, false, func(r *scrub.RepairResult) int { return r.ChecksumsFixed }},
		{"stats lie", func(t *testing.T, c []byte) []byte {
			return rebuildBlock(t, c, func(rb *storage.RawBlock, _ []int64) { rb.Min -= 7 })
		}, storage.ErrCorrupt, true, func(r *scrub.RepairResult) int { return r.StatsFixed }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			bad := tc.corrupt(t, good.Bytes())
			path := filepath.Join(dir, "bad.lwc")
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}

			// The lazy read.
			cf, err := storage.OpenContainerFile(path, storage.OpenOptions{CacheBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			_, err = cf.Columns()[0].Col.BlockForm(verdictBlock)
			cf.Close()
			if tc.lazyOK != (err == nil) || (err != nil && !errors.Is(err, tc.class)) {
				t.Fatalf("lazy read: %v, want class %v (or none: %v)", err, tc.class, tc.lazyOK)
			}

			// The verifier.
			rep, err := storage.VerifyReader(bytes.NewReader(bad), int64(len(bad)), storage.VerifyOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Issues) != 1 || rep.Issues[0].Block != verdictBlock || !errors.Is(rep.Issues[0].Err, tc.class) {
				t.Fatalf("verifier: %+v, want one %v issue on block %d", rep.Issues, tc.class, verdictBlock)
			}

			// The compactor's pre-swap gate, over its own candidate.
			cheap := filepath.Join(dir, "cheap.lwc")
			writeCheap(t, cheap, blockSize, map[string][]int64{"d": data})
			orig, err := os.ReadFile(cheap)
			if err != nil {
				t.Fatal(err)
			}
			testMutateCandidate = func(b []byte) []byte { return tc.corrupt(t, b) }
			res, err := New(Options{MinGainBytes: -1}).CompactFile(cheap)
			testMutateCandidate = nil
			if err != nil {
				t.Fatal(err)
			}
			if res.Action != ActionFailed || !errors.Is(res.Err, tc.class) {
				t.Fatalf("compactor gate: %q, %v, want failed with class %v", res.Action, res.Err, tc.class)
			}
			if now, _ := os.ReadFile(cheap); !bytes.Equal(now, orig) {
				t.Fatal("the compactor swapped in a refused candidate")
			}

			// Salvage repair.
			rr, err := scrub.RepairFile(path, scrub.RepairOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rr.Action != scrub.ActionRepaired || tc.repair(rr) != 1 {
				t.Fatalf("repair: %+v", rr)
			}
			rep, err = storage.VerifyFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("repaired file fails verification: %v", rep.Issues)
			}
			for _, tomb := range rep.Tombstones {
				if !strings.Contains(tomb.Err.Error(), tc.class.Error()) {
					t.Fatalf("tombstone reason %q, want class %v", tomb.Err, tc.class)
				}
			}
		})
	}
}
