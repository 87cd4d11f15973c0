package scrub

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"lwcomp/internal/blocked"
	"lwcomp/internal/core"
	"lwcomp/internal/storage"
)

// Salvage repair rebuilds a damaged container as a new generation:
// good blocks are preserved byte-for-byte, blocks whose first read
// lies are re-read a bounded number of times (transient path
// corruption clears on re-read; the storage retry layer below already
// absorbs transient I/O errors), index stats falsified by rot are
// re-derived from the decompressed values, blocks whose delta frames
// lie are re-encoded from those values, and only blocks that stay
// unreadable are tombstoned — an explicit, persisted record of the
// exact lost row range, the same shape degraded scans already report.
// The candidate is verified in memory before an atomic temp+rename
// swap; a crash at any point leaves the old generation intact.

// Repair actions, in the Action field of a RepairResult.
const (
	// ActionClean means no persistent defect was found; the file was
	// left untouched.
	ActionClean = "clean"
	// ActionRepaired means a new generation was swapped in.
	ActionRepaired = "repaired"
	// ActionUnrepairable means the container is damaged beyond
	// salvage (unparseable index) or the rebuilt candidate failed its
	// pre-swap verification; the file was left untouched.
	ActionUnrepairable = "unrepairable"
)

// RepairOptions tunes a salvage repair.
type RepairOptions struct {
	// Retry re-issues transiently failed reads below the block layer
	// when its MaxRetries is positive.
	Retry storage.RetryPolicy
	// ReadAttempts bounds how many full re-reads a block whose bytes
	// fail their CRC or decode gets before being declared lost — over
	// and above the per-read transient retries Retry provides. 0
	// means 3.
	ReadAttempts int
	// WrapReader, when non-nil, decorates the reader before any byte
	// is read — the fault-injection seam.
	WrapReader func(ra io.ReaderAt) io.ReaderAt
}

// RepairResult describes what a salvage repair did to one container.
type RepairResult struct {
	// Path is the repaired file.
	Path string `json:"path"`
	// Action is one of ActionClean, ActionRepaired, ActionUnrepairable.
	Action string `json:"action"`
	// Columns and Blocks count what the salvage walked.
	Columns int `json:"columns"`
	// Blocks is the number of blocks walked (tombstones included).
	Blocks int `json:"blocks"`
	// Preserved counts good blocks carried into the new generation
	// byte-for-byte on their first read.
	Preserved int `json:"preserved"`
	// Reread counts blocks whose first read was corrupt but whose
	// bytes came back clean on a bounded re-read.
	Reread int `json:"reread"`
	// StatsFixed counts blocks whose index [min, max] disagreed with
	// the decompressed values and was re-derived, and blocks whose
	// delta frames disagreed with them and which were re-encoded from
	// those values.
	StatsFixed int `json:"stats_fixed"`
	// ChecksumsFixed counts blocks whose payload decoded cleanly but
	// whose recorded index CRC was wrong — index rot — and was
	// recomputed over the verified bytes.
	ChecksumsFixed int `json:"checksums_fixed"`
	// Tombstoned counts blocks newly declared lost this repair.
	Tombstoned int `json:"tombstoned"`
	// CarriedTombstones counts tombstones from earlier repairs
	// carried forward unchanged.
	CarriedTombstones int `json:"carried_tombstones"`
	// BytesBefore and BytesAfter are the container sizes around the
	// swap (equal when no swap happened).
	BytesBefore int64 `json:"bytes_before"`
	BytesAfter  int64 `json:"bytes_after"`
	// Err holds what made the container unrepairable, when Action is
	// ActionUnrepairable.
	Err string `json:"error,omitempty"`
}

// RepairFile salvages the container at path per the package rules. It
// returns a result for every container-shaped outcome — including
// ActionUnrepairable — and a non-nil error only for environmental
// failures (file missing, transport-level I/O, unwritable directory).
func RepairFile(path string, opt RepairOptions) (*RepairResult, error) {
	if opt.ReadAttempts <= 0 {
		opt.ReadAttempts = 3
	}
	res := &RepairResult{Path: path, Action: ActionClean}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	res.BytesBefore = st.Size()
	res.BytesAfter = st.Size()

	cf, err := storage.OpenContainerFile(path, storage.OpenOptions{
		CacheBytes: -1,
		Retry:      opt.Retry,
		WrapReader: opt.WrapReader,
	})
	if err != nil {
		if blocked.IsPermanent(err) {
			// The index is the only map of where blocks live; without
			// it there is nothing to salvage from.
			res.Action = ActionUnrepairable
			res.Err = err.Error()
			return res, nil
		}
		return nil, err
	}

	raw := make([]storage.RawColumn, 0, len(cf.Columns()))
	changed := false
	var scratch []byte
	for ci, bc := range cf.Columns() {
		res.Columns++
		exts := cf.Extents(ci)
		rc := storage.RawColumn{Name: bc.Name, BlockSize: bc.Col.BlockSize}
		for i := range bc.Col.Blocks {
			res.Blocks++
			b := &bc.Col.Blocks[i]
			if b.Tombstone {
				rc.Blocks = append(rc.Blocks, storage.RawBlock{
					Count: b.Count, Tombstone: true, TombstoneReason: b.TombstoneReason,
				})
				res.CarriedTombstones++
				continue
			}
			rb, blockChanged := salvageBlock(cf, ci, i, exts[i], b, opt, &scratch, res)
			if blockChanged {
				changed = true
			}
			rc.Blocks = append(rc.Blocks, rb)
		}
		raw = append(raw, rc)
	}
	cf.Close()

	if !changed {
		return res, nil
	}

	var buf bytes.Buffer
	if err := storage.WriteContainerV3Raw(&buf, raw); err != nil {
		res.Action = ActionUnrepairable
		res.Err = fmt.Sprintf("assembling candidate: %v", err)
		return res, nil
	}
	// Pre-swap gate: the candidate must verify end to end before it
	// is allowed to replace anything.
	rep, err := storage.VerifyReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()), storage.VerifyOptions{})
	if err != nil {
		return nil, err
	}
	if !rep.OK() {
		res.Action = ActionUnrepairable
		res.Err = fmt.Sprintf("candidate failed pre-swap verification: %v", rep.Issues[0])
		return res, nil
	}
	if err := storage.AtomicWriteFile(path, func(w io.Writer) error {
		_, werr := w.Write(buf.Bytes())
		return werr
	}); err != nil {
		return nil, err
	}
	res.Action = ActionRepaired
	res.BytesAfter = int64(buf.Len())
	return res, nil
}

// salvageBlock decides one block's fate: preserve, re-read, fix its
// index entry, re-encode it, or tombstone. It checks a decoded block
// as the verifier does (storage.CheckBlock). A block keeps its search
// certificate while its payload passes the recorded CRC (stats fixes
// included) and loses it otherwise; a re-encoded block carries the
// encoder's. It updates the result's tallies and reports whether the
// block's index entry or payload differs from the original container
// (requiring a new generation).
func salvageBlock(cf *storage.ContainerFile, ci, i int, ext storage.BlockExtent, b *blocked.Block,
	opt RepairOptions, scratch *[]byte, res *RepairResult) (storage.RawBlock, bool) {
	var lastErr error
	// unconfirmed holds the previous read's bytes when they decoded
	// cleanly but failed the recorded CRC. Such bytes are trusted only
	// after a confirming identical re-read: a transient flip that
	// happens to stay decodable must not be blessed off its first
	// sighting, while genuinely stable decodable bytes under a rotten
	// index CRC are the one consistent explanation left.
	var unconfirmed []byte
	s := core.GetScratch()
	defer s.Release()
	for attempt := 1; attempt <= opt.ReadAttempts; attempt++ {
		data, err := cf.Payload(ci, i, *scratch)
		if err != nil {
			// The storage retry layer already absorbed transient I/O;
			// an error here exhausted that budget. A fresh attempt
			// gets a fresh budget.
			lastErr = err
			unconfirmed = nil
			continue
		}
		if cap(data) > cap(*scratch) {
			*scratch = data[:0]
		}
		// The lazy read path's own two halves, run apart: bytes that
		// decode cleanly under a failed CRC may still be the block.
		crcOK := storage.PayloadCRCMatches(data, ext.CRC)
		f, derr := storage.DecodeBlockPayload(data, b.Count)
		var vals []int64
		if derr == nil {
			vals, derr = core.Decompress(f)
		}
		if derr != nil {
			lastErr = derr
			unconfirmed = nil
			continue
		}
		if !crcOK {
			if unconfirmed == nil || !bytes.Equal(unconfirmed, data) {
				unconfirmed = append(unconfirmed[:0], data...)
				lastErr = fmt.Errorf("%w: payload CRC mismatch", storage.ErrChecksum)
				continue
			}
			// Byte-stable, fully decodable, right row count — accept
			// the payload as authoritative and recompute its index
			// CRC over it.
			res.ChecksumsFixed++
		}
		lo, hi, stats, frames := storage.CheckBlock(b, f, vals, s)
		if frames != nil {
			// The values are sound but a frame lies about them: encode
			// them afresh with the writer's own search, which derives
			// true frames and stats and stamps its certificate.
			rb, err := reencode(vals)
			if err != nil {
				lastErr = err
				break
			}
			res.StatsFixed++
			return rb, true
		}
		rb := storage.RawBlock{Count: b.Count, Payload: append([]byte(nil), data...)}
		blockChanged := !crcOK
		if crcOK {
			// Bytes that passed their recorded CRC are still the
			// encoder's, so its certificate still vouches for them;
			// bytes blessed under a recomputed CRC may not be.
			rb.Certificate = b.Certificate
			if attempt > 1 {
				res.Reread++
			}
		}
		if b.HasStats && len(vals) > 0 {
			rb.HasStats, rb.Min, rb.Max = true, lo, hi
			if stats != nil {
				res.StatsFixed++
				blockChanged = true
			}
		}
		if !blockChanged && attempt == 1 {
			res.Preserved++
		}
		return rb, blockChanged
	}
	reason := fmt.Sprintf("payload unrecoverable after %d reads: %v", opt.ReadAttempts, lastErr)
	res.Tombstoned++
	return storage.RawBlock{Count: b.Count, Tombstone: true, TombstoneReason: reason}, true
}

// reencode encodes one block's values as the writer would, into a raw
// block carrying the encoder's stats and certificate.
func reencode(vals []int64) (storage.RawBlock, error) {
	col, err := blocked.Encode(vals, blocked.EncodeOptions{Parallelism: 1})
	if err != nil {
		return storage.RawBlock{}, err
	}
	b := &col.Blocks[0]
	payload, err := storage.EncodeForm(b.Form)
	if err != nil {
		return storage.RawBlock{}, err
	}
	return storage.RawBlock{
		Count: b.Count, HasStats: b.HasStats, Min: b.Min, Max: b.Max,
		Certificate: b.Certificate, Payload: payload,
	}, nil
}
