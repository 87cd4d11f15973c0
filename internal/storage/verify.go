package storage

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"lwcomp/internal/blocked"
	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/vec"
)

// This file is the one block check: the integrity verifier behind
// `lwc verify`, the background scrubber, and the pre-swap gates of
// compaction and salvage repair — an fsck for containers. It walks
// every block extent of every column, re-reads and CRC-checks each
// payload, decodes and decompresses it, and re-derives the block's
// [min, max] to compare against the index stats, and every delta
// frame's anchors and extremes to compare against its segments —
// catching both payload rot (CRC) and the rot a CRC cannot see
// (self-consistent but wrong stats or frames would silently turn block
// or segment skipping into wrong answers).

// VerifyIssue is one verification finding: a block (or, with Block
// -1, the container as a whole) that failed a check.
type VerifyIssue struct {
	// Column names the affected column; empty for container-level
	// findings.
	Column string
	// Block is the affected block index, or -1 for container-level
	// findings (unopenable file, bad index).
	Block int
	// RowStart and RowCount delimit the affected row range
	// [RowStart, RowStart+RowCount); both are 0 for container-level
	// findings.
	RowStart int64
	// RowCount is the number of rows in the affected range.
	RowCount int
	// Err is the failure. Checksum and structural failures satisfy
	// errors.Is against ErrChecksum / ErrCorrupt.
	Err error
}

// String renders the issue the way `lwc verify` prints it.
func (v VerifyIssue) String() string {
	if v.Block < 0 {
		return fmt.Sprintf("container: %v", v.Err)
	}
	return fmt.Sprintf("column %q block %d (rows %d-%d): %v",
		v.Column, v.Block, v.RowStart, v.RowStart+int64(v.RowCount)-1, v.Err)
}

// MarshalJSON renders the issue for `lwc verify -json` and the
// scrubber: the error becomes a reason string, everything else keeps
// its numeric identity.
func (v VerifyIssue) MarshalJSON() ([]byte, error) {
	reason := ""
	if v.Err != nil {
		reason = v.Err.Error()
	}
	return json.Marshal(struct {
		Column   string `json:"column,omitempty"`
		Block    int    `json:"block"`
		RowStart int64  `json:"row_start"`
		RowCount int    `json:"row_count"`
		Reason   string `json:"reason"`
	}{v.Column, v.Block, v.RowStart, v.RowCount, reason})
}

// VerifyReport is the outcome of verifying one container.
type VerifyReport struct {
	// Path is the verified file; empty when the source was a reader.
	Path string `json:"path,omitempty"`
	// Columns and Blocks count what the walk covered.
	Columns int `json:"columns"`
	// Blocks is the number of blocks walked (tombstones included).
	Blocks int `json:"blocks"`
	// Issues lists every failed check, in column-then-block order. A
	// healthy container has none.
	Issues []VerifyIssue `json:"issues"`
	// Tombstones lists blocks the container itself declares lost —
	// known, persisted omissions from an earlier salvage repair. They
	// are reported for operators but are not failures: a tombstoned
	// container is in its intended (degraded) state and verifies OK.
	Tombstones []VerifyIssue `json:"tombstones,omitempty"`
}

// OK reports whether the container passed every check. Persisted
// tombstones do not fail verification; see Tombstones.
func (r *VerifyReport) OK() bool { return len(r.Issues) == 0 }

// VerifyOptions tunes a verification walk. The zero value matches
// `lwc verify`: direct uncached reads, no retry, no wrapper.
type VerifyOptions struct {
	// Retry re-issues transiently failed reads with capped backoff
	// when MaxRetries is positive — the scrubber's setting, so a
	// flaky-but-recoverable read does not condemn a healthy block.
	Retry RetryPolicy
	// WrapReader, when non-nil, decorates the reader before any byte
	// is read — the seam the scrubber uses for byte-rate throttling
	// and the fault-injection tests use for corruption injection.
	WrapReader func(ra io.ReaderAt) io.ReaderAt
}

// VerifyFile fsck-walks the container at path: every block payload is
// re-read, CRC-checked, decoded and decompressed, and its re-derived
// [min, max] compared against the block index. Integrity failures are
// collected into the report (the walk continues past them); only
// environmental failures — the file missing, transport-level I/O
// errors — return a non-nil error.
func VerifyFile(path string) (*VerifyReport, error) {
	return VerifyFileOpts(path, VerifyOptions{})
}

// VerifyFileOpts is VerifyFile with explicit options.
func VerifyFileOpts(path string, opts VerifyOptions) (*VerifyReport, error) {
	r, err := verifyOpened(OpenContainerFile(path, opts.open()))
	if r != nil {
		r.Path = path
	}
	return r, err
}

// VerifyReader fsck-walks a container served from ra — the pre-swap
// candidate gate salvage repair uses on in-memory bytes. Same
// semantics as VerifyFile: integrity failures land in the report,
// only environmental failures return an error.
func VerifyReader(ra io.ReaderAt, size int64, opts VerifyOptions) (*VerifyReport, error) {
	return verifyOpened(OpenContainer(ra, size, opts.open()))
}

// open maps the verification options onto an uncached open:
// verification must touch the bytes on disk, and the walk reads every
// block exactly once anyway.
func (o VerifyOptions) open() OpenOptions {
	return OpenOptions{CacheBytes: -1, Retry: o.Retry, WrapReader: o.WrapReader}
}

// verifyOpened walks cf and closes it, or, when the open failed,
// reports an integrity failure as the container-level issue and
// returns any other failure as environmental.
func verifyOpened(cf *ContainerFile, err error) (*VerifyReport, error) {
	if err != nil {
		if blocked.IsPermanent(err) {
			return &VerifyReport{Issues: []VerifyIssue{{Block: -1, Err: err}}}, nil
		}
		return nil, err
	}
	defer cf.Close()
	return VerifyContainer(cf, nil), nil
}

// verifyBufs pools the buffer VerifyContainer decodes blocks into, so a
// steady stream of verifications does not allocate (and zero) a
// block-sized buffer per call. It is a pool of its own rather than a
// core.Scratch: a scratch's freelist hands its block-sized buffer to
// the first smaller request, so borrowing there kept several
// block-sized buffers alive across collections, where this pool keeps
// one.
var verifyBufs = sync.Pool{New: func() any { return new([]int64) }}

// VerifyContainer is the verification walk every fsck runs over an
// open container: each block pulled through the read path, its index
// stats checked against the values (CheckStats) and its delta frames
// against the values of their nodes (scheme.CheckFrames). visit, when
// non-nil, then sees every block that passed — ci is the column's
// position, b its index entry, vals its decoded values (a pooled
// buffer, valid only for the call) — and an error it returns becomes
// the block's issue: the compactor's pre-swap gate adds value equality
// against the source that way.
func VerifyContainer(cf *ContainerFile, visit func(ci int, b *blocked.Block, vals []int64) error) *VerifyReport {
	r := &VerifyReport{}
	pooled := verifyBufs.Get().(*[]int64)
	defer verifyBufs.Put(pooled)
	s := core.GetScratch()
	defer s.Release()
	for ci, bc := range cf.Columns() {
		r.Columns++
		if err := bc.Col.Validate(); err != nil {
			r.Issues = append(r.Issues, VerifyIssue{Column: bc.Name, Block: -1, Err: err})
		}
		for i := range bc.Col.Blocks {
			r.Blocks++
			b := &bc.Col.Blocks[i]
			if b.Tombstone {
				// The container declares this range lost; that is its
				// intended degraded state, not a new finding.
				r.Tombstones = append(r.Tombstones, VerifyIssue{
					Column: bc.Name, Block: i, RowStart: b.Start, RowCount: b.Count,
					Err: fmt.Errorf("%w: %s", blocked.ErrTombstone, b.TombstoneReason),
				})
				continue
			}
			if cap(*pooled) < b.Count {
				*pooled = make([]int64, b.Count)
			}
			vals := (*pooled)[:b.Count]
			err := verifyBlock(bc.Col, i, vals, s)
			if err == nil && visit != nil {
				err = visit(ci, b, vals)
			}
			if err != nil {
				r.Issues = append(r.Issues, VerifyIssue{
					Column: bc.Name, Block: i, RowStart: b.Start, RowCount: b.Count, Err: err,
				})
			}
		}
	}
	return r
}

// verifyBlock pulls block i's payload through the column's source —
// CRC verification and form decode, exactly the path a query takes —
// decompresses it into vals, and checks the index stats and the delta
// frames against the values.
func verifyBlock(c *blocked.Column, i int, vals []int64, s *core.Scratch) error {
	f, l, err := c.LeasedForm(i)
	if err != nil {
		return err
	}
	defer l.Release()
	if err := core.DecompressInto(f, vals, s); err != nil {
		return fmt.Errorf("blocked: block %d: %w", i, err)
	}
	if _, _, err := CheckStats(&c.Blocks[i], vals); err != nil {
		return err
	}
	return scheme.CheckFrames(f, vals, s)
}

// CheckStats re-derives a block's [min, max] from its decoded values
// and checks them against the block's index entry — catching the index
// rot a CRC cannot see (self-consistent but wrong stats would silently
// turn block skipping into wrong answers). The verifier and salvage
// repair share it; repair writes the re-derived lo, hi. A block
// without stats or rows has nothing to check and passes with its own.
func CheckStats(b *blocked.Block, vals []int64) (lo, hi int64, err error) {
	if !b.HasStats || len(vals) == 0 {
		return b.Min, b.Max, nil
	}
	lo, hi, _ = vec.MinMax(vals) // non-empty
	if lo != b.Min || hi != b.Max {
		err = fmt.Errorf("%w: index stats [%d, %d] but data spans [%d, %d]", ErrCorrupt, b.Min, b.Max, lo, hi)
	}
	return lo, hi, err
}
