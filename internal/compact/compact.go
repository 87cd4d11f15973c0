package compact

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"lwcomp/internal/blocked"
	"lwcomp/internal/scheme"
	"lwcomp/internal/storage"
)

// DefaultMinGainBytes is the rewrite threshold used when Options does
// not set one: a rewrite must win at least one 4 KiB page, so the
// compactor never churns a directory for byte-level noise.
const DefaultMinGainBytes int64 = 4096

// DefaultSmallBytes is the merge-eligibility bound: single-column
// containers under 1 MiB are "small" and worth coalescing into one
// multi-column container.
const DefaultSmallBytes int64 = 1 << 20

// Options configures a Compactor. The zero value of every field means
// "use the default". There is no search knob: every re-encode runs the
// encoder's one search, the one whose result a certificate vouches for.
type Options struct {
	// MinGainBytes is the absolute rewrite threshold: a container is
	// rewritten only when the candidate saves at least this many
	// bytes. 0 means DefaultMinGainBytes; negative means any positive
	// win qualifies.
	MinGainBytes int64
	// MinGainFraction, when positive, additionally requires the win
	// to be at least this fraction of the container's current size —
	// the knob that keeps the compactor from rewriting a gigabyte to
	// save a kilobyte.
	MinGainFraction float64
	// Parallelism bounds concurrent block re-encodes per container;
	// <= 0 means GOMAXPROCS.
	Parallelism int
	// MergeSmall lets CompactDir coalesce groups of small
	// (DefaultSmallBytes) same-table single-column containers
	// (`<table>.<column>.lwc`) into one multi-column `<table>.lwc`
	// before compacting.
	MergeSmall bool
}

// minGain resolves the absolute threshold knob.
func (o Options) minGain() int64 {
	if o.MinGainBytes == 0 {
		return DefaultMinGainBytes
	}
	if o.MinGainBytes < 0 {
		return 1
	}
	return o.MinGainBytes
}

// threshold returns the byte win a container of oldSize bytes must
// clear to be rewritten — the compaction threshold contract.
func (o Options) threshold(oldSize int64) int64 {
	min := o.minGain()
	if frac := int64(o.MinGainFraction * float64(oldSize)); frac > min {
		min = frac
	}
	return min
}

// Action is what the compactor did with one container.
type Action string

const (
	// ActionRewritten: the candidate cleared the threshold, verified
	// clean, and was swapped in atomically.
	ActionRewritten Action = "rewritten"
	// ActionSkipped: the candidate's win was under the threshold; the
	// file was not touched.
	ActionSkipped Action = "skipped"
	// ActionFailed: the container could not be read, re-encoded or
	// verified; the old generation was kept untouched.
	ActionFailed Action = "failed"
	// ActionMerged: several small single-column containers were
	// coalesced into this multi-column container.
	ActionMerged Action = "merged"
)

// Result reports one container's compaction outcome.
type Result struct {
	// Path is the container the outcome applies to (for a merge, the
	// coalesced output).
	Path string
	// Action is the outcome.
	Action Action
	// BytesBefore is the container's size before (for a merge, the
	// summed size of the source parts).
	BytesBefore int64
	// BytesAfter is the container's size after the operation; equal
	// to BytesBefore when nothing was written.
	BytesAfter int64
	// CandidateBytes is the re-encoded candidate's size, whether or
	// not it was swapped in (0 when the candidate was never built).
	CandidateBytes int64
	// Generation is the compactor's generation stamp of a successful
	// swap: strictly increasing across rewrites and merges, 0 when
	// nothing was written.
	Generation uint64
	// CPUSeconds is the wall-clock time this container's re-analysis,
	// verification and rewrite cost.
	CPUSeconds float64
	// Err is the failure behind ActionFailed.
	Err error
	// MergedFrom lists the source containers behind ActionMerged.
	MergedFrom []string
}

// Gain is the byte win the operation realized (0 unless rewritten or
// merged).
func (r Result) Gain() int64 {
	if r.Action != ActionRewritten && r.Action != ActionMerged {
		return 0
	}
	return r.BytesBefore - r.BytesAfter
}

// Report aggregates a directory pass.
type Report struct {
	// Results holds one entry per container visited, in pass order
	// (merges first, then the compaction walk).
	Results []Result
}

// Counts tallies the report's outcomes by action.
func (r *Report) Counts() (rewritten, skipped, failed, merged int) {
	for _, res := range r.Results {
		switch res.Action {
		case ActionRewritten:
			rewritten++
		case ActionSkipped:
			skipped++
		case ActionFailed:
			failed++
		case ActionMerged:
			merged++
		}
	}
	return
}

// BytesReclaimed sums the realized byte wins.
func (r *Report) BytesReclaimed() int64 {
	var total int64
	for _, res := range r.Results {
		total += res.Gain()
	}
	return total
}

// CPUSeconds sums the per-container costs.
func (r *Report) CPUSeconds() float64 {
	var total float64
	for _, res := range r.Results {
		total += res.CPUSeconds
	}
	return total
}

// Counters is a snapshot of a Compactor's lifetime tallies — the
// numbers the query server's /metrics compaction section reports.
type Counters struct {
	// Scanned counts containers examined (opened and re-analyzed).
	Scanned int64
	// Rewritten, Skipped and Failed count Scanned's outcomes.
	Rewritten int64
	// Skipped counts containers whose win missed the threshold.
	Skipped int64
	// Failed counts containers kept on their old generation after a
	// read, encode or verification failure.
	Failed int64
	// Merged counts coalesced multi-column containers written.
	Merged int64
	// BytesReclaimed sums the realized byte wins.
	BytesReclaimed int64
	// CPUSeconds sums the wall-clock compaction cost.
	CPUSeconds float64
}

// Compactor rewrites containers toward the size the analyzer's search
// gives them.
// It is safe for concurrent use; the generation stamp and the
// counters are shared across all of its passes.
type Compactor struct {
	opt Options

	gen            atomic.Uint64
	scanned        atomic.Int64
	rewritten      atomic.Int64
	skipped        atomic.Int64
	failed         atomic.Int64
	merged         atomic.Int64
	bytesReclaimed atomic.Int64
	cpuNanos       atomic.Int64
}

// New builds a Compactor over opt.
func New(opt Options) *Compactor { return &Compactor{opt: opt} }

// Generation returns the stamp of the newest successful swap — 0
// before the first one.
func (c *Compactor) Generation() uint64 { return c.gen.Load() }

// Counters snapshots the compactor's lifetime tallies.
func (c *Compactor) Counters() Counters {
	return Counters{
		Scanned:        c.scanned.Load(),
		Rewritten:      c.rewritten.Load(),
		Skipped:        c.skipped.Load(),
		Failed:         c.failed.Load(),
		Merged:         c.merged.Load(),
		BytesReclaimed: c.bytesReclaimed.Load(),
		CPUSeconds:     float64(c.cpuNanos.Load()) / 1e9,
	}
}

// testMutateCandidate, when non-nil, replaces the candidate container
// bytes before the pre-swap verification — the test seam proving that
// a failed verification keeps the old generation untouched.
var testMutateCandidate func([]byte) []byte

// CompactFile re-analyzes one container and swaps in the smaller
// generation when the win clears the threshold. A container whose
// every block is certified under the current search (certified) is
// skipped from its index alone, with CandidateBytes equal to
// BytesBefore: the re-encode would rebuild it byte for byte. Its
// payloads are not read, so payload rot there is the scrubber's to
// find. Integrity failures — an unreadable block, a candidate that
// does not verify — come back as an ActionFailed Result with a nil
// error and leave the old generation byte-for-byte intact; only
// environmental failures (the file missing, the rename failing)
// return a non-nil error.
func (c *Compactor) CompactFile(path string) (res Result, err error) {
	start := time.Now()
	res = Result{Path: path}
	// Named result: the deferred stamp must reach the caller's copy.
	defer func() {
		res.CPUSeconds = time.Since(start).Seconds()
		c.cpuNanos.Add(time.Since(start).Nanoseconds())
	}()

	st, err := os.Stat(path)
	if err != nil {
		return res, err
	}
	res.BytesBefore, res.BytesAfter = st.Size(), st.Size()
	c.scanned.Add(1)

	fail := func(err error) (Result, error) {
		res.Action, res.Err = ActionFailed, err
		c.failed.Add(1)
		return res, nil
	}

	names, data, blockSizes, err := readContainer(path)
	if err != nil {
		if errors.Is(err, errTombstoned) {
			// A tombstoned container cannot be re-encoded — the lost
			// rows are not there to re-encode. It stays as-is until a
			// future repair (or operator action) retires it.
			res.Action = ActionSkipped
			return res, nil
		}
		if errors.Is(err, errCertified) {
			// The re-encode would rebuild these very bytes:
			// nothing to win, and nothing was read past the index to
			// know it.
			res.Action, res.CandidateBytes = ActionSkipped, res.BytesBefore
			c.skipped.Add(1)
			return res, nil
		}
		if blocked.IsPermanent(err) {
			// A container we cannot prove we preserved is never
			// rewritten; leave it for `lwc verify` to diagnose.
			return fail(err)
		}
		return res, err
	}

	// Re-analyze every block. The encode is deterministic, so a
	// container already at its best size yields an identical candidate
	// and skips below.
	cols := make([]storage.BlockedColumn, len(names))
	for i := range names {
		enc, err := blocked.Encode(data[i], blocked.EncodeOptions{
			BlockSize:   blockSizes[i],
			Parallelism: c.opt.Parallelism,
		})
		if err != nil {
			return fail(fmt.Errorf("re-encoding column %q: %w", names[i], err))
		}
		cols[i] = storage.BlockedColumn{Name: names[i], Col: enc}
	}
	var buf bytes.Buffer
	if err := storage.WriteContainerV3(&buf, cols); err != nil {
		return fail(fmt.Errorf("serializing candidate: %w", err))
	}
	res.CandidateBytes = int64(buf.Len())

	gain := res.BytesBefore - res.CandidateBytes
	if gain < c.opt.threshold(res.BytesBefore) {
		res.Action = ActionSkipped
		c.skipped.Add(1)
		return res, nil
	}

	candidate := buf.Bytes()
	if testMutateCandidate != nil {
		candidate = testMutateCandidate(candidate)
	}
	// `lwc verify` semantics plus value equality, before the swap:
	// every candidate block re-read through the CRC path, decoded,
	// stats re-derived against the index, and the decompressed values
	// compared against what the old generation held. Any mismatch
	// keeps the old generation.
	if err := verifyCandidate(candidate, names, data); err != nil {
		return fail(fmt.Errorf("candidate failed pre-swap verification: %w", err))
	}

	// The generation swap: temp + fsync + rename in the container's
	// directory. Readers holding the old generation's descriptor
	// finish on the retired inode; every open after the rename sees
	// the compacted generation.
	if err := storage.AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write(candidate)
		return err
	}); err != nil {
		return res, err
	}
	res.Action = ActionRewritten
	res.BytesAfter = res.CandidateBytes
	res.Generation = c.gen.Add(1)
	c.rewritten.Add(1)
	c.bytesReclaimed.Add(gain)
	return res, nil
}

// CompactDir merges (when enabled) and then compacts every *.lwc
// container under dir. Per-container integrity failures land in the
// report as ActionFailed results; a non-nil error means the pass
// itself could not proceed (directory unreadable, rename failed).
func (c *Compactor) CompactDir(dir string) (*Report, error) {
	rep := &Report{}
	if c.opt.MergeSmall {
		merged, err := c.MergeDir(dir)
		if err != nil {
			return rep, err
		}
		rep.Results = append(rep.Results, merged...)
	}
	paths, err := ListContainers(dir)
	if err != nil {
		return rep, err
	}
	for _, p := range paths {
		r, err := c.CompactFile(p)
		if err != nil {
			return rep, err
		}
		rep.Results = append(rep.Results, r)
	}
	return rep, nil
}

// ListContainers returns dir's *.lwc container paths, sorted.
func ListContainers(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".lwc") {
			continue
		}
		paths = append(paths, filepath.Join(dir, e.Name()))
	}
	sort.Strings(paths)
	return paths, nil
}

// errTombstoned marks containers carrying tombstoned blocks: their
// lost rows cannot be re-encoded, so compaction skips them rather
// than failing them.
var errTombstoned = errors.New("compact: container has tombstoned blocks")

// errCertified marks containers the re-encode would reproduce byte for
// byte (certified), so compaction skips them
// without reading a payload.
var errCertified = errors.New("compact: container is certified")

// readContainer decompresses every column of the container at path:
// the names, the raw values, and each column's encode-time block size
// (what a faithful re-encode must preserve). A container whose index
// alone settles its compaction is not decompressed: one with a
// tombstoned block fails with errTombstoned, and then a certified one
// with errCertified.
func readContainer(path string) (names []string, data [][]int64, blockSizes []int, err error) {
	cf, err := storage.OpenContainerFile(path, storage.OpenOptions{CacheBytes: -1})
	if err != nil {
		return nil, nil, nil, err
	}
	defer cf.Close()
	for _, bc := range cf.Columns() {
		for i := range bc.Col.Blocks {
			if bc.Col.Blocks[i].Tombstone {
				return nil, nil, nil, fmt.Errorf("column %q block %d: %w", bc.Name, i, errTombstoned)
			}
		}
	}
	if certified(cf.Columns()) {
		return nil, nil, nil, errCertified
	}
	for _, bc := range cf.Columns() {
		raw := make([]int64, bc.Col.N)
		if err := bc.Col.DecompressInto(raw); err != nil {
			return nil, nil, nil, fmt.Errorf("column %q: %w", bc.Name, err)
		}
		names = append(names, bc.Name)
		data = append(data, raw)
		blockSizes = append(blockSizes, bc.Col.BlockSize)
	}
	return names, data, blockSizes, nil
}

// certified reports, from the index alone, that the re-encode of cols
// is byte-identical to them: every column is tiled as the re-encode
// tiles it, and every block carries the current search fingerprint, so
// its form, stats and certificate are what the search writes for its
// values.
func certified(cols []storage.BlockedColumn) bool {
	fp := scheme.SearchFingerprint()
	for _, bc := range cols {
		if !bc.Col.EncodeTiled() {
			return false
		}
		for i := range bc.Col.Blocks {
			if bc.Col.Blocks[i].Certificate != fp {
				return false
			}
		}
	}
	return true
}

// verifyCandidate is the abort-before-swap gate over a candidate
// container held in memory: its columns must carry names and row
// counts as want does, and the verifier's walk (storage.VerifyContainer:
// every payload through the CRC path, decoded, its index stats
// re-derived) must pass with every block's values equal to want's. A
// candidate has no business declaring a block lost, so a tombstone
// fails it too. It returns the first failure; nothing it rejects ever
// reaches the filesystem.
func verifyCandidate(candidate []byte, names []string, want [][]int64) error {
	cf, err := storage.OpenContainer(bytes.NewReader(candidate), int64(len(candidate)),
		storage.OpenOptions{CacheBytes: -1})
	if err != nil {
		return err
	}
	defer cf.Close()
	cols := cf.Columns()
	if len(cols) != len(names) {
		return fmt.Errorf("%w: candidate has %d column(s), want %d", storage.ErrCorrupt, len(cols), len(names))
	}
	for ci, bc := range cols {
		if bc.Name != names[ci] {
			return fmt.Errorf("%w: candidate column %d is %q, want %q", storage.ErrCorrupt, ci, bc.Name, names[ci])
		}
		if bc.Col.N != len(want[ci]) {
			return fmt.Errorf("%w: candidate column %q holds %d row(s), want %d",
				storage.ErrCorrupt, bc.Name, bc.Col.N, len(want[ci]))
		}
	}
	rep := storage.VerifyContainer(cf, func(ci int, b *blocked.Block, vals []int64) error {
		ref := want[ci][b.Start:]
		for j, v := range vals {
			if v != ref[j] {
				return fmt.Errorf("%w: row %d decodes to %d, want %d", storage.ErrCorrupt, b.Start+int64(j), v, ref[j])
			}
		}
		return nil
	})
	if issues := append(rep.Issues, rep.Tombstones...); len(issues) > 0 {
		return fmt.Errorf("column %q block %d: %w", issues[0].Column, issues[0].Block, issues[0].Err)
	}
	return nil
}
