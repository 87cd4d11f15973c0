package compact

import (
	"fmt"
	"os"
	"sort"

	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/storage"
)

// Estimate is one container's dry-run entry: what compaction would
// plausibly save, priced from block statistics and the per-scheme
// size estimators alone — no candidate is trial-compressed and
// nothing is written.
type Estimate struct {
	// Path is the container.
	Path string
	// FileBytes is the container's current size on disk.
	FileBytes int64
	// PayloadBytes is the current encoded size of every block payload
	// (the part a rewrite can shrink; the index overhead stays).
	PayloadBytes int64
	// EstPayloadBytes is the estimators' prediction of the payload
	// after re-analysis: per block, the smallest predicted size over
	// the full candidate space.
	EstPayloadBytes int64
}

// EstSavings is the predicted payload win, clamped at zero — an
// estimator can predict larger-than-current for a block the ingest
// search already nailed, and a rewrite would never realize a
// negative win.
func (e Estimate) EstSavings() int64 {
	if s := e.PayloadBytes - e.EstPayloadBytes; s > 0 {
		return s
	}
	return 0
}

// EstSavingsFraction is EstSavings over the current payload size.
func (e Estimate) EstSavingsFraction() float64 {
	if e.PayloadBytes == 0 {
		return 0
	}
	return float64(e.EstSavings()) / float64(e.PayloadBytes)
}

// EstimateFile prices one container's compaction win from statistics
// alone: every block is decompressed once, its one-pass BlockStats
// collected, and the candidate space's size estimators queried for
// the smallest prediction — the ranking half of the analyzer with the
// trial-compression half left out. A block certified under the
// current search is already the search's choice and is priced at
// its current payload, from the index alone.
func (c *Compactor) EstimateFile(path string) (Estimate, error) {
	est := Estimate{Path: path}
	st, err := os.Stat(path)
	if err != nil {
		return est, err
	}
	est.FileBytes = st.Size()

	cf, err := storage.OpenContainerFile(path, storage.OpenOptions{CacheBytes: -1})
	if err != nil {
		return est, err
	}
	defer cf.Close()

	s := core.GetScratch()
	defer s.Release()
	fp := scheme.SearchFingerprint()
	var buf []int64
	for ci, bc := range cf.Columns() {
		extents := cf.Extents(ci)
		for i := range bc.Col.Blocks {
			b := &bc.Col.Blocks[i]
			payload := extents[i].Bytes
			est.PayloadBytes += payload
			if b.Certificate == fp {
				est.EstPayloadBytes += payload
				continue
			}
			if cap(buf) < b.Count {
				buf = make([]int64, b.Count)
			}
			if err := bc.Col.DecompressBlock(i, buf[:b.Count]); err != nil {
				return est, fmt.Errorf("column %q block %d: %w", bc.Name, i, err)
			}
			est.EstPayloadBytes += int64(estimateBlockBits(buf[:b.Count], s)+7) / 8
		}
	}
	return est, nil
}

// estimateBlockBits returns the smallest predicted encoded size of
// one block over the default candidate space — EstimateSize per
// candidate on shared one-pass stats, never a trial compression.
func estimateBlockBits(src []int64, s *core.Scratch) uint64 {
	st := core.CollectStats(src, s)
	defer st.ReleaseSeg(s)
	best := uint64(len(src)) * 64 // worst case: the raw bits
	for _, cand := range scheme.DefaultCandidates(&st) {
		bits, _, ok := core.EstimateOf(cand, &st)
		if ok && bits < best {
			best = bits
		}
	}
	return best
}

// EstimateDir prices every container under dir and returns the
// entries sorted by predicted savings, largest first — the order a
// capped compaction budget should spend itself in.
func (c *Compactor) EstimateDir(dir string) ([]Estimate, error) {
	paths, err := ListContainers(dir)
	if err != nil {
		return nil, err
	}
	ests := make([]Estimate, 0, len(paths))
	for _, p := range paths {
		e, err := c.EstimateFile(p)
		if err != nil {
			return ests, err
		}
		ests = append(ests, e)
	}
	sort.SliceStable(ests, func(i, j int) bool { return ests[i].EstSavings() > ests[j].EstSavings() })
	return ests, nil
}
