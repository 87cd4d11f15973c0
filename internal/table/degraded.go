package table

import (
	"sort"
	"sync"

	"lwcomp/internal/blocked"
)

// This file is the graceful-degradation half of the table scan: a
// scan opted into degraded mode treats permanently unreadable blocks
// (bad CRC, quarantined, undecodable) as skipped instead of fatal,
// and records every omission — exactly which column, block, and row
// range — in a Manifest the caller (and the query server's response)
// can surface. Default scans keep today's fail-fast contract.

// SkippedBlock describes one block a degraded scan omitted.
type SkippedBlock struct {
	// Column names the column whose block was unreadable. It is empty
	// when the failure could not be pinned to a quarantined column
	// (an in-memory form failing to decode, for example).
	Column string `json:"column,omitempty"`
	// Block is the block index within the column.
	Block int `json:"block"`
	// RowStart and RowCount delimit the unreadable block's row range
	// [RowStart, RowStart+RowCount). Every row the scan omitted lies
	// inside it, and when the scan's columns share block boundaries it
	// is exactly the omitted range: those rows are absent from the
	// selection and from every projection and aggregate. When they do
	// not (see Table.Aligned) it is an upper bound — the scan drops only
	// the chunks that needed the block, and still answers the rows of
	// the range that another column's stats decided without it.
	RowStart int64 `json:"row_start"`
	// RowCount is the number of rows in the range.
	RowCount int `json:"row_count"`
	// Reason is the permanent error that condemned the block.
	Reason string `json:"reason"`
}

// Manifest is the exact record of what a degraded scan omitted. It is
// safe for concurrent use — parallel scan workers record into one
// manifest — and deduplicates by (column, block).
type Manifest struct {
	mu     sync.Mutex
	blocks []SkippedBlock
	seen   map[manifestKey]bool
}

type manifestKey struct {
	col string
	blk int
}

// add records one omission, ignoring duplicates of the same
// (column, block).
func (m *Manifest) add(sb SkippedBlock) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seen == nil {
		m.seen = make(map[manifestKey]bool)
	}
	k := manifestKey{col: sb.Column, blk: sb.Block}
	if m.seen[k] {
		return
	}
	m.seen[k] = true
	m.blocks = append(m.blocks, sb)
}

// Len returns the number of recorded omissions.
func (m *Manifest) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.blocks)
}

// Skipped returns the omissions sorted by (column, block) — a copy,
// safe to hold after the scan is released.
func (m *Manifest) Skipped() []SkippedBlock {
	m.mu.Lock()
	out := make([]SkippedBlock, len(m.blocks))
	copy(out, m.blocks)
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Column != out[j].Column {
			return out[i].Column < out[j].Column
		}
		return out[i].Block < out[j].Block
	})
	return out
}

// ScanOptions configures one scan's failure handling.
type ScanOptions struct {
	// Degraded makes the scan skip permanently unreadable blocks —
	// treating their rows as non-matching and recording each omission
	// in the scan's Manifest — instead of failing the whole query.
	// Transient I/O errors are still fatal (the retry layer below
	// handles those); only permanent integrity failures degrade.
	Degraded bool
}

// Tolerate is the driver's degraded-mode hook: a degraded scan drops
// chunk k, whose predicate evaluation failed permanently, and records
// why. The expression tree does not report which column's fetch
// failed, but the failing column quarantined its block on the way out
// — so the exact (column, block, row range) comes from asking every
// column the expression names for its quarantine verdict on the block
// holding the chunk. The fallback (no column quarantined — a resident
// in-memory form failed to decode) records the chunk with the raw error
// and no column attribution.
func (p *plan) Tolerate(k int, err error) bool {
	if p.man == nil {
		return false
	}
	found := false
	for _, ci := range columnsOf(p.t, p.e, nil) {
		c, bi, _ := p.blockOf(ci, k)
		if qerr, ok := c.QuarantineError(bi); ok {
			p.note(ci, bi, qerr)
			found = true
		}
	}
	if !found {
		start, count := p.Bounds(k)
		p.man.add(SkippedBlock{Block: k, RowStart: int64(start), RowCount: count, Reason: err.Error()})
	}
	return true
}

// skipColumn is the projection- and aggregation-side analogue, where
// the failing column is known directly: a degraded scan records block
// bi of column ci and carries on without its values (nil), anything
// else hands err back.
func (p *plan) skipColumn(ci, bi int, err error) error {
	if p.man == nil || !blocked.IsPermanent(err) {
		return err
	}
	p.note(ci, bi, err)
	return nil
}

// note records block bi of column ci, with its exact row range.
func (p *plan) note(ci, bi int, err error) {
	b := &p.t.cols[ci].Col.Blocks[bi]
	p.man.add(SkippedBlock{Column: p.t.cols[ci].Name, Block: bi,
		RowStart: b.Start, RowCount: b.Count, Reason: err.Error()})
}
