package compact

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lwcomp/internal/storage"
)

// mergeGroup is one table's merge-eligible part files.
type mergeGroup struct {
	table string
	parts []mergePart
}

// mergePart is one `<table>.<column>.lwc` source container.
type mergePart struct {
	path   string
	column string
	bytes  int64
}

// MergeDir coalesces directories of many tiny same-table
// single-column containers into one multi-column container per table:
// every group of two or more `<table>.<column>.lwc` files under the
// small-container bound becomes `<table>.lwc`, columns named by their
// filenames (the name the query server would serve them under),
// written atomically and verified before the parts are removed.
// Groups that are not cleanly mergeable — a `<table>.lwc` already
// present, parts too large, mismatched row counts, a part holding
// more than one column — are left untouched rather than failed.
func (c *Compactor) MergeDir(dir string) ([]Result, error) {
	groups, err := mergeGroups(dir)
	if err != nil {
		return nil, err
	}
	var results []Result
	for _, g := range groups {
		res, err := c.mergeGroup(dir, g)
		if err != nil {
			return results, err
		}
		if res != nil {
			results = append(results, *res)
		}
	}
	return results, nil
}

// mergeGroups finds the merge-eligible groups under dir: per-column
// files grouped by table, at least two to a group, each under the
// small-container bound, and no `<table>.lwc` already claiming the
// merged name.
func mergeGroups(dir string) ([]mergeGroup, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	byTable := map[string][]mergePart{}
	whole := map[string]bool{}
	oversized := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".lwc") {
			continue
		}
		base := strings.TrimSuffix(e.Name(), ".lwc")
		i := strings.LastIndexByte(base, '.')
		if i <= 0 || i >= len(base)-1 {
			// `<table>.lwc`: this table's merged name is taken.
			whole[base] = true
			continue
		}
		tbl, col := base[:i], base[i+1:]
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		if info.Size() >= DefaultSmallBytes {
			// One big part disqualifies the table: merging the small
			// siblings would orphan the naming convention mid-table.
			oversized[tbl] = true
			continue
		}
		byTable[tbl] = append(byTable[tbl], mergePart{
			path:   filepath.Join(dir, e.Name()),
			column: col,
			bytes:  info.Size(),
		})
	}
	var groups []mergeGroup
	for tbl, parts := range byTable {
		if len(parts) < 2 || whole[tbl] || oversized[tbl] {
			continue
		}
		sort.Slice(parts, func(i, j int) bool { return parts[i].path < parts[j].path })
		groups = append(groups, mergeGroup{table: tbl, parts: parts})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].table < groups[j].table })
	return groups, nil
}

// mergeGroup coalesces one table's parts. A nil, nil return means the
// group turned out ineligible on inspection (mismatched row counts, a
// multi-column part) and was left untouched.
func (c *Compactor) mergeGroup(dir string, g mergeGroup) (*Result, error) {
	start := time.Now()
	outPath := filepath.Join(dir, g.table+".lwc")
	res := &Result{Path: outPath, Action: ActionMerged}

	// Read every part eagerly: the merged container needs resident
	// forms, and the parts are small by construction.
	var cols []storage.BlockedColumn
	var names []string
	var data [][]int64
	rows := -1
	for _, p := range g.parts {
		res.BytesBefore += p.bytes
		res.MergedFrom = append(res.MergedFrom, p.path)
		pcols, err := readEager(p.path)
		if err != nil {
			// An unreadable or torn part makes the whole group
			// untouchable; compaction proper will surface the failure.
			return nil, nil
		}
		if len(pcols) != 1 {
			return nil, nil
		}
		col := pcols[0].Col
		if rows >= 0 && col.N != rows {
			return nil, nil
		}
		rows = col.N
		raw, err := col.Decompress()
		if err != nil {
			return nil, nil
		}
		// The filename dictates the served column name — the same
		// "filename wins" rule the server's mount applies — so the
		// merged container keeps serving identical table shapes.
		cols = append(cols, storage.BlockedColumn{Name: p.column, Col: col})
		names = append(names, p.column)
		data = append(data, raw)
	}

	var buf bytes.Buffer
	if err := storage.WriteContainerV3(&buf, cols); err != nil {
		return nil, fmt.Errorf("merging table %q: %w", g.table, err)
	}
	if err := verifyCandidate(buf.Bytes(), names, data); err != nil {
		return nil, fmt.Errorf("merged candidate for table %q failed verification: %w", g.table, err)
	}
	if err := storage.AtomicWriteFile(outPath, func(w io.Writer) error {
		_, err := w.Write(buf.Bytes())
		return err
	}); err != nil {
		return nil, err
	}
	res.BytesAfter = int64(buf.Len())
	res.CandidateBytes = res.BytesAfter
	res.Generation = c.gen.Add(1)
	// The merged generation is durable; now the parts can go. A
	// reader mid-scan on a part finishes on its still-open descriptor
	// (the inode lives until the last close); new opens of the
	// directory see one container where many were.
	for _, p := range g.parts {
		if err := os.Remove(p.path); err != nil {
			return res, err
		}
	}
	res.CPUSeconds = time.Since(start).Seconds()
	c.merged.Add(1)
	c.cpuNanos.Add(time.Since(start).Nanoseconds())
	if gain := res.Gain(); gain > 0 {
		c.bytesReclaimed.Add(gain)
	}
	return res, nil
}

// readEager reads a container with resident forms — what a rewrite
// that reuses the existing encodings needs.
func readEager(path string) ([]storage.BlockedColumn, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return storage.LoadContainer(f)
}
