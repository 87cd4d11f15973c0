package server

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"lwcomp"
	"lwcomp/internal/storage"
)

// mountedTable is one served table: the scan handle, the containers
// behind it (for per-table cache stats), and the catalog facts the
// /tables handler reports without decoding anything.
type mountedTable struct {
	name       string
	tbl        *lwcomp.Table
	files      []string
	containers []*lwcomp.Container
}

// cacheStats sums the table's containers' hits and misses — one
// container per column under the `<table>.<column>.lwc` convention,
// so the sum is the table's own traffic even under a shared budget.
func (mt *mountedTable) cacheStats() lwcomp.CacheStats {
	var total lwcomp.CacheStats
	for _, cf := range mt.containers {
		st := cf.CacheStats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		// Evictions, decodes, reused slabs and bytes are pooled across
		// the whole shared cache; report them once rather than a
		// per-table sum that counts the pool once per container.
		total.Evictions = st.Evictions
		total.Decodes = st.Decodes
		total.Reused = st.Reused
		total.BytesUsed = st.BytesUsed
		total.BytesBudget = st.BytesBudget
	}
	return total
}

// mountSet is one immutable generation of mounted tables plus the
// drain machinery a reload needs: queries hold a reference for their
// whole lifetime, and a retired set closes its containers when the
// last reference drops — never under a running scan.
type mountSet struct {
	tables map[string]*mountedTable
	names  []string

	mu        sync.Mutex
	refs      int
	retired   bool
	onDrained func()
}

// newMountSet wraps tables (which may be nil/empty) as a set.
func newMountSet(tables map[string]*mountedTable) *mountSet {
	ms := &mountSet{tables: tables}
	if ms.tables == nil {
		ms.tables = map[string]*mountedTable{}
	}
	for name := range ms.tables {
		ms.names = append(ms.names, name)
	}
	sort.Strings(ms.names)
	return ms
}

// acquire takes a reference for one query.
func (ms *mountSet) acquire() {
	ms.mu.Lock()
	ms.refs++
	ms.mu.Unlock()
}

// release drops a query's reference, closing the set's containers if
// it was retired and this was the last one.
func (ms *mountSet) release() {
	ms.mu.Lock()
	ms.refs--
	closeNow := ms.retired && ms.refs == 0
	ms.mu.Unlock()
	if closeNow {
		ms.closeTables()
	}
}

// retire marks the set replaced; it closes immediately when idle,
// otherwise when the last in-flight query releases. onDrained, when
// non-nil, runs once after the containers close — the server's
// readiness gauge hangs off it.
func (ms *mountSet) retire(onDrained func()) {
	ms.mu.Lock()
	ms.retired = true
	ms.onDrained = onDrained
	closeNow := ms.refs == 0
	ms.mu.Unlock()
	if closeNow {
		ms.closeTables()
	}
}

// closeTables closes every table (each closes its containers exactly
// once — the Table.Close contract), then fires the drain callback.
func (ms *mountSet) closeTables() {
	for _, mt := range ms.tables {
		mt.tbl.Close()
	}
	if ms.onDrained != nil {
		ms.onDrained()
	}
}

// mountFile is one *.lwc file assigned to a table: the path and the
// column name the filename dictates ("" when the container's own
// column names apply).
type mountFile struct {
	path   string
	column string
}

// mountDir opens every *.lwc container under cfg.Dir and groups them
// into tables: `<table>.<column>.lwc` contributes that one column,
// `<table>.lwc` contributes all of the container's columns. The whole
// mount fails on the first unopenable file or inconsistent table
// (mismatched row counts, duplicate columns), so a reload never
// half-serves a directory.
func mountDir(cfg Config, cache *lwcomp.SharedBlockCache) (*mountSet, error) {
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	groups := map[string][]mountFile{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".lwc") {
			continue
		}
		base := strings.TrimSuffix(e.Name(), ".lwc")
		tbl, col := base, ""
		if i := strings.LastIndexByte(base, '.'); i > 0 && i < len(base)-1 {
			tbl, col = base[:i], base[i+1:]
		}
		groups[tbl] = append(groups[tbl], mountFile{path: filepath.Join(cfg.Dir, e.Name()), column: col})
	}

	tables := map[string]*mountedTable{}
	fail := func(err error) (*mountSet, error) {
		for _, mt := range tables {
			mt.tbl.Close()
		}
		return nil, err
	}
	for name, files := range groups {
		sort.Slice(files, func(i, j int) bool { return files[i].path < files[j].path })
		mt, err := mountTable(cfg, cache, name, files)
		if err != nil {
			return fail(err)
		}
		tables[name] = mt
	}
	return newMountSet(tables), nil
}

// mountTable opens one table's files and builds its scan handle.
func mountTable(cfg Config, cache *lwcomp.SharedBlockCache, name string, files []mountFile) (*mountedTable, error) {
	mt := &mountedTable{name: name}
	var cols []lwcomp.NamedColumn
	var closers []io.Closer
	cleanup := func(err error) (*mountedTable, error) {
		for _, c := range closers {
			c.Close()
		}
		return nil, err
	}
	for _, f := range files {
		// Open through the storage layer directly: the retry policy and
		// the fault-injection reader hook are serving-infrastructure
		// knobs, not public API options. A container joins the shared
		// cache or, with none (a negative Config.CacheBytes), caches
		// nothing: it never opens a cache of its own.
		cf, err := storage.OpenContainerFile(f.path, storage.OpenOptions{
			CacheBytes: -1,
			Shared:     cache,
			Retry:      cfg.retryPolicy(),
			WrapReader: cfg.FaultInjection,
		})
		if err != nil {
			return cleanup(fmt.Errorf("mount %s: %w", f.path, err))
		}
		if cfg.Parallelism > 0 {
			for _, c := range cf.Columns() {
				c.Col.Parallelism = cfg.Parallelism
			}
		}
		closers = append(closers, cf)
		mt.containers = append(mt.containers, cf)
		mt.files = append(mt.files, filepath.Base(f.path))
		if f.column == "" {
			cols = append(cols, cf.Columns()...)
			continue
		}
		if got := len(cf.Columns()); got != 1 {
			return cleanup(fmt.Errorf("mount %s: a <table>.<column>.lwc file must hold exactly one column, found %d", f.path, got))
		}
		// The filename is the column's served name; the container's
		// internal name is an encode-time artifact.
		cols = append(cols, lwcomp.NamedColumn{Name: f.column, Col: cf.Columns()[0].Col})
	}
	tbl, err := lwcomp.NewTableWithClosers(cols, closers...)
	if err != nil {
		return cleanup(fmt.Errorf("mount table %q: %w", name, err))
	}
	mt.tbl = tbl
	return mt, nil
}
