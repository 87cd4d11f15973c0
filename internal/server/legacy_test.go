package server

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lwcomp/internal/compact"
	"lwcomp/internal/scrub"
	"lwcomp/internal/workload"
)

// TestMaintenanceLeavesLegacyFilesAlone puts the checked-in v1 and v2
// containers beside a v3 one and runs every maintenance path over the
// directory: compaction file by file, compaction with merge grouping
// (the legacy files share a table name, so they form one merge group),
// salvage repair, and the daemon's mount. A legacy file is rejected as
// permanently unreadable everywhere, so nothing rewrites it; the v3
// file is handled as it is in a directory of its own.
func TestMaintenanceLeavesLegacyFilesAlone(t *testing.T) {
	dir, twin := t.TempDir(), t.TempDir()
	legacy := map[string][]byte{}
	for _, name := range []string{"v1", "v2"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "legacy", name+".lwc"))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "legacy."+name+".lwc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		legacy[path] = data
	}
	vals := workload.RandomWalk(4*testBlock, 10, 1<<20, 3)
	v3 := filepath.Join(dir, "orders.amount.lwc")
	writeCheapFile(t, v3, vals)
	writeCheapFile(t, filepath.Join(twin, "orders.amount.lwc"), vals)

	isUpgradeHint := func(msg string) bool { return strings.Contains(msg, "lwc upgrade") }
	untouched := func(stage string) {
		t.Helper()
		for path, want := range legacy {
			got, err := os.ReadFile(path)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s changed %s (%v)", stage, filepath.Base(path), err)
			}
		}
	}

	c := compact.New(compact.Options{MinGainBytes: -1})
	for path := range legacy {
		res, err := c.CompactFile(path)
		if err != nil || res.Action != compact.ActionFailed || !isUpgradeHint(res.Err.Error()) {
			t.Fatalf("CompactFile(%s) = %s (%v), %v", filepath.Base(path), res.Action, res.Err, err)
		}
	}
	untouched("CompactFile")

	// Repair runs before compaction rewrites the v3 file, so both
	// directories still hold the same v3 bytes.
	for _, d := range []string{dir, twin} {
		res, err := scrub.RepairFile(filepath.Join(d, "orders.amount.lwc"), scrub.RepairOptions{})
		if err != nil || res.Action != scrub.ActionClean {
			t.Fatalf("repair of the v3 file in %s: %+v, %v", d, res, err)
		}
	}
	for path := range legacy {
		res, err := scrub.RepairFile(path, scrub.RepairOptions{})
		if err != nil || res.Action != scrub.ActionUnrepairable || !isUpgradeHint(res.Err) {
			t.Fatalf("RepairFile(%s) = %+v, %v", filepath.Base(path), res, err)
		}
	}
	untouched("RepairFile")

	ms, err := mountDir(Config{Dir: twin}.withDefaults(), nil)
	if err != nil {
		t.Fatalf("mount of the v3 file alone: %v", err)
	}
	ms.closeTables()
	_, err = mountDir(Config{Dir: dir}.withDefaults(), nil)
	if err == nil || !isUpgradeHint(err.Error()) || !strings.Contains(err.Error(), filepath.Join(dir, "legacy.v")) {
		t.Fatalf("mount with legacy files = %v, want an error naming the file and lwc upgrade", err)
	}
	untouched("mountDir")

	merging := compact.New(compact.Options{MinGainBytes: -1, MergeSmall: true})
	rep, err := merging.CompactDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	twinRep, err := compact.New(compact.Options{MinGainBytes: -1, MergeSmall: true}).CompactDir(twin)
	if err != nil {
		t.Fatal(err)
	}
	var v3Action, twinAction compact.Action
	for _, res := range twinRep.Results {
		twinAction = res.Action
	}
	for _, res := range rep.Results {
		switch {
		case res.Path == v3:
			v3Action = res.Action
		case legacy[res.Path] != nil:
			if res.Action != compact.ActionFailed || !isUpgradeHint(res.Err.Error()) {
				t.Fatalf("merge pass on %s: %s (%v)", filepath.Base(res.Path), res.Action, res.Err)
			}
		default:
			t.Fatalf("merge pass produced %s: %s", res.Path, res.Action)
		}
	}
	if _, _, failed, merged := rep.Counts(); merged != 0 || failed != len(legacy) {
		t.Fatalf("merge pass: %d merged, %d failed", merged, failed)
	}
	if v3Action != compact.ActionRewritten || v3Action != twinAction {
		t.Fatalf("v3 file: %s beside legacy files, %s alone", v3Action, twinAction)
	}
	untouched("CompactDir with merge")
}
