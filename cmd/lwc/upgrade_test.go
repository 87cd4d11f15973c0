package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lwcomp"
	"lwcomp/internal/storage"
	"lwcomp/internal/vec"
	"lwcomp/internal/workload"
)

// The containers under testdata/legacy were written by the v1 and v2
// writers (WriteContainer, WriteContainerV2) of commit 40f79d4, the
// last commit that had them. Every value in them comes from an
// internal/workload generator with seed 42, so the tests regenerate the
// expected values instead of reading a dump.
//
// v1.lwc holds one 256-row column for each scheme family the registry
// lists, named after the family and compressed with the expression
// beside it (lwcomp.ParseScheme syntax); the form's root is that
// family.
var legacyV1Columns = []struct {
	name, expr string
	vals       []int64
}{
	{"const", "const", workload.StepData(256, 256, 42)},
	{"delta", "delta(deltas=ns)", workload.Sorted(256, 1<<20, 42)},
	{"dict", "dict(codes=ns, dict=ns)", workload.LowCardinality(256, 8, 42)},
	{"elias", "elias", workload.SkewedMagnitude(256, 40, 42)},
	{"for", "for[64](offsets=ns, refs=ns)", workload.RandomWalk(256, 10, 1<<33, 42)},
	{"id", "id", workload.UniformBits(256, 16, 42)},
	{"linear", "linear[64](bases=ns, slopes=ns)", workload.TrendNoise(256, 8, 0, 42)},
	{"ns", "ns", workload.UniformBits(256, 16, 42)},
	{"patch", "pfor[64]", workload.OutlierWalk(256, 10, 0.02, 1<<38, 42)},
	{"plus", "linearns[64]", workload.TrendNoise(256, 8, 12, 42)},
	{"poly2", "poly2[64](c0=ns, c1=ns, c2=ns)", workload.TrendNoise(256, 8, 0, 42)},
	{"rle", "rle(lengths=ns, values=ns)", workload.Runs(256, 16, 1<<16, 42)},
	{"rpe", "rpe(positions=ns, values=ns)", workload.OrderShipDates(256, 16, 730120, 42)},
	{"step", "step[32](refs=ns)", workload.StepData(256, 32, 42)},
	{"varint", "varint", workload.RandomWalk(256, 10, 0, 42)},
	{"vns", "vns(widths=ns)", workload.SkewedMagnitude(256, 40, 42)},
}

// v2.lwc holds two 1024-row columns: "date", encoded by the analyzer
// with lwcomp.WithBlockSize(256) (four blocks, each with stats), and
// "amount", compressed whole with for[256](offsets=ns, refs=ns) and
// adopted as one block without stats.
var legacyV2Columns = []struct {
	name string
	vals []int64
}{
	{"date", workload.OrderShipDates(1024, 16, 730120, 42)},
	{"amount", workload.RandomWalk(1024, 10, 1<<20, 42)},
}

// legacyV2DateSum is what `lwc query -sum` prints on the upgraded v2
// fixture (its first column); CI's upgrade smoke checks the same figure.
const legacyV2DateSum = 747698865

// TestLegacyFixturesUpgrade runs both fixtures through `lwc upgrade`
// and checks the output: a v3 file that opens lazily, verifies clean,
// and decodes to the generators' values. A v1 column comes back as one
// block with stats; a v2 block keeps its stats and its form byte for
// byte. The fixtures themselves open nowhere else.
func TestLegacyFixturesUpgrade(t *testing.T) {
	dir := t.TempDir()
	type fixture struct {
		file  string
		names []string
		vals  [][]int64
	}
	v1, v2 := fixture{file: "v1.lwc"}, fixture{file: "v2.lwc"}
	for _, c := range legacyV1Columns {
		v1.names, v1.vals = append(v1.names, c.name), append(v1.vals, c.vals)
	}
	for _, c := range legacyV2Columns {
		v2.names, v2.vals = append(v2.names, c.name), append(v2.vals, c.vals)
	}
	for _, fx := range []fixture{v1, v2} {
		in := filepath.Join("..", "..", "testdata", "legacy", fx.file)
		out := filepath.Join(dir, "up-"+fx.file)

		// Every open path but upgrade turns the fixture away.
		if _, err := captureStdout(t, func() error { return cmdStat([]string{"-i", in}) }); err == nil ||
			!strings.Contains(err.Error(), "lwc upgrade") {
			t.Fatalf("stat %s: %v", fx.file, err)
		}
		raw, err := os.ReadFile(in)
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := storage.ReadLegacy(raw)
		if err != nil {
			t.Fatal(err)
		}

		if _, err := captureStdout(t, func() error { return cmdUpgrade([]string{"-i", in, "-o", out}) }); err != nil {
			t.Fatalf("upgrade %s: %v", fx.file, err)
		}
		if _, err := captureStdout(t, func() error { return cmdVerify([]string{"-i", out}) }); err != nil {
			t.Fatalf("verify of upgraded %s: %v", fx.file, err)
		}
		stat, err := captureStdout(t, func() error { return cmdStat([]string{"-i", out}) })
		if err != nil || !strings.Contains(stat, "lazy (v3)") {
			t.Fatalf("stat of upgraded %s: %v\n%s", fx.file, err, stat)
		}

		cf, err := lwcomp.OpenContainer(out)
		if err != nil {
			t.Fatal(err)
		}
		cols := cf.Columns()
		if len(cols) != len(fx.names) {
			t.Fatalf("%s: %d columns, want %d", fx.file, len(cols), len(fx.names))
		}
		for ci, c := range cols {
			if c.Name != fx.names[ci] || c.Col.Blocks[0].Form != nil {
				t.Fatalf("%s column %d: %q (resident %v)", fx.file, ci, c.Name, c.Col.Blocks[0].Form != nil)
			}
			got, err := c.Col.Decompress()
			if err != nil || !vec.Equal(got, fx.vals[ci]) {
				t.Fatalf("%s column %q: values differ (%v)", fx.file, c.Name, err)
			}
			for bi := range c.Col.Blocks {
				b, was := &c.Col.Blocks[bi], &legacy[ci].Col.Blocks[bi]
				if b.HasStats != was.HasStats || b.Min != was.Min || b.Max != was.Max || b.Certificate != 0 {
					t.Fatalf("%s column %q block %d: index %+v, legacy %+v", fx.file, c.Name, bi, b, was)
				}
				f, err := c.Col.BlockForm(bi)
				if err != nil {
					t.Fatal(err)
				}
				before, _ := storage.EncodeForm(was.Form)
				after, _ := storage.EncodeForm(f)
				if !bytes.Equal(before, after) {
					t.Fatalf("%s column %q block %d: form re-encodes differently", fx.file, c.Name, bi)
				}
			}
			if fx.file == "v1.lwc" {
				b := &c.Col.Blocks[0]
				lo, hi, _ := vec.MinMax(fx.vals[ci])
				if len(c.Col.Blocks) != 1 || !b.HasStats || b.Min != lo || b.Max != hi {
					t.Fatalf("v1 column %q upgraded as %+v", c.Name, c.Col.Blocks)
				}
				// The stored form has the shape its expression
				// compresses the generator's values to today.
				sc, err := lwcomp.ParseScheme(legacyV1Columns[ci].expr)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := sc.Compress(fx.vals[ci])
				if err != nil {
					t.Fatal(err)
				}
				stored := legacy[ci].Col.Blocks[0].Form
				if stored.Scheme != c.Name || stored.Describe() != fresh.Describe() {
					t.Fatalf("v1 column %q holds %s, its expression gives %s", c.Name, stored.Describe(), fresh.Describe())
				}
			}
		}
		cf.Close()
	}

	q, err := captureStdout(t, func() error {
		return cmdQuery([]string{"-i", filepath.Join(dir, "up-v2.lwc"), "-sum"})
	})
	var want int64
	for _, v := range legacyV2Columns[0].vals {
		want += v
	}
	if err != nil || want != legacyV2DateSum || !strings.Contains(q, fmt.Sprintf("sum = %d\n", want)) {
		t.Fatalf("query -sum on the upgraded v2 fixture: %v\n%s", err, q)
	}
}

// TestUpgradeRejectsNonLegacy: upgrade reads nothing but v1 and v2, and
// writes nothing when it refuses.
func TestUpgradeRejectsNonLegacy(t *testing.T) {
	dir := t.TempDir()
	v3 := filepath.Join(dir, "c.lwc")
	writeLwc(t, v3, []int64{1, 2, 3}, false)
	out := filepath.Join(dir, "out.lwc")
	err := cmdUpgrade([]string{"-i", v3, "-o", out})
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("upgrade of a v3 file: %v", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("a refused upgrade wrote %s (%v)", out, err)
	}
	if err := cmdUpgrade([]string{"-i", v3}); err == nil {
		t.Fatal("upgrade without -o accepted")
	}
}
