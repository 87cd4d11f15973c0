package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"lwcomp/internal/core"
	_ "lwcomp/internal/scheme" // register schemes
	"lwcomp/internal/vec"
	"lwcomp/internal/workload"
)

// readFixture returns one of the checked-in legacy containers. Their
// provenance — generators, seeds, schemes and the writers that
// produced them — is pinned by cmd/lwc/upgrade_test.go.
func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "legacy", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestContainerV2RoundTrip(t *testing.T) {
	got, err := ReadLegacy(readFixture(t, "v2.lwc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "date" || got[1].Name != "amount" {
		t.Fatalf("columns = %+v", got)
	}
	wants := [][]int64{
		workload.OrderShipDates(1024, 16, 730120, 42),
		workload.RandomWalk(1024, 10, 1<<20, 42),
	}
	for i, want := range wants {
		if err := got[i].Col.Validate(); err != nil {
			t.Fatal(err)
		}
		back, err := got[i].Col.Decompress()
		if err != nil || !vec.Equal(back, want) {
			t.Fatalf("column %q: values differ (%v)", got[i].Name, err)
		}
	}
	// The stored block index survives: four blocks of 256 with stats,
	// then one unpartitioned block without.
	date, amount := got[0].Col, got[1].Col
	if date.BlockSize != 256 || date.NumBlocks() != 4 || amount.BlockSize != 0 || amount.NumBlocks() != 1 {
		t.Fatalf("block layout: %d x %d, %d x %d", date.NumBlocks(), date.BlockSize, amount.NumBlocks(), amount.BlockSize)
	}
	for i := range date.Blocks {
		b := &date.Blocks[i]
		if _, _, err := checkStats(b, wants[0][b.Start:b.Start+int64(b.Count)]); err != nil || !b.HasStats {
			t.Fatalf("date block %d stats: %+v (%v)", i, b, err)
		}
	}
	if amount.Blocks[0].HasStats {
		t.Fatal("the no-stats column gained stats")
	}
}

func TestReadLegacyDispatch(t *testing.T) {
	v1, err := ReadLegacy(readFixture(t, "v1.lwc"))
	if err != nil {
		t.Fatal(err)
	}
	// A v1 column is adopted as one block with stats.
	for _, c := range v1 {
		if c.Col.NumBlocks() != 1 || c.Col.BlockSize != 0 || !c.Col.Blocks[0].HasStats {
			t.Fatalf("v1 column %q adopted as %+v", c.Name, c.Col.Blocks)
		}
	}
	v2, err := ReadLegacy(readFixture(t, "v2.lwc"))
	if err != nil || len(v2) != 2 {
		t.Fatalf("v2: %d columns, %v", len(v2), err)
	}

	// Any other magic — a v3 container included — is not legacy.
	col, _ := encodeBlockedV3(t, 300, 100)
	var v3 bytes.Buffer
	if err := WriteContainerV3(&v3, []BlockedColumn{{Name: "c", Col: col}}); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{v3.Bytes(), []byte("XXXX000000"), []byte("LW"), nil} {
		if _, err := ReadLegacy(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadLegacy(%.8q) = %v, want ErrCorrupt", data, err)
		}
	}
}

func TestContainerV2RejectsCorruption(t *testing.T) {
	blob := readFixture(t, "v2.lwc")

	// CRC catches body flips.
	mut := append([]byte{}, blob...)
	mut[len(mut)/2] ^= 0x40
	if _, err := ReadLegacy(mut); !errors.Is(err, ErrChecksum) {
		t.Fatalf("body flip: err = %v", err)
	}
	// Truncations are structural errors.
	for _, k := range []int{0, 4, 9, len(blob) - 1} {
		if _, err := ReadLegacy(blob[:k]); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrChecksum) {
			t.Fatalf("truncation to %d: err = %v", k, err)
		}
	}
	// Wrong magic.
	mut = append([]byte{}, blob...)
	mut[3] = '9'
	if _, err := ReadLegacy(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v", err)
	}
}

func TestContainerRoundTrip(t *testing.T) {
	cols, err := ReadLegacy(readFixture(t, "v1.lwc"))
	if err != nil {
		t.Fatal(err)
	}
	// One column per registered scheme family, named after it, whose
	// form's root is that family.
	if len(cols) != len(core.Schemes()) {
		t.Fatalf("%d columns, want %d", len(cols), len(core.Schemes()))
	}
	for i, name := range core.Schemes() {
		c := cols[i]
		if c.Name != name || c.Col.Blocks[0].Form.Scheme != name {
			t.Fatalf("column %d: %q holds a %q form, want %q", i, c.Name, c.Col.Blocks[0].Form.Scheme, name)
		}
		vals, err := c.Col.Decompress()
		if err != nil || len(vals) != 256 {
			t.Fatalf("column %q: %d values, %v", c.Name, len(vals), err)
		}
		if _, _, err := checkStats(&c.Col.Blocks[0], vals); err != nil {
			t.Fatalf("column %q: %v", c.Name, err)
		}
	}
}

func TestContainerChecksumDetected(t *testing.T) {
	data := readFixture(t, "v1.lwc")
	data[len(data)/2] ^= 0xFF
	if _, err := ReadLegacy(data); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted container err = %v", err)
	}
}

func TestContainerBadMagicAndTruncation(t *testing.T) {
	for _, data := range [][]byte{[]byte("XXXX000000"), []byte("LW"), []byte("LWC1\x01\x00")} {
		if _, err := ReadLegacy(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadLegacy(%q) err = %v", data, err)
		}
		if _, err := LoadContainer(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("LoadContainer(%q) err = %v", data, err)
		}
	}
}
