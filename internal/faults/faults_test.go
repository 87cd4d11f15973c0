package faults

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"lwcomp/internal/blocked"
	"lwcomp/internal/core"
)

// readPattern reads the same offset sequence through a wrapper and
// records which attempts failed.
func readPattern(t *testing.T, f *ReaderAt, offsets []int64, attempts int) []bool {
	t.Helper()
	var fails []bool
	buf := make([]byte, 4)
	for _, off := range offsets {
		for a := 0; a < attempts; a++ {
			_, err := f.ReadAt(buf, off)
			fails = append(fails, err != nil)
		}
	}
	return fails
}

func TestFaultReaderDeterministic(t *testing.T) {
	data := bytes.Repeat([]byte{0xAB}, 4096)
	offsets := make([]int64, 64)
	for i := range offsets {
		offsets[i] = int64(i * 61)
	}
	cfg := Config{Seed: 7, TransientProb: 0.25, MaxConsecutive: 2}
	a := NewReaderAt(bytes.NewReader(data), cfg)
	b := NewReaderAt(bytes.NewReader(data), cfg)
	pa := readPattern(t, a, offsets, 3)
	pb := readPattern(t, b, offsets, 3)
	if len(pa) != len(pb) {
		t.Fatalf("pattern lengths differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("attempt %d: wrapper a failed=%v, wrapper b failed=%v", i, pa[i], pb[i])
		}
	}
	if a.InjectedTransient() == 0 {
		t.Fatal("TransientProb 0.25 over 64 offsets injected nothing")
	}
	if a.InjectedTransient() != b.InjectedTransient() {
		t.Fatalf("injected counts differ: %d vs %d", a.InjectedTransient(), b.InjectedTransient())
	}
}

func TestFaultReaderBoundedConsecutive(t *testing.T) {
	data := []byte("0123456789abcdef")
	f := NewReaderAt(bytes.NewReader(data), Config{Seed: 1, TransientProb: 1, MaxConsecutive: 3})
	buf := make([]byte, 4)
	for a := 1; a <= 3; a++ {
		if _, err := f.ReadAt(buf, 0); !errors.Is(err, ErrInjected) {
			t.Fatalf("attempt %d: want ErrInjected, got %v", a, err)
		}
	}
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("attempt 4 (past MaxConsecutive): %v", err)
	}
	if string(buf) != "0123" {
		t.Fatalf("read %q after injection window", buf)
	}
}

func TestFaultReaderBitFlip(t *testing.T) {
	data := []byte{0x10, 0x20, 0x30, 0x40}
	f := NewReaderAt(bytes.NewReader(data), Config{FlipOffsets: []int64{2}})
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if buf[2] != 0x31 {
		t.Fatalf("offset 2 read as %#x, want low bit flipped (0x31)", buf[2])
	}
	if buf[0] != 0x10 || buf[1] != 0x20 || buf[3] != 0x40 {
		t.Fatalf("untargeted bytes changed: % x", buf)
	}
	// A read not covering the offset is untouched.
	if _, err := f.ReadAt(buf[:2], 0); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x10 || buf[1] != 0x20 {
		t.Fatalf("short read corrupted: % x", buf[:2])
	}
	if f.FlippedBits() != 1 {
		t.Fatalf("FlippedBits = %d, want 1", f.FlippedBits())
	}
}

func TestFaultWrapScrapesLastWrapper(t *testing.T) {
	wrap, last := Wrap(Config{Seed: 3, TransientProb: 1, MaxConsecutive: 1})
	if last() != nil {
		t.Fatal("last() non-nil before any wrap")
	}
	r := wrap(bytes.NewReader([]byte{1, 2, 3, 4})).(*ReaderAt)
	if last() != r {
		t.Fatal("last() does not return the wrapper just built")
	}
	buf := make([]byte, 1)
	r.ReadAt(buf, 0)
	if last().InjectedTransient() != 1 {
		t.Fatalf("scraped injected count = %d, want 1", last().InjectedTransient())
	}
}

// residentSource serves the forms of an already-encoded column.
type residentSource struct{ col *blocked.Column }

func (s residentSource) BlockForm(i int) (*core.Form, blocked.Lease, error) {
	return s.col.Blocks[i].Form, blocked.Lease{}, nil
}

func TestFaultBlockSource(t *testing.T) {
	vals := make([]int64, 256)
	for i := range vals {
		vals[i] = int64(i % 7)
	}
	col, err := blocked.Encode(vals, blocked.EncodeOptions{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	failErr := errors.New("boom")
	bs := NewBlockSource(residentSource{col}, map[int]error{1: failErr}, map[int]bool{2: true})
	if _, _, err := bs.BlockForm(0); err != nil {
		t.Fatalf("block 0 should pass through: %v", err)
	}
	if _, _, err := bs.BlockForm(1); !errors.Is(err, failErr) {
		t.Fatalf("block 1: want injected error, got %v", err)
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("block 2 fetch did not panic")
			}
			if !strings.Contains(r.(string), "injected panic") {
				t.Fatalf("unexpected panic payload %v", r)
			}
		}()
		bs.BlockForm(2)
	}()
	if _, ok := bs.Restore().(residentSource); !ok {
		t.Fatal("Restore did not return the wrapped source")
	}
	if err := bs.Close(); err != nil {
		t.Fatalf("Close on non-closer inner: %v", err)
	}
	var _ io.Closer = bs
}

func TestFaultReaderFlipMaxReads(t *testing.T) {
	data := []byte{0x10, 0x20, 0x30, 0x40}
	f := NewReaderAt(bytes.NewReader(data), Config{FlipOffsets: []int64{2}, FlipMaxReads: 2})
	buf := make([]byte, 4)
	// The first FlipMaxReads views of the offset lie...
	for i := 0; i < 2; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if buf[2] != 0x31 {
			t.Fatalf("read %d: offset 2 read as %#x, want flipped (0x31)", i+1, buf[2])
		}
	}
	// ...then the true bytes come back, modeling transient path
	// corruption over a healthy disk.
	for i := 0; i < 3; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if buf[2] != 0x30 {
			t.Fatalf("post-budget read %d: offset 2 read as %#x, want clean (0x30)", i+1, buf[2])
		}
	}
	if f.FlippedBits() != 2 {
		t.Fatalf("FlippedBits = %d, want 2", f.FlippedBits())
	}
	// A read that never covers the offset spends no budget.
	g := NewReaderAt(bytes.NewReader(data), Config{FlipOffsets: []int64{2}, FlipMaxReads: 1})
	if _, err := g.ReadAt(buf[:2], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if buf[2] != 0x31 {
		t.Fatalf("budget spent by a non-covering read: %#x", buf[2])
	}
}
