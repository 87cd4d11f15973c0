package blocked

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"lwcomp/internal/core"
)

// lazify strips the resident forms off an encoded column and serves
// them through src instead — the shape of a lazily opened container.
func lazify(t *testing.T, vals []int64, blockSize int, src func(orig *Column) BlockSource) *Column {
	t.Helper()
	orig, err := Encode(vals, EncodeOptions{BlockSize: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	lazy := &Column{N: orig.N, BlockSize: orig.BlockSize, Blocks: append([]Block(nil), orig.Blocks...)}
	for i := range lazy.Blocks {
		lazy.Blocks[i].Form = nil
	}
	lazy.Source = src(orig)
	return lazy
}

// pickySource serves forms from a resident column but fails chosen
// blocks, counting fetches per block.
type pickySource struct {
	orig    *Column
	fail    map[int]error
	fetches map[int]int
}

func (s *pickySource) BlockForm(i int) (*core.Form, Lease, error) {
	s.fetches[i]++
	if err, ok := s.fail[i]; ok {
		return nil, Lease{}, err
	}
	return s.orig.Blocks[i].Form, Lease{}, nil
}

func TestFaultQuarantinePermanentError(t *testing.T) {
	permErr := fmt.Errorf("decode: %w", core.ErrCorruptForm)
	var src *pickySource
	col := lazify(t, make([]int64, 256), 64, func(orig *Column) BlockSource {
		src = &pickySource{orig: orig, fail: map[int]error{2: permErr}, fetches: map[int]int{}}
		return src
	})

	// First touch: the source's error surfaces and the block is pinned.
	if _, err := col.BlockForm(2); !errors.Is(err, core.ErrCorruptForm) {
		t.Fatalf("first fetch: %v", err)
	}
	if n := col.QuarantineCount(); n != 1 {
		t.Fatalf("QuarantineCount = %d", n)
	}
	if got := col.QuarantinedBlocks(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("QuarantinedBlocks = %v", got)
	}
	// Second touch fails fast with ErrQuarantined — no re-read of bytes
	// known to be bad.
	if _, err := col.BlockForm(2); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("second fetch: %v, want ErrQuarantined", err)
	}
	if src.fetches[2] != 1 {
		t.Fatalf("block 2 fetched %d times after quarantine", src.fetches[2])
	}
	// Healthy blocks are untouched by the neighbor's quarantine.
	if _, err := col.BlockForm(1); err != nil {
		t.Fatalf("healthy block: %v", err)
	}
	if qerr, ok := col.QuarantineError(2); !ok || !errors.Is(qerr, core.ErrCorruptForm) {
		t.Fatalf("QuarantineError = %v, %v", qerr, ok)
	}
}

func TestFaultTransientErrorNotQuarantined(t *testing.T) {
	transient := errors.New("transient I/O error")
	var src *pickySource
	col := lazify(t, make([]int64, 128), 64, func(orig *Column) BlockSource {
		src = &pickySource{orig: orig, fail: map[int]error{0: transient}, fetches: map[int]int{}}
		return src
	})
	if _, err := col.BlockForm(0); !errors.Is(err, transient) {
		t.Fatalf("first fetch: %v", err)
	}
	if n := col.QuarantineCount(); n != 0 {
		t.Fatalf("transient error quarantined the block (count %d)", n)
	}
	// Once the fault clears, the block serves again.
	delete(src.fail, 0)
	if _, err := col.BlockForm(0); err != nil {
		t.Fatalf("fetch after fault cleared: %v", err)
	}
}

func TestIsPermanentClassification(t *testing.T) {
	cases := []struct {
		err  error
		perm bool
	}{
		{fmt.Errorf("wrap: %w", core.ErrCorruptForm), true},
		{fmt.Errorf("wrap: %w", core.ErrUnknownScheme), true},
		{fmt.Errorf("wrap: %w", ErrQuarantined), true},
		{errors.New("connection reset"), false},
		{nil, false},
	}
	for _, c := range cases {
		if got := IsPermanent(c.err); got != c.perm {
			t.Errorf("IsPermanent(%v) = %v, want %v", c.err, got, c.perm)
		}
	}
}

func TestFaultParallelForRecoversPanic(t *testing.T) {
	before := RecoveredPanics()
	err := ParallelFor(4, 32, func(i int) error {
		if i == 17 {
			panic("worker crash")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic did not surface as an error")
	}
	if !strings.Contains(err.Error(), "panic in parallel worker on index 17") {
		t.Fatalf("error %q does not name the panicking index", err)
	}
	if RecoveredPanics() <= before {
		t.Fatal("RecoveredPanics did not increment")
	}
	// The pool is healthy afterwards: a clean run still works.
	if err := ParallelFor(4, 32, func(i int) error { return nil }); err != nil {
		t.Fatalf("ParallelFor after recovered panic: %v", err)
	}
}
