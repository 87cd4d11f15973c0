package scheme

import (
	"errors"
	"testing"

	"lwcomp/internal/core"
	"lwcomp/internal/vec"
)

func TestParseRoundTripsDescribe(t *testing.T) {
	exprs := []string{
		"ns",
		"varint",
		"rle(lengths=ns, values=ns)",
		"rle(lengths=ns, values=delta(deltas=ns))",
		"rle(lengths=ns, values=delta(deltas=vns[32]))",
		"for[128](offsets=ns, refs=ns)",
		"rpe(positions=ns, values=ns)",
		"dict(codes=ns, dict=ns)",
		// An outer that cannot hand out its parts: the composite
		// compresses with it, then rewrites the named child.
		"vns[4](widths=ns)",
	}
	src := []int64{5, 5, 5, 9, 9, 13, 13, 13, 13}
	for _, expr := range exprs {
		s, err := Parse(expr)
		if err != nil {
			t.Fatalf("%q: %v", expr, err)
		}
		f, err := s.Compress(src)
		if err != nil {
			t.Fatalf("%q: compress: %v", expr, err)
		}
		got, err := core.Decompress(f)
		if err != nil || !vec.Equal(got, src) {
			t.Fatalf("%q: roundtrip: %v", expr, err)
		}
		// Describe of the produced form must re-parse to an
		// equivalent compressor.
		reparsed, err := Parse(f.Describe())
		if err != nil {
			t.Fatalf("re-parse %q: %v", f.Describe(), err)
		}
		f2, err := reparsed.Compress(src)
		if err != nil {
			t.Fatalf("re-parsed compress: %v", err)
		}
		if f2.Describe() != f.Describe() {
			t.Fatalf("describe drift: %q vs %q", f.Describe(), f2.Describe())
		}
	}
}

func TestParseArgs(t *testing.T) {
	s, err := Parse("for[64]")
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.Compress(make([]int64, 200))
	if err != nil {
		t.Fatal(err)
	}
	if f.Params["seglen"] != 64 {
		t.Fatalf("seglen = %d", f.Params["seglen"])
	}
	s, err = Parse("pfor[256]")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "patch(for[256]+ns)" {
		t.Fatalf("pfor name = %q", s.Name())
	}
	if _, err := Parse("stepns[128]"); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse("linearns[128]"); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"nope",
		"rle(",
		"rle(lengths=ns",
		"rle(lengths=ns,)",
		"rle(lengths)",
		"rle(lengths=ns) trailing",
		"for[abc]",
		"for[12",
		"plus",
		"patch",
		"rle(values=ns, values=ns)",
	}
	for _, expr := range cases {
		if _, err := Parse(expr); err == nil {
			t.Errorf("Parse(%q) accepted", expr)
		}
	}
	if _, err := Parse("unknown-scheme"); !errors.Is(err, core.ErrUnknownScheme) {
		t.Fatalf("unknown err = %v", err)
	}
}
