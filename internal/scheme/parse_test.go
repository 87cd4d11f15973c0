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
	if s.Name() != "patch[step[256]](base=for(offsets=ns, refs=ns))" {
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

// TestNegativeSegmentLengthsRefused: a segment (or block) length below
// 1 is refused where the scheme reads it — Compress errors before
// anything is sized from it, and no price is offered.
func TestNegativeSegmentLengthsRefused(t *testing.T) {
	src := []int64{5, 5, 5, 9, 9, 13, 13, 13, 13}
	st := core.CollectStats(src, nil)
	for _, name := range []string{FORName, StepName, LinearName, Poly2Name, VNSName,
		"pfor", "stepns", "linearns", "poly2ns", "plinearns"} {
		sc, err := ByName(name, -3, true)
		if err != nil {
			t.Fatalf("%s[-3]: %v", name, err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s[-3]: Compress panicked: %v", name, r)
				}
			}()
			if _, err := sc.Compress(src); err == nil {
				t.Errorf("%s[-3]: Compress accepted", name)
			}
		}()
		if bits, kind, ok := core.EstimateOf(sc, &st); ok {
			t.Errorf("%s[-3]: priced at %d bits (%v)", name, bits, kind)
		}
	}
}

// TestMisconfiguredCompositionsFail: an inner naming a column the
// outer never hands out, and a model combinator without a model, fail
// loudly rather than compressing something else.
func TestMisconfiguredCompositionsFail(t *testing.T) {
	src := []int64{1, 2, 3, 4}
	if _, err := core.Compose(NS{}, map[string]core.Scheme{"x": NS{}}).Compress(src); err == nil ||
		errors.Is(err, core.ErrNotRepresentable) {
		t.Errorf("ns(x=ns): err = %v, want a configuration error", err)
	}
	if _, err := core.Compose(Plus{Model: Step{}}, map[string]core.Scheme{"model": NS{}}).Compress(src); err == nil {
		t.Error("plus(model=ns): a column plus never hands out was silently ignored")
	}
	for _, sc := range []core.Scheme{Plus{}, Patch{}} {
		if _, err := sc.Compress(src); !errors.Is(err, core.ErrNotRepresentable) {
			t.Errorf("model-less %s: err = %v, want ErrNotRepresentable", sc.Name(), err)
		}
	}
}
