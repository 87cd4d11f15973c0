package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"lwcomp/internal/exec"
)

// mockRaw is a registry-independent stand-in for the ID scheme, under
// a test-unique name so core tests do not depend on package scheme.
type mockRaw struct{ name string }

func (m mockRaw) Name() string { return m.name }

func (m mockRaw) Compress(src []int64) (*Form, error) {
	leaf := append([]int64{}, src...)
	return &Form{Scheme: m.name, N: len(src), Leaf: leaf}, nil
}

func (m mockRaw) DecompressInto(f *Form, dst []int64, _ *Scratch) error {
	copy(dst, f.Leaf)
	return nil
}

// mockDouble halves on compress, doubles on decompress, handing the
// halves out as a constituent column named "halves".
type mockDouble struct{ name string }

func (m mockDouble) Name() string { return m.name }

func (m mockDouble) Compress(src []int64) (*Form, error) { return CompressPooled(m, src) }

func (m mockDouble) CompressParts(src []int64, s *Scratch, emit func(string, []int64) (*Form, error)) (*Form, error) {
	halves := s.I64(len(src))
	defer s.PutI64(halves)
	for i, v := range src {
		if v%2 != 0 {
			return nil, fmt.Errorf("%w: odd value %d", ErrNotRepresentable, v)
		}
		halves[i] = v / 2
	}
	h, err := emit("halves", halves)
	if err != nil {
		return nil, err
	}
	return &Form{Scheme: m.name, N: len(src), Children: map[string]*Form{"halves": h}}, nil
}

func (m mockDouble) DecompressInto(f *Form, dst []int64, s *Scratch) error {
	if err := DecompressChildInto(f, "halves", dst, s); err != nil {
		return err
	}
	for i, v := range dst {
		dst[i] = v * 2
	}
	return nil
}

func (m mockDouble) Plan(f *Form) (*exec.Plan, error) {
	b := exec.NewBuilder()
	h := b.Input("halves")
	two := b.ConstScalar(2)
	b.ElementwiseScalar(2 /* Mul */, h, two)
	return b.Build()
}

func init() {
	Register(mockRaw{"raw-mock"})
	Register(mockRaw{LeafSchemeName}) // the ID leaf a bare CompressParts emits
	Register(mockDouble{"double-mock"})
}

func TestRegistry(t *testing.T) {
	if _, ok := Lookup("raw-mock"); !ok {
		t.Fatal("raw-mock not registered")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("phantom scheme found")
	}
	found := false
	for _, n := range Schemes() {
		if n == "double-mock" {
			found = true
		}
	}
	if !found {
		t.Fatal("Schemes() misses double-mock")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(mockRaw{"raw-mock"})
}

func TestRegisterEmptyNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty name did not panic")
		}
	}()
	Register(mockRaw{""})
}

func TestDecompressDriver(t *testing.T) {
	src := []int64{2, 4, 6}
	f, err := Compress("double-mock", src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("roundtrip mismatch at %d", i)
		}
	}
	if _, err := Decompress(nil); err == nil {
		t.Fatal("nil form accepted")
	}
	if _, err := Decompress(&Form{Scheme: "nope"}); !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("unknown scheme err = %v", err)
	}
	if _, err := Compress("nope", src); !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("unknown compress err = %v", err)
	}
}

// A scheme fills storage sized from f.N, so the one length core can
// still get wrong is the destination's: it is checked before any
// scheme code runs.
func TestDecompressLengthMismatchDetected(t *testing.T) {
	f := &Form{Scheme: "raw-mock", N: 5, Leaf: []int64{1, 2, 3, 4, 5}}
	if err := DecompressInto(f, make([]int64, 2), nil); !errors.Is(err, ErrCorruptForm) {
		t.Fatalf("length mismatch err = %v", err)
	}
}

func TestParams(t *testing.T) {
	p := Params{"b": 2, "a": 1}
	if got := p.Keys(); len(got) != 2 || got[0] != "a" {
		t.Fatalf("Keys = %v", got)
	}
	v, err := p.Get("x", "a")
	if err != nil || v != 1 {
		t.Fatalf("Get = %d, %v", v, err)
	}
	if _, err := p.Get("x", "zz"); err == nil {
		t.Fatal("missing key accepted")
	}
	c := p.Clone()
	c["a"] = 99
	if p["a"] != 1 {
		t.Fatal("Clone aliases")
	}
	var nilP Params
	if nilP.Clone() != nil {
		t.Fatal("nil clone should stay nil")
	}
}

func TestFormTreeHelpers(t *testing.T) {
	f, err := Compress("double-mock", []int64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Child("halves"); err != nil {
		t.Fatalf("Child: %v", err)
	}
	if _, err := f.Child("nope"); err == nil {
		t.Fatal("phantom child accepted")
	}
	if names := f.ChildNames(); len(names) != 1 || names[0] != "halves" {
		t.Fatalf("ChildNames = %v", names)
	}
	if d := f.Describe(); d != "double-mock(halves=id)" {
		t.Fatalf("Describe = %q", d)
	}
	count := 0
	if err := f.Walk(func(*Form) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("Walk visited %d nodes", count)
	}
	wantErr := errors.New("stop")
	if err := f.Walk(func(*Form) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatal("Walk did not propagate error")
	}
}

func TestFormClone(t *testing.T) {
	f, err := Compress("double-mock", []int64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	c := f.Clone()
	c.Children["halves"].Leaf[0] = 99
	if f.Children["halves"].Leaf[0] == 99 {
		t.Fatal("Clone aliases leaf payload")
	}
	if (*Form)(nil).Clone() != nil {
		t.Fatal("nil clone should stay nil")
	}
}

func TestFormSizes(t *testing.T) {
	f, err := Compress("raw-mock", []int64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if f.UncompressedBytes() != 32 {
		t.Fatalf("uncompressed = %d", f.UncompressedBytes())
	}
	// Raw leaf: 4×64 payload bits plus header.
	if f.PayloadBits() != 4*64+formHeaderBits {
		t.Fatalf("payload bits = %d", f.PayloadBits())
	}
	if f.CompressionRatio() >= 1 {
		t.Fatalf("raw ratio %f should be below 1 (header overhead)", f.CompressionRatio())
	}
}

func TestFormValidate(t *testing.T) {
	f, err := Compress("double-mock", []int64{2})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("valid form rejected: %v", err)
	}
	bad := &Form{Scheme: "nope", N: 1}
	if err := bad.Validate(); !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("unknown scheme err = %v", err)
	}
	bad = &Form{Scheme: "raw-mock", N: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative length accepted")
	}
	bad = &Form{Scheme: "raw-mock", N: 1, Leaf: []int64{1}, Bytes: []byte{1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("mixed payload arms accepted")
	}
	bad = &Form{Scheme: ""}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty scheme accepted")
	}
}

func TestComposite(t *testing.T) {
	comp := Compose(mockDouble{"double-mock"}, map[string]Scheme{
		"halves": mockDouble{"double-mock"},
	})
	if got := comp.Name(); got != "double-mock(halves=double-mock)" {
		t.Fatalf("Name = %q", got)
	}
	src := []int64{4, 8, 12}
	f, err := comp.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.Children["halves"].Scheme != "double-mock" {
		t.Fatalf("inner child scheme = %q", f.Children["halves"].Scheme)
	}
	got := make([]int64, f.N)
	if err := comp.DecompressInto(f, got, nil); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatal("composite roundtrip mismatch")
		}
	}
	// Unknown child key fails loudly.
	bad := Compose(mockDouble{"double-mock"}, map[string]Scheme{"nope": mockRaw{"raw-mock"}})
	if _, err := bad.Compress(src); err == nil {
		t.Fatal("unknown child key accepted")
	}
	// Inner failure propagates.
	badInner := Compose(mockDouble{"double-mock"}, map[string]Scheme{"halves": mockDouble{"double-mock"}})
	if _, err := badInner.Compress([]int64{2}); !errors.Is(err, ErrNotRepresentable) {
		t.Fatalf("inner failure err = %v", err)
	}
}

func TestPlanOfAndDecompressViaPlan(t *testing.T) {
	src := []int64{2, 4, 6}
	f, err := Compress("double-mock", src)
	if err != nil {
		t.Fatal(err)
	}
	plan, env, err := PlanOf(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(env["halves"]) != 3 {
		t.Fatalf("env = %v", env)
	}
	out, err := exec.Run(plan, env)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if out[i] != src[i] {
			t.Fatal("plan decompression mismatch")
		}
	}
	via, err := DecompressViaPlan(f, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if via[i] != src[i] {
			t.Fatal("DecompressViaPlan mismatch")
		}
	}
	// raw-mock has no Plan.
	rf, _ := Compress("raw-mock", src)
	if _, _, err := PlanOf(rf); err == nil || !strings.Contains(err.Error(), "does not support plan") {
		t.Fatalf("planless scheme err = %v", err)
	}
}

func TestAnalyzerBest(t *testing.T) {
	// double-mock only works on even columns and yields smaller
	// "payload" through the mock child; raw-mock always works.
	a := &Analyzer{Candidates: []Scheme{
		mockDouble{"double-mock"},
		mockRaw{"raw-mock"},
	}}
	choice, err := a.Best([]int64{2, 4, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if choice.Form == nil || len(choice.Ranking) != 2 {
		t.Fatalf("choice = %+v", choice)
	}
	back, err := Decompress(choice.Form)
	if err != nil || len(back) != 4 {
		t.Fatalf("winner decompression: %v", err)
	}

	// Odd data: double-mock fails, raw wins.
	choice, err = a.Best([]int64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if choice.Desc != "raw-mock" {
		t.Fatalf("winner = %q", choice.Desc)
	}

	// No candidates.
	empty := &Analyzer{}
	if _, err := empty.Best([]int64{1}); !errors.Is(err, ErrNoCandidate) {
		t.Fatalf("empty analyzer err = %v", err)
	}
}

func TestAnalyzerSampleFallback(t *testing.T) {
	// double-mock wins on the even sample prefix but fails on the
	// full column (odd tail); the analyzer must fall back to raw.
	a := &Analyzer{
		Candidates: []Scheme{
			mockDouble{"double-mock"},
			mockRaw{"raw-mock"},
		},
		SampleSize: 2,
	}
	choice, err := a.Best([]int64{2, 4, 7})
	if err != nil {
		t.Fatal(err)
	}
	if choice.Desc != "raw-mock" {
		t.Fatalf("fallback winner = %q", choice.Desc)
	}
}

// countingScheme wraps mockRaw-style compression with a call counter
// and an optional failure above a length threshold, for pinning the
// analyzer's fallback behavior.
type countingScheme struct {
	name     string
	failOver int // Compress fails for inputs longer than this (0 = never)
	pad      int // extra leaf values appended, to order candidates by size
	calls    *int
}

func (c countingScheme) Name() string { return c.name }

func (c countingScheme) Compress(src []int64) (*Form, error) {
	*c.calls++
	if c.failOver > 0 && len(src) > c.failOver {
		return nil, fmt.Errorf("%w: column longer than %d", ErrNotRepresentable, c.failOver)
	}
	// The pad inflates the payload so candidates order by size; the
	// analyzer never decompresses losing trials, so the extra leaf
	// values are inert.
	leaf := append([]int64{}, src...)
	leaf = append(leaf, make([]int64, c.pad)...)
	return &Form{Scheme: "raw-mock", N: len(src), Leaf: leaf}, nil
}

func (c countingScheme) DecompressInto(f *Form, dst []int64, _ *Scratch) error {
	copy(dst, f.Leaf)
	return nil
}

// TestAnalyzerFallbackWalksRanking pins the fallback fix: when the
// sample winner fails on the full column, the analyzer must walk down
// the already-computed ranking, not re-run the whole search (which
// would re-trial the failed candidate).
func TestAnalyzerFallbackWalksRanking(t *testing.T) {
	callsA, callsB := 0, 0
	a := &Analyzer{
		Candidates: []Scheme{
			countingScheme{name: "small-but-fragile", failOver: 2, calls: &callsA},
			countingScheme{name: "big-but-sturdy", pad: 8, calls: &callsB},
		},
		SampleSize: 2,
	}
	choice, err := a.Best([]int64{2, 4, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if choice.Desc != "big-but-sturdy" {
		t.Fatalf("fallback winner = %q", choice.Desc)
	}
	// The fragile candidate compresses exactly twice: the sample trial
	// and the one failed full-column attempt. The old re-search path
	// would have trialed it a third time.
	if callsA != 2 {
		t.Fatalf("fragile candidate compressed %d times, want 2", callsA)
	}
	// The sturdy candidate compresses twice: sample trial plus the
	// full column.
	if callsB != 2 {
		t.Fatalf("sturdy candidate compressed %d times, want 2", callsB)
	}
	if len(choice.Ranking) != 2 || choice.Ranking[0].Err == nil {
		t.Fatalf("ranking does not record the fallen candidate: %+v", choice.Ranking)
	}
}

// TestAnalyzerReusesFullSampleForm pins the no-double-compress
// optimization: when the sample covers the whole column, the winning
// trial form is returned directly.
func TestAnalyzerReusesFullSampleForm(t *testing.T) {
	calls := 0
	a := &Analyzer{
		Candidates: []Scheme{countingScheme{name: "only", calls: &calls}},
	}
	if _, err := a.Best([]int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("candidate compressed %d times, want 1 (trial form reused)", calls)
	}
}

// pricedScheme is a countingScheme with a stated price.
type pricedScheme struct {
	countingScheme
	price uint64
	bound Bound
}

func (p pricedScheme) EstimateSize(*BlockStats) (uint64, Bound) { return p.price, p.bound }

// TestAnalyzerTiesGoToInputOrder pins the search's tie rule: of two
// candidates of equal size the earlier in input order wins, however
// their prices order the visits — whether both are compressed or the
// earlier one's exact price proves the tie — while a candidate an
// exact price proves larger is never compressed.
func TestAnalyzerTiesGoToInputOrder(t *testing.T) {
	src := []int64{1, 2, 3, 4}
	calls := 0
	raw := func(name string, pad int) countingScheme { return countingScheme{name: name, pad: pad, calls: &calls} }
	size := func(pad int) uint64 {
		f, err := raw("", pad).Compress(src)
		if err != nil {
			t.Fatal(err)
		}
		return f.PayloadBits()
	}
	// "b" comes second in input order but is visited first.
	b := pricedScheme{raw("b", 0), 1, Heuristic}
	for _, tc := range []struct {
		name  string
		a     pricedScheme
		want  string
		calls int
	}{
		{"tie, both compressed", pricedScheme{raw("a", 0), size(0) + 1, Heuristic}, "a", 2},
		{"tie, proved by an exact price", pricedScheme{raw("a", 0), size(0), Exact}, "a", 2},
		{"proved larger", pricedScheme{raw("a", 1), size(1), Exact}, "b", 1},
	} {
		calls = 0
		got, err := (&Analyzer{Candidates: []Scheme{tc.a, b}}).Best(src)
		if err != nil {
			t.Fatal(err)
		}
		if got.Desc != tc.want || calls != tc.calls {
			t.Fatalf("%s: winner %s after %d compressions, want %s after %d", tc.name, got.Desc, calls, tc.want, tc.calls)
		}
	}
}
