package scheme

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lwcomp/internal/core"
	"lwcomp/internal/vec"
)

// testColumns is the shared corpus of edge-case and structured
// columns every scheme must round-trip.
func testColumns() map[string][]int64 {
	rng := rand.New(rand.NewSource(99))
	runny := make([]int64, 500)
	v := int64(100)
	for i := range runny {
		if rng.Intn(10) == 0 {
			v += rng.Int63n(5)
		}
		runny[i] = v
	}
	walk := make([]int64, 300)
	w := int64(1000)
	for i := range walk {
		w += rng.Int63n(21) - 10
		walk[i] = w
	}
	mixed := make([]int64, 257)
	for i := range mixed {
		mixed[i] = rng.Int63n(1<<40) - (1 << 39)
	}
	return map[string][]int64{
		"empty":        {},
		"single":       {42},
		"single-neg":   {-42},
		"constant":     {7, 7, 7, 7, 7, 7, 7},
		"two-runs":     {1, 1, 1, 2, 2},
		"alternating":  {0, 1, 0, 1, 0, 1, 0},
		"monotone":     {1, 2, 3, 5, 8, 13, 21, 34},
		"negatives":    {-5, -5, 0, 3, -9, 3},
		"extremes":     {math.MaxInt64, math.MinInt64, 0, -1, 1},
		"runny":        runny,
		"random-walk":  walk,
		"mixed-random": mixed,
	}
}

// roundTrippers lists every compressor that must be lossless on every
// column in the corpus (exact-domain schemes like Step and Linear are
// excluded and tested separately).
func roundTrippers() map[string]core.Scheme {
	return map[string]core.Scheme{
		"id":           ID{},
		"ns":           NS{},
		"varint":       Varint{},
		"vns":          VNS{Block: 64},
		"delta":        Delta{},
		"rle":          RLE{},
		"rpe":          RPE{},
		"for":          FOR{SegLen: 32},
		"dict":         Dict{},
		"rle+ns":       RLEComposite(),
		"rle+delta":    RLEDeltaComposite(),
		"rpe+ns":       RPEComposite(),
		"delta+ns":     DeltaNS(),
		"for+ns":       FORComposite(32),
		"for+vns":      FORVNSComposite(64, 32),
		"dict+ns":      DictComposite(),
		"pfor":         PFORComposite(64),
		"mres-step":    StepNS(32),
		"mres-linear":  LinearNS(32),
		"mres-lin-vns": core.Compose(Plus{Model: Linear{SegLen: 32}}, map[string]core.Scheme{"residual": VNS{Block: 32}}),
	}
}

func TestRoundTripCorpus(t *testing.T) {
	for colName, col := range testColumns() {
		for schemeName, s := range roundTrippers() {
			f, err := s.Compress(col)
			if err != nil {
				t.Errorf("%s on %s: compress: %v", schemeName, colName, err)
				continue
			}
			if f.N != len(col) {
				t.Errorf("%s on %s: form N=%d, want %d", schemeName, colName, f.N, len(col))
				continue
			}
			if err := f.Validate(); err != nil {
				t.Errorf("%s on %s: validate: %v", schemeName, colName, err)
				continue
			}
			got, err := core.Decompress(f)
			if err != nil {
				t.Errorf("%s on %s: decompress: %v", schemeName, colName, err)
				continue
			}
			if !vec.Equal(got, col) {
				t.Errorf("%s on %s: roundtrip mismatch", schemeName, colName)
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	schemes := []core.Scheme{
		NS{}, Varint{}, VNS{Block: 16}, Delta{}, RLE{}, RPE{},
		FOR{SegLen: 16}, Dict{}, RLEDeltaComposite(), PFORComposite(16),
	}
	for _, s := range schemes {
		s := s
		check := func(raw []int32) bool {
			src := make([]int64, len(raw))
			for i, r := range raw {
				src[i] = int64(r)
			}
			f, err := s.Compress(src)
			if err != nil {
				return false
			}
			got, err := core.Decompress(f)
			if err != nil {
				return false
			}
			return vec.Equal(got, src)
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestConstScheme(t *testing.T) {
	f, err := Const{}.Compress([]int64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Decompress(f)
	if err != nil || !vec.Equal(got, []int64{5, 5, 5}) {
		t.Fatalf("const roundtrip = %v, %v", got, err)
	}
	if _, err := (Const{}).Compress([]int64{1, 2}); !errors.Is(err, core.ErrNotRepresentable) {
		t.Fatalf("non-constant err = %v", err)
	}
	// Empty column.
	f, err = Const{}.Compress(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := core.Decompress(f); err != nil || len(got) != 0 {
		t.Fatalf("empty const = %v, %v", got, err)
	}
}

func TestStepScheme(t *testing.T) {
	src := []int64{4, 4, 4, 9, 9, 9, 1, 1}
	f, err := Step{SegLen: 3}.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Decompress(f)
	if err != nil || !vec.Equal(got, src) {
		t.Fatalf("step roundtrip = %v, %v", got, err)
	}
	refs, err := core.DecompressChild(f, "refs")
	if err != nil || !vec.Equal(refs, []int64{4, 9, 1}) {
		t.Fatalf("refs = %v, %v", refs, err)
	}
	if _, err := (Step{SegLen: 3}).Compress([]int64{1, 2, 3}); !errors.Is(err, core.ErrNotRepresentable) {
		t.Fatalf("non-step err = %v", err)
	}
}

func TestLinearScheme(t *testing.T) {
	// Exactly linear: v = 10 + 3j per segment of 4.
	src := make([]int64, 8)
	for i := range src {
		seg := i / 4
		j := i % 4
		src[i] = int64(10+100*seg) + int64(3*j)
	}
	f, err := Linear{SegLen: 4}.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Decompress(f)
	if err != nil || !vec.Equal(got, src) {
		t.Fatalf("linear roundtrip = %v, %v", got, err)
	}
	if _, err := (Linear{SegLen: 4}).Compress([]int64{0, 5, 1, 9}); !errors.Is(err, core.ErrNotRepresentable) {
		t.Fatalf("non-linear err = %v", err)
	}
}

func TestNSWidthSelection(t *testing.T) {
	f, err := NS{}.Compress([]int64{0, 1, 7})
	if err != nil {
		t.Fatal(err)
	}
	if f.Params["width"] != 3 || f.Params["zigzag"] != 0 {
		t.Fatalf("params = %v", f.Params)
	}
	f, err = NS{}.Compress([]int64{-1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if f.Params["zigzag"] != 1 {
		t.Fatalf("negative column did not zigzag: %v", f.Params)
	}
}

func TestNSCompressionRatioOnNarrowData(t *testing.T) {
	src := make([]int64, 4096)
	for i := range src {
		src[i] = int64(i % 16) // 4-bit values
	}
	f, err := NS{}.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	if r := f.CompressionRatio(); r < 10 {
		t.Fatalf("4-bit NS ratio = %.1f, want ≈16", r)
	}
}

func TestDictCodesOrderPreserving(t *testing.T) {
	f, err := Dict{}.Compress([]int64{30, 10, 20, 10})
	if err != nil {
		t.Fatal(err)
	}
	dict, err := core.DecompressChild(f, "dict")
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(dict, []int64{10, 20, 30}) {
		t.Fatalf("dict not sorted: %v", dict)
	}
	codes, err := core.DecompressChild(f, "codes")
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(codes, []int64{2, 0, 1, 0}) {
		t.Fatalf("codes = %v", codes)
	}
}

func TestRLEFormShape(t *testing.T) {
	f, err := RLE{}.Compress([]int64{7, 7, 9, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	lengths, _ := core.DecompressChild(f, "lengths")
	values, _ := core.DecompressChild(f, "values")
	if !vec.Equal(lengths, []int64{2, 3}) || !vec.Equal(values, []int64{7, 9}) {
		t.Fatalf("runs = %v / %v", lengths, values)
	}
}

func TestRPEPositionsShape(t *testing.T) {
	f, err := RPE{}.Compress([]int64{7, 7, 9, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	positions, _ := core.DecompressChild(f, "positions")
	if !vec.Equal(positions, []int64{2, 5}) {
		t.Fatalf("positions = %v", positions)
	}
}

func TestFORRefsAreSegmentMinima(t *testing.T) {
	f, err := FOR{SegLen: 2}.Compress([]int64{5, 3, 10, 12})
	if err != nil {
		t.Fatal(err)
	}
	refs, _ := core.DecompressChild(f, "refs")
	if !vec.Equal(refs, []int64{3, 10}) {
		t.Fatalf("refs = %v", refs)
	}
	offsets, _ := core.DecompressChild(f, "offsets")
	for i, o := range offsets {
		if o < 0 {
			t.Fatalf("offset %d negative: %d", i, o)
		}
	}
}

func TestCorruptFormsRejected(t *testing.T) {
	cases := []*core.Form{
		// Wrong scheme tag routed to NS.
		{Scheme: "ns", N: 1, Params: core.Params{"width": 99, "zigzag": 0}, Packed: []uint64{}},
		// NS payload too short.
		{Scheme: "ns", N: 100, Params: core.Params{"width": 64, "zigzag": 0}, Packed: []uint64{1}},
		// NS bad zigzag flag.
		{Scheme: "ns", N: 0, Params: core.Params{"width": 1, "zigzag": 5}, Packed: []uint64{}},
		// RLE missing child.
		{Scheme: "rle", N: 3, Children: map[string]*core.Form{"lengths": NewIDForm([]int64{3})}},
		// RLE mismatched child lengths.
		{Scheme: "rle", N: 3, Children: map[string]*core.Form{
			"lengths": NewIDForm([]int64{3}),
			"values":  NewIDForm([]int64{1, 2}),
		}},
		// FOR with wrong refs count.
		{Scheme: "for", N: 10, Params: core.Params{"seglen": 5}, Children: map[string]*core.Form{
			"refs":    NewIDForm([]int64{1, 2, 3}),
			"offsets": NewIDForm(make([]int64, 10)),
		}},
		// Delta child length mismatch.
		{Scheme: "delta", N: 5, Children: map[string]*core.Form{"deltas": NewIDForm([]int64{1})}},
		// Varint declaring values with no payload.
		{Scheme: "varint", N: 3, Params: core.Params{"unsigned": 1}, Bytes: []byte{}},
		// VNS widths child with wrong block count.
		{Scheme: "vns", N: 100, Params: core.Params{"block": 10, "zigzag": 0},
			Children: map[string]*core.Form{"widths": NewIDForm([]int64{3})}, Packed: []uint64{}},
		// Plus with mismatched children.
		{Scheme: "plus", N: 2, Children: map[string]*core.Form{
			"model":    NewIDForm([]int64{1, 2}),
			"residual": NewIDForm([]int64{1}),
		}},
		// Patch children mismatch.
		{Scheme: "patch", N: 2, Children: map[string]*core.Form{
			"base":      NewIDForm([]int64{1, 2}),
			"positions": NewIDForm([]int64{0}),
			"values":    NewIDForm([]int64{}),
		}},
	}
	for i, f := range cases {
		if _, err := core.Decompress(f); err == nil {
			t.Errorf("case %d (%s): corrupt form decompressed without error", i, f.Scheme)
		}
	}
	// Forms whose declared length no payload could back: each must be
	// refused as corrupt before anything is sized from N (decoding them
	// for real would ask the runtime for 8 TiB).
	const huge = 1 << 40
	hostile := map[string]*core.Form{
		"ns":     {Scheme: "ns", N: huge, Params: core.Params{"width": 7, "zigzag": 0}, Packed: []uint64{1}},
		"varint": {Scheme: "varint", N: huge, Params: core.Params{"unsigned": 1}, Bytes: []byte{1, 2, 3}},
		"elias":  {Scheme: "elias", N: huge, Packed: []uint64{1}},
		"id":     {Scheme: "id", N: huge, Leaf: []int64{1, 2}},
		// The root is consistent with its children's declarations; the
		// lie is one level down.
		"for(ns)": {Scheme: "for", N: huge, Params: core.Params{"seglen": huge}, Children: map[string]*core.Form{
			"refs":    NewIDForm([]int64{0}),
			"offsets": {Scheme: "ns", N: huge, Params: core.Params{"width": 7, "zigzag": 0}, Packed: []uint64{1}},
		}},
		"rle(lengths)": {Scheme: "rle", N: 3, Children: map[string]*core.Form{
			"lengths": {Scheme: "id", N: huge, Leaf: []int64{3}},
			"values":  {Scheme: "id", N: huge, Leaf: []int64{1}},
		}},
		"negative": {Scheme: "const", N: -1, Params: core.Params{"value": 1}},
	}
	for name, f := range hostile {
		if _, err := core.Decompress(f); !errors.Is(err, core.ErrCorruptForm) {
			t.Errorf("%s: err = %v, want ErrCorruptForm", name, err)
		}
	}
}

func TestRLERandomAccessViaRPE(t *testing.T) {
	// RPE positions support binary-search point lookups; verify the
	// boundary arithmetic against full decompression.
	src := []int64{1, 1, 1, 5, 5, 9, 9, 9, 9}
	f, err := RPE{}.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	positions, _ := core.DecompressChild(f, "positions")
	values, _ := core.DecompressChild(f, "values")
	for row := 0; row < len(src); row++ {
		run := vec.UpperBound(positions, int64(row))
		if values[run] != src[row] {
			t.Fatalf("row %d: run %d value %d, want %d", row, run, values[run], src[row])
		}
	}
}

func TestDescribeComposite(t *testing.T) {
	f, err := RLEDeltaComposite().Compress([]int64{1, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := "rle(lengths=ns, values=delta(deltas=ns))"
	if got := f.Describe(); got != want {
		t.Fatalf("Describe = %q, want %q", got, want)
	}
}
