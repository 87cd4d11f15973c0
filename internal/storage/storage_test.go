package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"lwcomp/internal/blocked"
	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/vec"
)

// corpusSchemes returns compressors covering every payload arm and
// nesting shape.
func corpusSchemes() []core.Scheme {
	return []core.Scheme{
		scheme.ID{},
		scheme.Const{},
		scheme.NS{},
		scheme.Varint{},
		scheme.VNS{Block: 32},
		scheme.DeltaNS(),
		scheme.RLEDeltaComposite(),
		scheme.RPEComposite(),
		scheme.FORComposite(64),
		scheme.PFORComposite(64),
		scheme.LinearNS(32),
		scheme.DictComposite(),
	}
}

func testColumn() []int64 {
	src := make([]int64, 777)
	v := int64(42)
	for i := range src {
		if i%13 == 0 {
			v += int64(i % 5)
		}
		src[i] = v
	}
	return src
}

func TestEncodeDecodeFormRoundTrip(t *testing.T) {
	src := testColumn()
	for _, s := range corpusSchemes() {
		if s.Name() == "const" {
			continue // const needs constant input, tested below
		}
		f, err := s.Compress(src)
		if err != nil {
			t.Fatalf("%s: compress: %v", s.Name(), err)
		}
		enc, err := EncodeForm(f)
		if err != nil {
			t.Fatalf("%s: encode: %v", s.Name(), err)
		}
		back, consumed, err := DecodeForm(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", s.Name(), err)
		}
		if consumed != len(enc) {
			t.Fatalf("%s: consumed %d of %d bytes", s.Name(), consumed, len(enc))
		}
		got, err := core.Decompress(back)
		if err != nil {
			t.Fatalf("%s: decompress decoded: %v", s.Name(), err)
		}
		if !vec.Equal(got, src) {
			t.Fatalf("%s: serialized roundtrip mismatch", s.Name())
		}
	}
}

func TestEncodeDecodeConstAndEmpty(t *testing.T) {
	f, err := scheme.Const{}.Compress([]int64{9, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeForm(f)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := DecodeForm(enc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Decompress(back)
	if err != nil || !vec.Equal(got, []int64{9, 9, 9}) {
		t.Fatalf("const roundtrip: %v", err)
	}

	// Empty column through a nested composite.
	ef, err := scheme.RLEDeltaComposite().Compress(nil)
	if err != nil {
		t.Fatal(err)
	}
	enc, err = EncodeForm(ef)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err = DecodeForm(enc)
	if err != nil {
		t.Fatal(err)
	}
	got, err = core.Decompress(back)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty roundtrip: %v", err)
	}
}

// TestDecodeFormInternsNames: two decodes share one copy of every
// scheme name, parameter key and constituent name, and the table stops
// growing at its cap without changing what is decoded.
func TestDecodeFormInternsNames(t *testing.T) {
	src := make([]int64, 500)
	for i := range src {
		src[i] = int64(i / 7)
	}
	f, err := scheme.RLEDeltaComposite().Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeForm(f)
	if err != nil {
		t.Fatal(err)
	}
	var names func(f *core.Form, out map[string]*byte)
	names = func(f *core.Form, out map[string]*byte) {
		for _, s := range append(append(f.Params.Keys(), f.ChildNames()...), f.Scheme) {
			if p, seen := out[s]; seen && p != unsafe.StringData(s) {
				t.Errorf("name %q has two copies inside one form", s)
			}
			out[s] = unsafe.StringData(s)
		}
		for _, c := range f.Children {
			names(c, out)
		}
	}
	var seen [2]map[string]*byte
	for i := range seen {
		got, _, err := DecodeForm(enc)
		if err != nil {
			t.Fatal(err)
		}
		seen[i] = make(map[string]*byte)
		names(got, seen[i])
	}
	for s, p := range seen[0] {
		if seen[1][s] != p {
			t.Errorf("name %q was copied again by the second decode", s)
		}
	}

	internMu.Lock()
	saved := interned
	interned = make(map[string]string)
	internMu.Unlock()
	defer func() {
		internMu.Lock()
		interned = saved
		internMu.Unlock()
	}()
	for i := 0; i < 2*maxInternedNames; i++ {
		want := fmt.Sprintf("name-%d", i)
		if got := internName([]byte(want)); got != want {
			t.Fatalf("internName(%q) = %q", want, got)
		}
	}
	if len(interned) != maxInternedNames {
		t.Fatalf("table holds %d names, want the cap %d", len(interned), maxInternedNames)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	f, err := scheme.FORComposite(32).Compress(testColumn())
	if err != nil {
		t.Fatal(err)
	}
	a, err := EncodeForm(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeForm(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestDecodeFormCorruptInputsNeverPanic(t *testing.T) {
	f, err := scheme.FORComposite(16).Compress(testColumn()[:100])
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeForm(f)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every length must error, not panic.
	for cut := 0; cut < len(enc); cut += 7 {
		if _, _, err := DecodeForm(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Single-byte corruptions must never panic (they may decode to a
	// different but structurally valid form, which Decompress then
	// rejects — what matters is no panic and no silent success with
	// wrong data length).
	for pos := 0; pos < len(enc); pos += 11 {
		mut := append([]byte{}, enc...)
		mut[pos] ^= 0x5A
		back, _, err := DecodeForm(mut)
		if err != nil {
			continue
		}
		// If it decodes, decompression must either fail or produce a
		// column of the declared length.
		out, err := core.Decompress(back)
		if err == nil && len(out) != back.N {
			t.Fatalf("mutation at %d produced wrong-length column", pos)
		}
	}
}

func TestDecodeFormFuzzProperty(t *testing.T) {
	check := func(data []byte) bool {
		// Must not panic; errors are fine.
		_, _, _ = DecodeForm(data)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodedSizeMatchesEncoding(t *testing.T) {
	f, err := scheme.RLEComposite().Compress(testColumn())
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeForm(f)
	if err != nil {
		t.Fatal(err)
	}
	sz, err := EncodedSize(f)
	if err != nil || sz != len(enc) {
		t.Fatalf("EncodedSize = %d, want %d (%v)", sz, len(enc), err)
	}
}

func TestContainerEmptyAndMany(t *testing.T) {
	// Zero columns.
	var buf bytes.Buffer
	if err := WriteContainerV3(&buf, nil); err != nil {
		t.Fatal(err)
	}
	cols, err := LoadContainer(bytes.NewReader(buf.Bytes()))
	if err != nil || len(cols) != 0 {
		t.Fatalf("empty container = %v, %v", cols, err)
	}
	// Many columns with distinct schemes.
	src := testColumn()[:200]
	var many []BlockedColumn
	for i, s := range corpusSchemes() {
		if s.Name() == "const" {
			continue
		}
		f, err := s.Compress(src)
		if err != nil {
			t.Fatal(err)
		}
		col, err := blocked.FromForm(f, true)
		if err != nil {
			t.Fatal(err)
		}
		many = append(many, BlockedColumn{Name: string(rune('a' + i)), Col: col})
	}
	buf.Reset()
	if err := WriteContainerV3(&buf, many); err != nil {
		t.Fatal(err)
	}
	back, err := LoadContainer(bytes.NewReader(buf.Bytes()))
	if err != nil || len(back) != len(many) {
		t.Fatalf("many columns: %v", err)
	}
	for i := range back {
		got, err := back[i].Col.Decompress()
		if err != nil || !vec.Equal(got, src) {
			t.Fatalf("column %d (%s): %v", i, back[i].Col.Blocks[0].Form.Describe(), err)
		}
	}
	// Invalid column name rejected at write time.
	if err := WriteContainerV3(&buf, []BlockedColumn{{Name: "", Col: many[0].Col}}); err == nil {
		t.Fatal("empty column name accepted")
	}
}

func TestEncodeRejectsBadForms(t *testing.T) {
	if _, err := EncodeForm(nil); err == nil {
		t.Fatal("nil form accepted")
	}
	if _, err := EncodeForm(&core.Form{Scheme: ""}); err == nil {
		t.Fatal("empty scheme accepted")
	}
	if _, err := EncodeForm(&core.Form{Scheme: "x", N: -1}); err == nil {
		t.Fatal("negative N accepted")
	}
	bad := &core.Form{Scheme: "x", N: 1, Leaf: []int64{1}, Bytes: []byte{1}}
	if _, err := EncodeForm(bad); err == nil {
		t.Fatal("mixed arms accepted")
	}
}

// BenchmarkDecodeForm decodes 16,384-row forms whose payloads are packed
// words (ns, and the residual of plus(linear, ns)) or int64 leaf words
// (id), reported per payload word: the cold half of a block fetch once
// its CRC is checked.
func BenchmarkDecodeForm(b *testing.B) {
	src := make([]int64, 1<<14)
	for i := range src {
		src[i] = int64(i)*3 + int64(i*7919%61)
	}
	for _, sch := range []core.Scheme{scheme.NS{}, scheme.LinearNS(1024), scheme.ID{}} {
		f, err := sch.Compress(src)
		if err != nil {
			b.Fatal(err)
		}
		data, err := EncodeForm(f)
		if err != nil {
			b.Fatal(err)
		}
		words := 0
		f.Walk(func(n *core.Form) error {
			words += len(n.Packed) + len(n.Leaf)
			return nil
		})
		b.Run(sch.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := DecodeForm(data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(words), "ns/word")
		})
	}
}

// slabForms returns one form per family the slab test and the cold
// fetch benchmark cover, compressed from n rows of a column with runs,
// few distinct values, a gentle trend and an outlier every 97 rows, so
// that patch has exceptions to split off and every child is non-empty.
func slabForms(tb testing.TB, n int) (map[string]core.Scheme, []int64) {
	tb.Helper()
	src := make([]int64, n)
	v := int64(1000)
	for i := range src {
		if i%13 == 0 {
			v += int64(i%5) - 1
		}
		src[i] = v
		if i%97 == 0 {
			src[i] += 1 << 20
		}
	}
	return map[string]core.Scheme{
		"ns":    scheme.NS{},
		"delta": scheme.DeltaNS(),
		"dict":  scheme.DictComposite(),
		"rle":   scheme.RLEDeltaComposite(),
		"patch": scheme.PFORComposite(64),
		"plus":  scheme.LinearNS(32),
	}, src
}

// wordArm is one decoded Packed or Leaf payload, by address.
type wordArm struct {
	start, end uintptr
	words      []uint64
}

// wordArms lists a form's non-empty word payloads, failing on any whose
// capacity exceeds its length.
func wordArms(t *testing.T, f *core.Form) []wordArm {
	t.Helper()
	var arms []wordArm
	f.Walk(func(n *core.Form) error {
		var w []uint64
		switch {
		case n.Packed != nil:
			if cap(n.Packed) != len(n.Packed) {
				t.Errorf("%s: Packed cap %d, len %d", n.Scheme, cap(n.Packed), len(n.Packed))
			}
			w = n.Packed
		case n.Leaf != nil:
			if cap(n.Leaf) != len(n.Leaf) {
				t.Errorf("%s: Leaf cap %d, len %d", n.Scheme, cap(n.Leaf), len(n.Leaf))
			}
			w = unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(n.Leaf))), len(n.Leaf))
		}
		if len(w) > 0 {
			start := uintptr(unsafe.Pointer(unsafe.SliceData(w)))
			arms = append(arms, wordArm{start, start + 8*uintptr(len(w)), w})
		}
		return nil
	})
	return arms
}

// TestDecodeFormOneSlab: a decode puts every word payload of the tree
// into one allocation, handed out back to back with cap == len, and
// the form is the one encoded. The little-endian copy and the portable
// word loop read the same words from the same (unaligned) bytes.
func TestDecodeFormOneSlab(t *testing.T) {
	schemes, src := slabForms(t, 4096)
	for name, sch := range schemes {
		f, err := sch.Compress(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		enc, err := EncodeForm(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, _, err := DecodeForm(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again, err := EncodeForm(back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("%s: decoded form re-encodes differently (%v)", name, err)
		}
		if !reflect.DeepEqual(back, f) {
			t.Fatalf("%s: decoded form %s differs from %s", name, back.Describe(), f.Describe())
		}
		arms := wordArms(t, back)
		if len(arms) == 0 {
			t.Fatalf("%s: no word payload", name)
		}
		sort.Slice(arms, func(i, j int) bool { return arms[i].start < arms[j].start })
		for i := 1; i < len(arms); i++ {
			if arms[i].start != arms[i-1].end {
				t.Fatalf("%s (%s): word arm %d starts at %#x, the one before ends at %#x: not one slab",
					name, back.Describe(), i, arms[i].start, arms[i-1].end)
			}
		}
		if span := arms[len(arms)-1].end - arms[0].start; span > uintptr(len(enc)) {
			t.Fatalf("%s: slab spans %d bytes of a %d-byte payload", name, span, len(enc))
		}
		if len(arms) < 2 && name != "ns" && name != "delta" {
			t.Fatalf("%s: %d word arms, want a multi-arm form", name, len(arms))
		}
		for _, a := range arms {
			for off := 0; off < 8; off++ {
				raw := make([]byte, off, off+8*len(a.words))
				for _, w := range a.words {
					raw = binary.LittleEndian.AppendUint64(raw, w)
				}
				le, loop := make([]uint64, len(a.words)), make([]uint64, len(a.words))
				copyWordsLE(le, raw[off:])
				copyWordsLoop(loop, raw[off:])
				if !slices.Equal(le, a.words) || !slices.Equal(loop, a.words) {
					t.Fatalf("%s: word copies disagree at byte offset %d", name, off)
				}
			}
		}
	}
}

// TestPayloadBufAllocs: a pooled payload buffer goes out and comes back
// without allocating, as every cold block fetch and container open
// takes and returns one.
func TestPayloadBufAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	putPayloadBuf(getPayloadBuf(4096)) // the pool now holds a buffer this size
	if n := testing.AllocsPerRun(100, func() { putPayloadBuf(getPayloadBuf(4096)) }); n != 0 {
		t.Fatalf("a get/put round trip allocates %v times; want 0", n)
	}
}

// BenchmarkColdBlockForm fetches blocks of a lazily opened container
// with no block cache, so that every fetch is a cold one: the
// positioned read into pooled scratch, the CRC and the decode into a
// slab from the free list. Each form's lease is released at once, as
// a query releases it when done with the block, which hands the slab
// back for the next fetch. One container per form family, each of
// eight 16,384-row blocks written with WriteContainerV3; ns, B and
// allocs are per fetch.
func BenchmarkColdBlockForm(b *testing.B) {
	const blockRows, blocks = 1 << 14, 8
	schemes, src := slabForms(b, blockRows*blocks)
	names := slices.Sorted(maps.Keys(schemes))
	for _, name := range names {
		col, err := blocked.Encode(src, blocked.EncodeOptions{BlockSize: blockRows, Scheme: schemes[name]})
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteContainerV3(&buf, []BlockedColumn{{Name: name, Col: col}}); err != nil {
			b.Fatal(err)
		}
		cf, err := OpenContainer(bytes.NewReader(buf.Bytes()), int64(buf.Len()), OpenOptions{CacheBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		lazy := cf.Columns()[0].Col
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, l, err := lazy.LeasedForm(i % blocks)
				if err != nil {
					b.Fatal(err)
				}
				l.Release()
			}
		})
		cf.Close()
	}
}
