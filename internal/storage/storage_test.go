package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"

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

func TestContainerRoundTrip(t *testing.T) {
	src := testColumn()
	f1, err := scheme.RLEDeltaComposite().Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := scheme.NS{}.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cols := []Column{{Name: "ship_date", Form: f1}, {Name: "qty", Form: f2}}
	if err := WriteContainer(&buf, cols); err != nil {
		t.Fatal(err)
	}
	back, err := ReadContainer(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Name != "ship_date" || back[1].Name != "qty" {
		t.Fatalf("columns = %+v", back)
	}
	for i := range back {
		got, err := core.Decompress(back[i].Form)
		if err != nil || !vec.Equal(got, src) {
			t.Fatalf("column %d roundtrip: %v", i, err)
		}
	}
}

func TestContainerChecksumDetected(t *testing.T) {
	f, err := scheme.NS{}.Compress(testColumn())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteContainer(&buf, []Column{{Name: "c", Form: f}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0xFF
	if _, err := ReadContainer(bytes.NewReader(data)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted container err = %v", err)
	}
}

func TestContainerBadMagicAndTruncation(t *testing.T) {
	if _, err := ReadContainer(bytes.NewReader([]byte("XXXX000000"))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic err = %v", err)
	}
	if _, err := ReadContainer(bytes.NewReader([]byte("LW"))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short err = %v", err)
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
	if err := WriteContainer(&buf, nil); err != nil {
		t.Fatal(err)
	}
	cols, err := ReadContainer(bytes.NewReader(buf.Bytes()))
	if err != nil || len(cols) != 0 {
		t.Fatalf("empty container = %v, %v", cols, err)
	}
	// Many columns with distinct schemes.
	src := testColumn()[:200]
	var many []Column
	for i, s := range corpusSchemes() {
		if s.Name() == "const" {
			continue
		}
		f, err := s.Compress(src)
		if err != nil {
			t.Fatal(err)
		}
		many = append(many, Column{Name: string(rune('a' + i)), Form: f})
	}
	buf.Reset()
	if err := WriteContainer(&buf, many); err != nil {
		t.Fatal(err)
	}
	back, err := ReadContainer(bytes.NewReader(buf.Bytes()))
	if err != nil || len(back) != len(many) {
		t.Fatalf("many columns: %v", err)
	}
	for i := range back {
		got, err := core.Decompress(back[i].Form)
		if err != nil || !vec.Equal(got, src) {
			t.Fatalf("column %d (%s): %v", i, back[i].Form.Describe(), err)
		}
	}
	// Invalid column name rejected at write time.
	if err := WriteContainer(&buf, []Column{{Name: "", Form: many[0].Form}}); err == nil {
		t.Fatal("empty column name accepted")
	}
}

func TestSortColumns(t *testing.T) {
	cols := []Column{{Name: "b"}, {Name: "a"}}
	SortColumns(cols)
	if cols[0].Name != "a" {
		t.Fatal("not sorted")
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
