package lwcomp_test

import (
	"bytes"
	"errors"
	"testing"

	"lwcomp"
	"lwcomp/internal/storage"
	"lwcomp/internal/workload"
)

// mustScheme parses a scheme expression or fails the test.
func mustScheme(t *testing.T, expr string) lwcomp.Scheme {
	t.Helper()
	s, err := lwcomp.ParseScheme(expr)
	if err != nil {
		t.Fatalf("ParseScheme(%q): %v", expr, err)
	}
	return s
}

// serializationForms builds one compressed form per registered
// scheme (directly where the scheme compresses arbitrary columns,
// via its canonical producer where it does not: PFOR yields PATCH
// forms, StepNS yields PLUS forms) over varied workloads.
func serializationForms(t *testing.T) map[string]*lwcomp.Form {
	t.Helper()
	const n = 6000
	linear := make([]int64, n)
	for i := range linear {
		linear[i] = 7*int64(i) + 3
	}
	constant := make([]int64, n)
	for i := range constant {
		constant[i] = -123456
	}
	quad := make([]int64, n)
	for i := range quad {
		x := int64(i % 1024)
		quad[i] = x*x/50 + int64(i%7)
	}
	cases := []struct {
		desc string
		s    lwcomp.Scheme
		src  []int64
	}{
		{"id", lwcomp.ID(), workload.RandomWalk(n, 9, 1<<20, 1)},
		{"ns", lwcomp.NS(), workload.UniformBits(n, 17, 2)},
		{"ns-negative", lwcomp.NS(), workload.RandomWalk(n, 50, 0, 3)},
		{"vns", lwcomp.VNS(0), workload.SkewedMagnitude(n, 40, 4)},
		{"varint", lwcomp.Varint(), workload.SkewedMagnitude(n, 40, 5)},
		{"elias", lwcomp.Elias(), workload.SkewedMagnitude(n, 30, 6)},
		{"delta", lwcomp.Delta(), workload.Sorted(n, 1<<38, 7)},
		{"rle", lwcomp.RLE(), workload.Runs(n, 32, 1<<12, 8)},
		{"rle-composite", lwcomp.RLEDeltaNS(), workload.OrderShipDates(n, 40, 730120, 9)},
		{"rpe", lwcomp.RPE(), workload.Runs(n, 32, 1<<12, 10)},
		{"for", lwcomp.FOR(0), workload.RandomWalk(n, 10, 1<<31, 11)},
		{"for-composite", lwcomp.FORNS(512), workload.RandomWalk(n, 10, 1<<31, 12)},
		{"dict", lwcomp.Dict(), workload.LowCardinality(n, 24, 13)},
		{"step", mustScheme(t, "step"), workload.StepData(n, 1024, 14)},
		{"plus", lwcomp.StepNS(0), workload.StepData(n, 1024, 17)},
		{"linear", lwcomp.LinearNS(0), linear},
		{"poly2", lwcomp.Poly2NS(1024), quad},
		{"const", mustScheme(t, "const"), constant},
		{"patch", lwcomp.PFOR(512), workload.OutlierWalk(n, 8, 0.01, 1<<38, 15)},
		{"plinear", lwcomp.PatchedLinearNS(1024), quad},
	}
	forms := make(map[string]*lwcomp.Form, len(cases))
	for _, tc := range cases {
		f, err := tc.s.Compress(tc.src)
		if err != nil {
			t.Fatalf("%s: Compress: %v", tc.desc, err)
		}
		forms[tc.desc] = f
	}
	return forms
}

// TestSerializationRoundTripAllSchemes round-trips every generated
// form through EncodeForm/DecodeForm and checks that every
// registered scheme appears somewhere in the covered trees.
func TestSerializationRoundTripAllSchemes(t *testing.T) {
	forms := serializationForms(t)
	covered := map[string]bool{}
	for desc, f := range forms {
		f.Walk(func(node *lwcomp.Form) error {
			covered[node.Scheme] = true
			return nil
		})
		enc, err := lwcomp.EncodeForm(f)
		if err != nil {
			t.Fatalf("%s: EncodeForm: %v", desc, err)
		}
		got, consumed, err := lwcomp.DecodeForm(enc)
		if err != nil {
			t.Fatalf("%s: DecodeForm: %v", desc, err)
		}
		if consumed != len(enc) {
			t.Fatalf("%s: consumed %d of %d bytes", desc, consumed, len(enc))
		}
		// Decode→re-encode is byte-identical (canonical encoding).
		enc2, err := lwcomp.EncodeForm(got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", desc, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("%s: re-encoded bytes differ", desc)
		}
		want, err := lwcomp.Decompress(f)
		if err != nil {
			t.Fatalf("%s: Decompress original: %v", desc, err)
		}
		back, err := lwcomp.Decompress(got)
		if err != nil || !equal(back, want) {
			t.Fatalf("%s: decoded form decompresses differently (%v)", desc, err)
		}
	}
	for _, name := range lwcomp.Schemes() {
		if !covered[name] {
			t.Errorf("registered scheme %q not covered by any serialized form", name)
		}
	}
}

// TestSerializationTruncation: every proper prefix of an encoded
// form must fail with ErrCorrupt — never panic, never succeed.
func TestSerializationTruncation(t *testing.T) {
	for desc, f := range serializationForms(t) {
		enc, err := lwcomp.EncodeForm(f)
		if err != nil {
			t.Fatal(err)
		}
		cuts := []int{0, 1, 2, len(enc) / 3, len(enc) / 2, len(enc) - 1}
		for _, k := range cuts {
			if k < 0 || k >= len(enc) {
				continue
			}
			_, _, err := lwcomp.DecodeForm(enc[:k])
			if err == nil {
				t.Fatalf("%s: truncation to %d of %d bytes decoded successfully", desc, k, len(enc))
			}
			if !errors.Is(err, lwcomp.ErrCorrupt) {
				t.Fatalf("%s: truncation to %d: err = %v, want ErrCorrupt", desc, k, err)
			}
		}
	}
}

// TestSerializationBitFlips: flipping any byte of an encoded form
// must never panic; when it fails, it fails with ErrCorrupt.
func TestSerializationBitFlips(t *testing.T) {
	for desc, f := range serializationForms(t) {
		enc, err := lwcomp.EncodeForm(f)
		if err != nil {
			t.Fatal(err)
		}
		step := len(enc)/64 + 1
		for pos := 0; pos < len(enc); pos += step {
			mut := append([]byte{}, enc...)
			mut[pos] ^= 0x55
			_, _, err := lwcomp.DecodeForm(mut)
			if err != nil && !errors.Is(err, lwcomp.ErrCorrupt) {
				t.Fatalf("%s: flip at %d: err = %v, want ErrCorrupt or nil", desc, pos, err)
			}
		}
	}
}

// TestContainerCorruption: every container generation detects
// truncation and bit flips via structure or checksum — v3 through
// ReadColumns, the legacy fixtures through the upgrade's decoder.
func TestContainerCorruption(t *testing.T) {
	data := workload.OrderShipDates(8000, 50, 730120, 16)
	col, err := lwcomp.Encode(data, lwcomp.WithBlockSize(1<<11))
	if err != nil {
		t.Fatal(err)
	}

	var v3 bytes.Buffer
	if err := lwcomp.WriteColumns(&v3, []lwcomp.NamedColumn{{Name: "c", Col: col}}); err != nil {
		t.Fatal(err)
	}

	check := func(label string, read func([]byte) error, blob []byte) {
		// Bit flips anywhere (magic, body, CRC) must be rejected.
		step := len(blob)/48 + 1
		for pos := 0; pos < len(blob); pos += step {
			mut := append([]byte{}, blob...)
			mut[pos] ^= 0x01
			err := read(mut)
			if err == nil {
				t.Fatalf("%s: flip at byte %d accepted", label, pos)
			}
			if !errors.Is(err, lwcomp.ErrChecksum) && !errors.Is(err, lwcomp.ErrCorrupt) {
				t.Fatalf("%s: flip at byte %d: err = %v, want ErrChecksum/ErrCorrupt", label, pos, err)
			}
		}
		for _, k := range []int{0, 3, len(blob) / 2, len(blob) - 1} {
			if err := read(blob[:k]); err == nil {
				t.Fatalf("%s: truncation to %d bytes accepted", label, k)
			}
		}
		if err := read(blob); err != nil {
			t.Fatalf("%s: pristine container rejected: %v", label, err)
		}
	}

	check("v3/ReadColumns", func(b []byte) error {
		_, err := lwcomp.ReadColumns(bytes.NewReader(b))
		return err
	}, v3.Bytes())
	for _, name := range []string{"v1.lwc", "v2.lwc"} {
		check(name+"/ReadLegacy", func(b []byte) error {
			_, err := storage.ReadLegacy(b)
			return err
		}, legacyFixture(t, name))
	}
}
