package scheme

import (
	"testing"
	"testing/quick"

	"lwcomp/internal/core"
	"lwcomp/internal/vec"
)

// runnyColumn returns a column with run structure for the RLE
// identities.
func runnyColumn(n int) []int64 {
	out := make([]int64, n)
	v := int64(50)
	for i := range out {
		if i%7 == 0 {
			v += int64(i % 3)
		}
		out[i] = v
	}
	return out
}

// TestDecomposeRLEIdentity verifies the paper's §II-A identity
// RLE ≡ (ID, DELTA) ∘ RPE: the decomposed form decompresses to the
// same column, and — because the rewrite is structural — shares its
// payload bits with the original.
func TestDecomposeRLEIdentity(t *testing.T) {
	src := runnyColumn(500)
	rleForm, err := RLE{}.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	rpeForm, err := DecomposeRLE(rleForm)
	if err != nil {
		t.Fatal(err)
	}
	if rpeForm.Scheme != RPEName {
		t.Fatalf("decomposed scheme = %q", rpeForm.Scheme)
	}
	if rpeForm.Children["positions"].Scheme != DeltaName {
		t.Fatalf("positions child = %q, want delta", rpeForm.Children["positions"].Scheme)
	}
	got, err := core.Decompress(rpeForm)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(got, src) {
		t.Fatal("decomposed form decompresses differently")
	}
	// Structural rewrite: payloads are shared, so sizes differ only
	// by the extra form headers of the two added nodes.
	if rpeForm.PayloadBits() < rleForm.PayloadBits() {
		t.Fatal("decomposition lost payload bits")
	}
}

func TestRecomposeRLEStructuralInverse(t *testing.T) {
	src := runnyColumn(300)
	rleForm, err := RLE{}.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	rpeForm, err := DecomposeRLE(rleForm)
	if err != nil {
		t.Fatal(err)
	}
	back, err := RecomposeRLE(rpeForm)
	if err != nil {
		t.Fatal(err)
	}
	if back.Scheme != RLEName {
		t.Fatalf("recomposed scheme = %q", back.Scheme)
	}
	got, err := core.Decompress(back)
	if err != nil || !vec.Equal(got, src) {
		t.Fatalf("recomposed roundtrip: %v", err)
	}
	// The lengths payload must be the very same column.
	origLengths, _ := core.DecompressChild(rleForm, "lengths")
	backLengths, _ := core.DecompressChild(back, "lengths")
	if !vec.Equal(origLengths, backLengths) {
		t.Fatal("recomposition altered lengths")
	}
}

func TestRecomposeRLEFromPureRPE(t *testing.T) {
	// An RPE form compressed directly (positions as a pure column)
	// recomposes numerically.
	src := runnyColumn(200)
	rpeForm, err := RPE{}.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	back, err := RecomposeRLE(rpeForm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Decompress(back)
	if err != nil || !vec.Equal(got, src) {
		t.Fatalf("numeric recomposition roundtrip: %v", err)
	}
}

func TestPartialDecompressRLE(t *testing.T) {
	src := runnyColumn(400)
	rleForm, err := RLEComposite().Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	rpeForm, err := PartialDecompressRLE(rleForm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Decompress(rpeForm)
	if err != nil || !vec.Equal(got, src) {
		t.Fatalf("partial decompression roundtrip: %v", err)
	}
	// The partially decompressed form must be larger (positions are
	// materialized raw) — the paper's ratio-for-ease trade.
	if rpeForm.PayloadBits() <= rleForm.PayloadBits() {
		t.Fatalf("partial decompression should cost bits: rle %d, rpe %d",
			rleForm.PayloadBits(), rpeForm.PayloadBits())
	}
}

// TestDecomposeFORIdentity verifies FOR ≡ (STEPFUNCTION + NS).
func TestDecomposeFORIdentity(t *testing.T) {
	src := make([]int64, 500)
	v := int64(10000)
	for i := range src {
		v += int64(i%17) - 8
		src[i] = v
	}
	forForm, err := FORComposite(64).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	plusForm, err := DecomposeFOR(forForm)
	if err != nil {
		t.Fatal(err)
	}
	if plusForm.Scheme != PlusName {
		t.Fatalf("decomposed scheme = %q", plusForm.Scheme)
	}
	model, _ := plusForm.Child("model")
	if model.Scheme != StepName {
		t.Fatalf("model child = %q", model.Scheme)
	}
	residual, _ := plusForm.Child("residual")
	if residual.Scheme != NSName {
		t.Fatalf("residual child = %q (offsets were NS-composed)", residual.Scheme)
	}
	got, err := core.Decompress(plusForm)
	if err != nil || !vec.Equal(got, src) {
		t.Fatalf("decomposed FOR roundtrip: %v", err)
	}
}

func TestRecomposeFORInverse(t *testing.T) {
	src := make([]int64, 300)
	for i := range src {
		src[i] = int64(1000 + i%50)
	}
	forForm, err := FOR{SegLen: 32}.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	plusForm, err := DecomposeFOR(forForm)
	if err != nil {
		t.Fatal(err)
	}
	back, err := RecomposeFOR(plusForm)
	if err != nil {
		t.Fatal(err)
	}
	if back.Scheme != FORName {
		t.Fatalf("recomposed scheme = %q", back.Scheme)
	}
	if back.Params["seglen"] != 32 {
		t.Fatalf("seglen = %d", back.Params["seglen"])
	}
	got, err := core.Decompress(back)
	if err != nil || !vec.Equal(got, src) {
		t.Fatalf("recomposed FOR roundtrip: %v", err)
	}
}

func TestRewriteIdentityProperty(t *testing.T) {
	check := func(raw []uint8) bool {
		src := make([]int64, len(raw)+1)
		for i, r := range raw {
			src[i] = int64(r % 4)
		}
		rleForm, err := RLE{}.Compress(src)
		if err != nil {
			return false
		}
		rpeForm, err := DecomposeRLE(rleForm)
		if err != nil {
			return false
		}
		a, err := core.Decompress(rpeForm)
		if err != nil {
			return false
		}
		forForm, err := FOR{SegLen: 8}.Compress(src)
		if err != nil {
			return false
		}
		plusForm, err := DecomposeFOR(forForm)
		if err != nil {
			return false
		}
		b, err := core.Decompress(plusForm)
		if err != nil {
			return false
		}
		return vec.Equal(a, src) && vec.Equal(b, src)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRewriteWrongSchemeRejected(t *testing.T) {
	idForm := NewIDForm([]int64{1})
	if _, err := DecomposeRLE(idForm); err == nil {
		t.Fatal("DecomposeRLE accepted id form")
	}
	if _, err := RecomposeRLE(idForm); err == nil {
		t.Fatal("RecomposeRLE accepted id form")
	}
	if _, err := DecomposeFOR(idForm); err == nil {
		t.Fatal("DecomposeFOR accepted id form")
	}
	if _, err := RecomposeFOR(idForm); err == nil {
		t.Fatal("RecomposeFOR accepted id form")
	}
	if _, err := PartialDecompressRLE(idForm); err == nil {
		t.Fatal("PartialDecompressRLE accepted id form")
	}
	// RecomposeFOR requires a STEP model.
	plus, err := NewPlusForm(NewIDForm([]int64{1}), NewIDForm([]int64{2}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RecomposeFOR(plus); err == nil {
		t.Fatal("RecomposeFOR accepted non-step model")
	}
}

// TestDeltaFirstIdentities: a delta form whose first value is not 0
// decodes the same through its operator plan as through its kernel,
// and the RLE rewrites keep it exact — DecomposeRLE then RecomposeRLE
// gives back the form it started from, and an RPE form whose delta
// positions start elsewhere than 0 recomposes by value, not by
// structure.
func TestDeltaFirstIdentities(t *testing.T) {
	const minI, maxI = -1 << 63, 1<<63 - 1
	cols := map[string][]int64{
		"walk":   {1 << 30, 1<<30 + 3, 1<<30 - 2, 1<<30 - 2, 1<<30 + 9},
		"neg":    {-1 << 40, -1<<40 + 1, -1 << 40, 5},
		"wrap":   {maxI, minI, maxI, 0, minI, -1},
		"single": {-7},
	}
	schemes := map[string]core.Scheme{
		"delta":      Delta{},
		"delta(ns)":  DeltaNS(),
		"delta(vns)": core.Compose(Delta{}, map[string]core.Scheme{"deltas": VNS{Block: 2}}),
	}
	for cn, col := range cols {
		for sn, s := range schemes {
			f, err := s.Compress(col)
			if err != nil {
				t.Fatalf("%s on %s: %v", sn, cn, err)
			}
			if DeltaFirst(f) != col[0] {
				t.Fatalf("%s on %s: first = %d, want %d", sn, cn, DeltaFirst(f), col[0])
			}
			kernel, err := core.Decompress(f)
			if err != nil || !vec.Equal(kernel, col) {
				t.Fatalf("%s on %s: kernel = %v, %v", sn, cn, kernel, err)
			}
			for _, fuse := range []bool{false, true} {
				if got, err := core.DecompressViaPlan(f, fuse); err != nil || !vec.Equal(got, kernel) {
					t.Errorf("%s on %s: plan (fuse %v) = %v, %v; kernel %v", sn, cn, fuse, got, err, kernel)
				}
			}
		}
	}

	src := runnyColumn(300)
	for i := range src {
		src[i] += 1 << 35
	}
	rle, err := RLEDeltaComposite().Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	if first := DeltaFirst(rle.Children["values"]); first != src[0] {
		t.Fatalf("run values' first = %d, want %d", first, src[0])
	}
	rpe, err := DecomposeRLE(rle)
	if err != nil {
		t.Fatal(err)
	}
	back, err := RecomposeRLE(rpe)
	if err != nil {
		t.Fatal(err)
	}
	if back.Describe() != rle.Describe() || back.Children["lengths"] != rle.Children["lengths"] ||
		back.Children["values"] != rle.Children["values"] {
		t.Fatalf("RecomposeRLE(DecomposeRLE(f)) = %s, not f = %s", back.Describe(), rle.Describe())
	}

	// Positions delta-compressed from their first value: the deltas are
	// not the run lengths, so the recomposition differentiates.
	rpeDelta, err := core.Compose(RPE{}, map[string]core.Scheme{"positions": DeltaNS(), "values": NS{}}).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	if DeltaFirst(rpeDelta.Children["positions"]) == 0 {
		t.Fatal("positions' first value is 0; the test needs another")
	}
	back, err = RecomposeRLE(rpeDelta)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := core.Decompress(back); err != nil || !vec.Equal(got, src) {
		t.Fatalf("recomposed from delta positions: %v", err)
	}
}
