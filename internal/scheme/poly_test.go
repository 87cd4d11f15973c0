package scheme

import (
	"errors"
	"math/rand"
	"testing"

	"lwcomp/internal/core"
	"lwcomp/internal/vec"
)

func TestPoly2ExactRoundTrip(t *testing.T) {
	// Exactly quadratic per segment of 8 with frac-representable
	// coefficients.
	src := make([]int64, 32)
	for i := range src {
		seg := i / 8
		j := int64(i % 8)
		src[i] = int64(100*seg) + 3*j + 2*j*j
	}
	f, err := (Poly2{SegLen: 8}).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Decompress(f)
	if err != nil || !vec.Equal(got, src) {
		t.Fatalf("poly2 roundtrip: %v", err)
	}
	if _, err := (Poly2{SegLen: 8}).Compress([]int64{0, 7, 1, 9, 2, 8, 3, 6}); !errors.Is(err, core.ErrNotRepresentable) {
		t.Fatalf("non-quadratic err = %v", err)
	}
}

func TestPoly2FitterRoundTrip(t *testing.T) {
	// Quadratic trend + noise; the model-residual combinator must be
	// lossless and the residual width must beat linear's.
	rng := rand.New(rand.NewSource(4))
	src := make([]int64, 8192)
	for i := range src {
		x := float64(i % 1024)
		src[i] = int64(0.02*x*x) + rng.Int63n(21) - 10
	}
	polyForm, err := Poly2NS(1024).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Decompress(polyForm)
	if err != nil || !vec.Equal(got, src) {
		t.Fatalf("poly2 model roundtrip: %v", err)
	}
	linForm, err := LinearNS(1024).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	pResid, _ := polyForm.Child("residual")
	lResid, _ := linForm.Child("residual")
	if pResid.Params["width"] >= lResid.Params["width"] {
		t.Fatalf("poly2 residual width %d should beat linear %d on a parabola",
			pResid.Params["width"], lResid.Params["width"])
	}
}

func TestPoly2FitterResidualsNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := make([]int64, 2048)
	for i := range src {
		x := float64(i % 256)
		src[i] = int64(-0.05*x*x+3*x) + rng.Int63n(9) - 4
	}
	_, pred := fitPredictions(t, Poly2{SegLen: 256}, src)
	for i := range src {
		if src[i]-pred[i] < 0 {
			t.Fatalf("negative residual at %d", i)
		}
	}
}

func TestPoly2DegenerateSegments(t *testing.T) {
	// Segments of length 1 and 2 take the short-circuit fits.
	for _, src := range [][]int64{{7}, {7, 9}, {7, 9, 13}} {
		f, err := (Poly2{SegLen: len(src)}).Compress(src)
		if err != nil {
			// length-3 may or may not be exactly representable in
			// fixed point; only assert on 1 and 2.
			if len(src) < 3 {
				t.Fatalf("n=%d: %v", len(src), err)
			}
			continue
		}
		got, err := core.Decompress(f)
		if err != nil || !vec.Equal(got, src) {
			t.Fatalf("n=%d roundtrip: %v", len(src), err)
		}
	}
}

func TestPoly2CorruptForms(t *testing.T) {
	bad := []*core.Form{
		{Scheme: Poly2Name, N: 4, Params: core.Params{"seglen": 0, "frac": 16}},
		{Scheme: Poly2Name, N: 4, Params: core.Params{"seglen": 2, "frac": 50}},
		{Scheme: Poly2Name, N: 4, Params: core.Params{"seglen": 2, "frac": 16},
			Children: map[string]*core.Form{
				"c0": NewIDForm([]int64{1}),
				"c1": NewIDForm([]int64{1, 2}),
				"c2": NewIDForm([]int64{1, 2}),
			}},
	}
	for i, f := range bad {
		if _, err := core.Decompress(f); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPatchedModelLinear(t *testing.T) {
	// Linear trend + noise + spikes: the patched linear model must
	// round-trip and beat both plain linear (ruined residual width)
	// and PFOR (step model pays slope·seglen bits).
	rng := rand.New(rand.NewSource(6))
	src := make([]int64, 16384)
	for i := range src {
		src[i] = int64(8*i) + rng.Int63n(25) - 12
	}
	for i := 100; i < len(src); i += 500 {
		src[i] += 1 << 35
	}
	pm := PatchedLinearNS(1024)
	pmForm, err := pm.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Decompress(pmForm)
	if err != nil || !vec.Equal(got, src) {
		t.Fatalf("patched linear roundtrip: %v", err)
	}
	positions, _ := core.DecompressChild(pmForm, "positions")
	if len(positions) == 0 {
		t.Fatal("no patches extracted")
	}

	linForm, err := LinearNS(1024).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	pforForm, err := PFORComposite(1024).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	if pmForm.PayloadBits() >= linForm.PayloadBits() {
		t.Fatalf("patched linear %d bits should beat unpatched %d", pmForm.PayloadBits(), linForm.PayloadBits())
	}
	if pmForm.PayloadBits() >= pforForm.PayloadBits() {
		t.Fatalf("patched linear %d bits should beat pfor %d on a slope-8 trend",
			pmForm.PayloadBits(), pforForm.PayloadBits())
	}
}

func TestPatchedModelNoOutliers(t *testing.T) {
	src := make([]int64, 4096)
	for i := range src {
		src[i] = int64(3 * i)
	}
	pm := PatchedLinearNS(512)
	f, err := pm.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Decompress(f)
	if err != nil || !vec.Equal(got, src) {
		t.Fatalf("roundtrip: %v", err)
	}
}

func TestPatchedModelName(t *testing.T) {
	pm := PatchedLinearNS(256)
	if pm.Name() != "patch[linear[256]](base=plus[linear[256]](residual=ns))" {
		t.Fatalf("name = %q", pm.Name())
	}
}
