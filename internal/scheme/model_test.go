package scheme

import (
	"math/rand"
	"testing"

	"lwcomp/internal/core"
	"lwcomp/internal/vec"
)

// trendColumn is noise around a rising line: the workload where the
// paper's piecewise-linear model should beat the step model.
func trendColumn(n int, slope float64, noise int64, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(float64(i)*slope) + rng.Int63n(2*noise+1) - noise
	}
	return out
}

func TestModelResidualFORIdentity(t *testing.T) {
	// Plus{Step} over NS residuals must be value-equivalent to FOR+NS:
	// same refs (segment minima), same offsets.
	src := trendColumn(1000, 3.0, 20, 1)
	mrForm, err := StepNS(128).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	forForm, err := FORComposite(128).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	// Both decompress to src.
	a, err := core.Decompress(mrForm)
	if err != nil || !vec.Equal(a, src) {
		t.Fatalf("model-residual roundtrip: %v", err)
	}
	// The residual payload width matches FOR's offsets width.
	resid, _ := mrForm.Child("residual")
	offs, _ := forForm.Child("offsets")
	if resid.Params["width"] != offs.Params["width"] {
		t.Fatalf("residual width %d != offsets width %d",
			resid.Params["width"], offs.Params["width"])
	}
}

func TestLinearFitterShrinksResidualsOnTrends(t *testing.T) {
	src := trendColumn(4096, 7.5, 10, 2)
	stepForm, err := StepNS(256).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	linForm, err := LinearNS(256).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	stepResid, _ := stepForm.Child("residual")
	linResid, _ := linForm.Child("residual")
	if linResid.Params["width"] >= stepResid.Params["width"] {
		t.Fatalf("linear residual width %d should beat step %d on a slope-7.5 trend",
			linResid.Params["width"], stepResid.Params["width"])
	}
	got, err := core.Decompress(linForm)
	if err != nil || !vec.Equal(got, src) {
		t.Fatalf("linear model roundtrip: %v", err)
	}
}

// fitPredictions fits m to src and evaluates the fit, as Plus and Patch
// do.
func fitPredictions(t *testing.T, m Model, src []int64) (*core.Form, []int64) {
	t.Helper()
	form, pred, err := fitModel("test", m, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return form, pred
}

func TestLinearFitterResidualsNonNegative(t *testing.T) {
	src := trendColumn(512, -3.3, 15, 3)
	form, pred := fitPredictions(t, Linear{SegLen: 64}, src)
	if form.Scheme != LinearName {
		t.Fatalf("fit scheme = %q", form.Scheme)
	}
	for i := range src {
		if src[i]-pred[i] < 0 {
			t.Fatalf("negative residual at %d", i)
		}
	}
}

func TestStepFitterPredictionsAreMinima(t *testing.T) {
	src := []int64{5, 3, 9, 100, 50, 80}
	form, pred := fitPredictions(t, Step{SegLen: 3}, src)
	refs, _ := core.DecompressChild(form, "refs")
	if !vec.Equal(refs, []int64{3, 50}) {
		t.Fatalf("refs = %v", refs)
	}
	if !vec.Equal(pred, []int64{3, 3, 3, 50, 50, 50}) {
		t.Fatalf("pred = %v", pred)
	}
}

func TestPFORSplitsOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := make([]int64, 8192)
	for i := range src {
		src[i] = 1000 + rng.Int63n(256) // 8-bit offsets
	}
	// 1% outliers far away.
	for i := 0; i < len(src); i += 100 {
		src[i] = 1 << 40
	}
	pforForm, err := PFORComposite(1024).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	positions, _ := core.DecompressChild(pforForm, "positions")
	if len(positions) == 0 {
		t.Fatal("no exceptions extracted")
	}
	got, err := core.Decompress(pforForm)
	if err != nil || !vec.Equal(got, src) {
		t.Fatalf("pfor roundtrip: %v", err)
	}
	// PFOR must beat plain FOR+NS on this data.
	forForm, err := FORComposite(1024).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	if pforForm.PayloadBits() >= forForm.PayloadBits() {
		t.Fatalf("pfor %d bits should beat for %d bits with 1%% outliers",
			pforForm.PayloadBits(), forForm.PayloadBits())
	}
}

func TestPFORNoOutliersDegeneratesToFOR(t *testing.T) {
	src := make([]int64, 2048)
	for i := range src {
		src[i] = int64(i % 100)
	}
	pforForm, err := PFORComposite(512).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	positions, _ := core.DecompressChild(pforForm, "positions")
	if len(positions) != 0 {
		t.Fatalf("uniform data produced %d exceptions", len(positions))
	}
	got, err := core.Decompress(pforForm)
	if err != nil || !vec.Equal(got, src) {
		t.Fatalf("roundtrip: %v", err)
	}
}

func TestPFORMaxExceptionRate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src := make([]int64, 4096)
	for i := range src {
		if rng.Float64() < 0.3 {
			src[i] = rng.Int63n(1 << 40)
		} else {
			src[i] = rng.Int63n(64)
		}
	}
	form, err := core.Compose(Patch{Model: Step{SegLen: 1024}, MaxExceptionRate: 0.05},
		map[string]core.Scheme{"base": FORComposite(1024)}).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	positions, _ := core.DecompressChild(form, "positions")
	if rate := float64(len(positions)) / float64(len(src)); rate > 0.05 {
		t.Fatalf("exception rate %.3f exceeds bound", rate)
	}
	got, err := core.Decompress(form)
	if err != nil || !vec.Equal(got, src) {
		t.Fatalf("roundtrip: %v", err)
	}
}

func TestModelResidualNames(t *testing.T) {
	mr := StepNS(128)
	if mr.Name() != "plus[step[128]](residual=ns)" {
		t.Fatalf("name = %q", mr.Name())
	}
	p := PFORComposite(256)
	if p.Name() != "patch[step[256]](base=for(offsets=ns, refs=ns))" {
		t.Fatalf("name = %q", p.Name())
	}
}

func TestDefaultCandidatesPruning(t *testing.T) {
	// A high-cardinality run-free column must not include RLE or DICT
	// candidates.
	src := make([]int64, 4096)
	for i := range src {
		src[i] = int64(i * 977 % (1 << 30))
	}
	stats := statsForTest(src)
	for _, c := range DefaultCandidates(stats) {
		if c.Name() == "rle(lengths=ns, values=ns)" {
			t.Fatal("RLE offered for run-free data")
		}
	}
}
