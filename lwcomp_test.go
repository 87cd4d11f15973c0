package lwcomp_test

import (
	"bytes"
	"errors"
	"testing"

	"lwcomp"
	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/workload"
)

func equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPublicAPIEndToEnd exercises the documented quick-start flow.
func TestPublicAPIEndToEnd(t *testing.T) {
	dates := workload.OrderShipDates(20000, 50, 730120, 1)

	form, err := lwcomp.CompressBest(dates)
	if err != nil {
		t.Fatal(err)
	}
	back, err := lwcomp.Decompress(form)
	if err != nil || !equal(back, dates) {
		t.Fatalf("roundtrip: %v", err)
	}

	// Query without decompressing.
	var want int64
	for _, v := range dates {
		want += v
	}
	got, err := lwcomp.Sum(form)
	if err != nil || got != want {
		t.Fatalf("Sum = %d, want %d (%v)", got, want, err)
	}

	lo, hi := dates[100], dates[300]
	var wantCount int64
	for _, v := range dates {
		if v >= lo && v <= hi {
			wantCount++
		}
	}
	count, err := lwcomp.CountRange(form, lo, hi)
	if err != nil || count != wantCount {
		t.Fatalf("CountRange = %d, want %d (%v)", count, wantCount, err)
	}

	// Serialize and read back.
	col, err := lwcomp.ColumnFromForm(form)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lwcomp.WriteColumns(&buf, []lwcomp.NamedColumn{{Name: "ship_date", Col: col}}); err != nil {
		t.Fatal(err)
	}
	cols, err := lwcomp.ReadColumns(bytes.NewReader(buf.Bytes()))
	if err != nil || len(cols) != 1 {
		t.Fatalf("container: %v", err)
	}
	back, err = cols[0].Col.Decompress()
	if err != nil || !equal(back, dates) {
		t.Fatalf("container roundtrip: %v", err)
	}
}

func TestPublicComposition(t *testing.T) {
	dates := workload.OrderShipDates(5000, 30, 730120, 2)
	s := lwcomp.Compose(lwcomp.RLE(), map[string]lwcomp.Scheme{
		"lengths": lwcomp.NS(),
		"values": lwcomp.Compose(lwcomp.Delta(), map[string]lwcomp.Scheme{
			"deltas": lwcomp.NS(),
		}),
	})
	form, err := s.Compress(dates)
	if err != nil {
		t.Fatal(err)
	}
	if form.Describe() != "rle(lengths=ns, values=delta(deltas=ns))" {
		t.Fatalf("Describe = %q", form.Describe())
	}
	back, err := lwcomp.Decompress(form)
	if err != nil || !equal(back, dates) {
		t.Fatalf("roundtrip: %v", err)
	}
	// Same bytes as the packaged convenience composite.
	conv, err := lwcomp.RLEDeltaNS().Compress(dates)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := lwcomp.EncodeForm(form)
	b, _ := lwcomp.EncodeForm(conv)
	if !bytes.Equal(a, b) {
		t.Fatal("hand-built composition differs from convenience composite")
	}
}

func TestPublicRewrites(t *testing.T) {
	dates := workload.OrderShipDates(3000, 25, 730120, 3)
	rle, err := lwcomp.RLENS().Compress(dates)
	if err != nil {
		t.Fatal(err)
	}
	rpe, err := lwcomp.DecomposeRLE(rle)
	if err != nil {
		t.Fatal(err)
	}
	back, err := lwcomp.Decompress(rpe)
	if err != nil || !equal(back, dates) {
		t.Fatalf("decomposed roundtrip: %v", err)
	}
	again, err := lwcomp.RecomposeRLE(rpe)
	if err != nil {
		t.Fatal(err)
	}
	back, err = lwcomp.Decompress(again)
	if err != nil || !equal(back, dates) {
		t.Fatalf("recomposed roundtrip: %v", err)
	}

	walk := workload.RandomWalk(3000, 8, 1<<25, 4)
	forForm, err := lwcomp.FORNS(128).Compress(walk)
	if err != nil {
		t.Fatal(err)
	}
	plus, err := lwcomp.DecomposeFOR(forForm)
	if err != nil {
		t.Fatal(err)
	}
	back, err = lwcomp.Decompress(plus)
	if err != nil || !equal(back, walk) {
		t.Fatalf("FOR decomposition roundtrip: %v", err)
	}
}

func TestPublicPlanDecompression(t *testing.T) {
	dates := workload.OrderShipDates(2000, 20, 730120, 5)
	form, err := lwcomp.RLENS().Compress(dates)
	if err != nil {
		t.Fatal(err)
	}
	plan, env, err := lwcomp.PlanOf(form)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Inputs()) != 2 || len(env) != 2 {
		t.Fatalf("plan inputs = %v", plan.Inputs())
	}
	for _, fuse := range []bool{false, true} {
		got, err := lwcomp.DecompressViaPlan(form, fuse)
		if err != nil || !equal(got, dates) {
			t.Fatalf("plan decompression (fuse=%v): %v", fuse, err)
		}
	}
}

func TestPublicApproxAndGradual(t *testing.T) {
	walk := workload.RandomWalk(8192, 10, 1<<20, 6)
	var want int64
	for _, v := range walk {
		want += v
	}
	form, err := lwcomp.FORNS(256).Compress(walk)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := lwcomp.ApproxSum(form)
	if err != nil || !iv.Contains(want) {
		t.Fatalf("approx interval misses truth: %+v, %v", iv, err)
	}
	g, err := lwcomp.NewGradualSummer(form)
	if err != nil {
		t.Fatal(err)
	}
	for !g.Done() {
		if _, err := g.Refine(4); err != nil {
			t.Fatal(err)
		}
	}
	if final := g.Bounds(); final.Lower != want || final.Width() != 0 {
		t.Fatalf("gradual sum = %+v, want %d", final, want)
	}
}

func TestPublicErrorsAndRegistry(t *testing.T) {
	if _, err := lwcomp.Compress("no-such-scheme", []int64{1}); !errors.Is(err, lwcomp.ErrUnknownScheme) {
		t.Fatalf("unknown scheme err = %v", err)
	}
	names := lwcomp.Schemes()
	wantNames := map[string]bool{"id": false, "ns": false, "rle": false, "rpe": false,
		"for": false, "delta": false, "dict": false, "step": false, "linear": false,
		"plus": false, "patch": false, "vns": false, "varint": false, "elias": false, "const": false}
	for _, n := range names {
		if _, ok := wantNames[n]; ok {
			wantNames[n] = true
		}
	}
	for n, seen := range wantNames {
		if !seen {
			t.Errorf("scheme %q not registered", n)
		}
	}
	st := lwcomp.Analyze([]int64{1, 1, 2})
	if st.N != 3 || st.Runs != 2 {
		t.Fatalf("Analyze = %+v", st)
	}
}

func TestPublicTreePlan(t *testing.T) {
	dates := workload.OrderShipDates(4000, 32, 730120, 8)
	form, err := lwcomp.RLEDeltaNS().Compress(dates)
	if err != nil {
		t.Fatal(err)
	}
	plan, env, err := lwcomp.PlanTree(form)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Inputs()) != 2 || len(env) != 2 {
		t.Fatalf("tree plan inputs = %v", plan.Inputs())
	}
	for _, fuse := range []bool{false, true} {
		got, err := lwcomp.DecompressViaTreePlan(form, fuse)
		if err != nil || !equal(got, dates) {
			t.Fatalf("tree plan (fuse=%v): %v", fuse, err)
		}
	}
}

func TestPublicAggregates(t *testing.T) {
	walk := workload.RandomWalk(3000, 7, 500, 9)
	form, err := lwcomp.FORNS(128).Compress(walk)
	if err != nil {
		t.Fatal(err)
	}
	var wantMin, wantMax int64 = walk[0], walk[0]
	for _, v := range walk {
		if v < wantMin {
			wantMin = v
		}
		if v > wantMax {
			wantMax = v
		}
	}
	if got, err := lwcomp.Min(form); err != nil || got != wantMin {
		t.Fatalf("Min = %d, want %d (%v)", got, wantMin, err)
	}
	if got, err := lwcomp.Max(form); err != nil || got != wantMax {
		t.Fatalf("Max = %d, want %d (%v)", got, wantMax, err)
	}
	lc := workload.LowCardinality(3000, 16, 10)
	df, err := lwcomp.DictNS().Compress(lc)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, v := range lc {
		seen[v] = true
	}
	if got, err := lwcomp.DistinctCount(df); err != nil || got != int64(len(seen)) {
		t.Fatalf("DistinctCount = %d, want %d (%v)", got, len(seen), err)
	}
}

func TestPublicRicherModels(t *testing.T) {
	// Quadratic trend: poly2 must round-trip and beat linear.
	src := make([]int64, 8192)
	for i := range src {
		x := int64(i % 1024)
		src[i] = x*x/50 + int64(i%7)
	}
	for _, s := range []lwcomp.Scheme{lwcomp.Poly2NS(1024), lwcomp.PatchedLinearNS(1024)} {
		form, err := s.Compress(src)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		back, err := lwcomp.Decompress(form)
		if err != nil || !equal(back, src) {
			t.Fatalf("%s roundtrip: %v", s.Name(), err)
		}
	}
	// The parser reaches them too.
	for _, expr := range []string{"poly2ns[512]", "plinearns[512]", "poly2[1024]"} {
		if _, err := lwcomp.ParseScheme(expr); err != nil {
			t.Fatalf("ParseScheme(%q): %v", expr, err)
		}
	}
}

// TestPublicCompressBestChoice pins the public search report: on
// width-skewed data elias is the smallest encoding, and the winner's
// Bits is its form's size and round-trips.
func TestPublicCompressBestChoice(t *testing.T) {
	data := workload.SkewedMagnitude(20000, 40, 4)
	choice, err := lwcomp.CompressBestChoice(data)
	if err != nil {
		t.Fatal(err)
	}
	if choice.Desc != "elias" || choice.Bits != choice.Form.PayloadBits() {
		t.Fatalf("winner %q at %d bits, form %d bits", choice.Desc, choice.Bits, choice.Form.PayloadBits())
	}
	back, err := lwcomp.Decompress(choice.Form)
	if err != nil || !equal(back, data) {
		t.Fatalf("roundtrip: %v", err)
	}
}

// TestExhaustiveRankingTruthful pins what the search reports about
// each candidate: one it compressed carries its measured
// size; one it did not carries what the skip rests on — a price that
// proves something or, behind a heuristic price, a floor — which
// really bounds the size the candidate compresses to and already could
// not beat the winner; one the stats prove impossible carries
// ErrNotRepresentable without having been tried. No floor exceeds the
// size its candidate compresses to.
func TestExhaustiveRankingTruthful(t *testing.T) {
	for _, sh := range workload.MaintainShapes(20000, 3) {
		st := core.CollectStats(sh.Data, nil)
		cands := append(scheme.DefaultCandidates(&st), scheme.Const{})
		choice, err := (&core.Analyzer{Candidates: cands, Stats: &st}).Best(sh.Data)
		if err != nil {
			t.Fatal(err)
		}
		if len(choice.Ranking) != len(cands) {
			t.Fatalf("%s: %d ranking entries for %d candidates", sh.Name, len(choice.Ranking), len(cands))
		}
		winner, skipped := -1, 0
		for i, r := range choice.Ranking {
			if r.Trialed && r.Bits == choice.Bits && r.Desc == choice.Desc && winner < 0 {
				winner = i
			}
		}
		if winner < 0 {
			t.Fatalf("%s: winner %s is not a compressed ranking entry", sh.Name, choice.Desc)
		}
		for i, r := range choice.Ranking {
			form, cerr := cands[i].Compress(sh.Data)
			if cerr == nil && r.EstFloor > form.PayloadBits() {
				t.Errorf("%s: %s floor %d bits above its actual %d", sh.Name, r.Desc, r.EstFloor, form.PayloadBits())
			}
			switch {
			case r.EstBits == core.ImpossibleBits:
				if r.Trialed || !errors.Is(r.Err, lwcomp.ErrNotRepresentable) || !errors.Is(cerr, lwcomp.ErrNotRepresentable) {
					t.Errorf("%s: %s priced impossible: trialed=%v err=%v, compress err=%v", sh.Name, r.Desc, r.Trialed, r.Err, cerr)
				}
			case r.Trialed:
				if cerr != nil || r.Err != nil || r.Bits != form.PayloadBits() {
					t.Errorf("%s: %s compressed: reports %d bits, err %v; actual %v", sh.Name, r.Desc, r.Bits, r.Err, cerr)
				}
			default:
				skipped++
				if r.Err != nil || cerr != nil {
					t.Errorf("%s: %s neither compressed nor priced impossible: err=%v, compress err=%v", sh.Name, r.Desc, r.Err, cerr)
					continue
				}
				actual, proved := form.PayloadBits(), r.EstFloor
				if r.EstBound != lwcomp.BoundHeuristic {
					proved = r.EstBits
				}
				if proved == 0 || proved > actual || r.EstBound == lwcomp.BoundExact && r.EstBits != actual {
					t.Errorf("%s: %s skipped on a %v price of %d bits and a floor of %d; actual %d",
						sh.Name, r.Desc, r.EstBound, r.EstBits, r.EstFloor, actual)
				}
				if proved < choice.Bits || proved == choice.Bits && i < winner {
					t.Errorf("%s: %s skipped at %d bits although the winner took %d", sh.Name, r.Desc, proved, choice.Bits)
				}
			}
		}
		if skipped == 0 {
			t.Errorf("%s: the search compressed every candidate; nothing was settled by its price", sh.Name)
		}
	}
}

func TestPublicPointLookup(t *testing.T) {
	walk := workload.RandomWalk(4096, 6, 0, 7)
	form, err := lwcomp.PFOR(512).Compress(walk)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []int64{0, 2048, 4095} {
		got, err := lwcomp.PointLookup(form, row)
		if err != nil || got != walk[row] {
			t.Fatalf("PointLookup(%d) = %d, want %d (%v)", row, got, walk[row], err)
		}
	}
}
