package scheme

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"lwcomp/internal/core"
	"lwcomp/internal/workload"
)

// estimateWorkload builds one of the characteristic test columns from
// fuzz-controllable parameters.
func estimateWorkload(kind uint8, n int, param uint8, seed int64) []int64 {
	if n < 1 {
		n = 1
	}
	switch kind % 10 {
	case 0:
		return workload.OrderShipDates(n, float64(param%100)+1, 730120, seed)
	case 1:
		return workload.RandomWalk(n, int64(param%50)+1, 1<<30, seed)
	case 2:
		return workload.OutlierWalk(n, int64(param%20)+1, 0.01, 1<<38, seed)
	case 3:
		return workload.TrendNoise(n, float64(param%16)+0.5, int64(param%32)+1, seed)
	case 4:
		return workload.LowCardinality(n, int(param%60)+2, seed)
	case 5:
		return workload.SkewedMagnitude(n, uint(param%50)+4, seed)
	case 6:
		return workload.UniformBits(n, uint(param%40), seed)
	case 7:
		return workload.Sorted(n, 1<<40, seed)
	case 8:
		return workload.Runs(n, float64(param%200)+1, 1<<16, seed)
	default:
		return workload.StepData(n, int(param%12)*128+128, seed)
	}
}

// checkEstimates asserts that every candidate's price proves what its
// bound kind claims — an exact estimate equals the actual encoded
// size, a lower bound is never above it, and an ImpossibleBits
// candidate really fails — and that no floor is above the actual
// size. The candidates are DefaultCandidates plus extra; their floors
// are the ones the analyzer's search over data reports.
func checkEstimates(t *testing.T, data []int64, st *core.BlockStats, extra ...core.Scheme) {
	t.Helper()
	cands := append(DefaultCandidates(st), extra...)
	floors := make([]uint64, len(cands))
	if choice, err := (&core.Analyzer{Candidates: cands, Stats: st}).Best(data); err == nil {
		for i, r := range choice.Ranking {
			floors[i] = r.EstFloor
		}
	}
	for i, c := range cands {
		bits, kind, ok := core.EstimateOf(c, st)
		proves := ok && kind != core.Heuristic
		if !proves && floors[i] == 0 {
			continue
		}
		form, err := c.Compress(data)
		if proves && bits == core.ImpossibleBits {
			if !errors.Is(err, core.ErrNotRepresentable) {
				t.Errorf("%s: estimate says impossible but compression returned %v", c.Name(), err)
			}
			continue
		}
		if err != nil {
			if proves && kind == core.Exact {
				t.Errorf("%s: exact estimate %d bits but compression failed: %v", c.Name(), bits, err)
			}
			continue
		}
		got := form.PayloadBits()
		if proves && (kind == core.Exact && got != bits || got < bits) {
			t.Errorf("%s: %s estimate %d bits, actual %d", c.Name(), kind, bits, got)
		}
		if floors[i] > got {
			t.Errorf("%s: floor %d bits, actual %d", c.Name(), floors[i], got)
		}
	}
}

// trial is one candidate's measured outcome in referenceBest.
type trial struct {
	idx  int
	form *core.Form
	bits uint64
}

// referenceBest is the search core.Analyzer.Best must reproduce,
// written the slow way: no price or floor spares a candidate its
// compression. Every candidate is compressed on the sample, in input
// order, and the first minimum wins. A strict-prefix
// sample then compresses the full column, falling back down the
// trials by ascending sample size.
func referenceBest(a *core.Analyzer, src []int64) (desc string, form *core.Form, bits uint64, err error) {
	cands := a.Candidates
	sample := src
	if a.SampleSize > 0 && len(src) > a.SampleSize {
		sample = src[:a.SampleSize]
	}
	var trials []trial // every successful trial, in input order
	best := -1         // index into trials
	for idx, c := range cands {
		f, err := c.Compress(sample)
		if err != nil {
			continue
		}
		trials = append(trials, trial{idx, f, f.PayloadBits()})
		if best < 0 || f.PayloadBits() < trials[best].bits {
			best = len(trials) - 1
		}
	}
	if best < 0 {
		return "", nil, 0, core.ErrNoCandidate
	}
	w := trials[best]
	if len(sample) == len(src) {
		return cands[w.idx].Name(), w.form, w.bits, nil
	}

	// Full-column encode: the winner, then the other trials by
	// ascending sample size.
	rest := append(append([]trial{}, trials[:best]...), trials[best+1:]...)
	sort.SliceStable(rest, func(x, y int) bool { return rest[x].bits < rest[y].bits })
	fallback := []int{w.idx}
	for _, t := range rest {
		fallback = append(fallback, t.idx)
	}
	for _, idx := range fallback {
		f, err := cands[idx].Compress(src)
		if err != nil {
			continue
		}
		return cands[idx].Name(), f, f.PayloadBits(), nil
	}
	return "", nil, 0, core.ErrNoCandidate
}

// checkMatchesReference asserts the analyzer's search picks exactly
// what compressing every candidate picks (referenceBest): the same
// winner, size and form tree. A non-zero sampleSize searches a prefix,
// priced from the prefix's own stats, and compresses the winner over
// the whole column.
func checkMatchesReference(t *testing.T, data []int64, st *core.BlockStats, sampleSize int) {
	t.Helper()
	a := &core.Analyzer{Candidates: DefaultCandidates(st), Stats: st, SampleSize: sampleSize}
	got, err := a.Best(data)
	wantDesc, wantForm, wantBits, wantErr := referenceBest(a, data)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("search err = %v, reference err = %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if got.Desc != wantDesc || got.Bits != wantBits || !reflect.DeepEqual(got.Form, wantForm) {
		t.Fatalf("sample %d of %d: winner %s (%d bits), reference %s (%d bits), forms equal = %v", sampleSize, len(data),
			got.Desc, got.Bits, wantDesc, wantBits, reflect.DeepEqual(got.Form, wantForm))
	}
}

// TestExactEstimatesMatchActual pins the estimator contract on the
// named workloads: every exact-flagged estimate must equal the
// encoded PayloadBits, deterministically.
func TestExactEstimatesMatchActual(t *testing.T) {
	for kind := uint8(0); kind < 10; kind++ {
		for _, n := range []int{0, 1, 2, 100, 5000} {
			t.Run(fmt.Sprintf("kind%d-n%d", kind, n), func(t *testing.T) {
				data := estimateWorkload(kind, n, 17, 42)[:n]
				st := core.CollectStats(data, nil)
				checkEstimates(t, data, &st)
				checkMatchesReference(t, data, &st, 0)
				checkMatchesReference(t, data, &st, n/3)
			})
		}
	}
}

// TestFloorsHoldOnExtremeValues drives the floors over columns at the
// edges of int64, where an offset, a second difference or a model fit
// can wrap, and over extra candidates whose shapes take a floor (a
// wider VNS mini-block, sloped models at other segment lengths and
// fraction widths, a dictionary the stats gate would leave out).
// Every floor must stay at or below the size its candidate compresses
// to.
func TestFloorsHoldOnExtremeValues(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(5))
	column := func(f func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	var walk int64
	cols := []struct {
		name string
		data []int64
	}{
		{"maxint-mix", column(func(int) int64 {
			return []int64{math.MaxInt64, math.MinInt64, 0, -1, 1}[rng.Intn(5)]
		})},
		{"full-range", column(func(int) int64 { return int64(rng.Uint64()) })},
		{"near-max-walk", column(func(i int) int64 {
			if i == 0 {
				walk = math.MaxInt64 - 40
			}
			walk += rng.Int63n(21) - 10 // wraps past MaxInt64
			return walk
		})},
		{"min-spikes", column(func(int) int64 {
			if rng.Intn(100) == 0 {
				return math.MinInt64 + rng.Int63n(4)
			}
			return rng.Int63n(1 << 10)
		})},
		{"huge-slope", column(func(i int) int64 { return int64(i) << 52 })},
		{"steep-line", column(func(i int) int64 { return int64(i)<<28 + rng.Int63n(1<<12) - 1<<40 })},
		{"domain-edge", column(func(i int) int64 { return (1<<41 - 1) - int64(i%7)*(1<<38) })},
		{"narrow-line", column(func(i int) int64 { return int64(i)<<14 - rng.Int63n(1<<8) })},
		// Exact lines that jump every 128 rows (the stats segment) and
		// every 100 (a model segment that is not a multiple of it): a
		// triple across a jump says nothing about the residual.
		{"sawtooth-128", column(func(i int) int64 { return int64(i%128) * 1000 })},
		{"sawtooth-100", column(func(i int) int64 { return int64(i%100) * 1000 })},
	}
	extra := []core.Scheme{
		DictComposite(),
		VNS{Block: 256},
		LinearNS(128),
		modelNS(Linear{SegLen: 256, Frac: 30}),
		modelNS(Linear{SegLen: 384, Frac: 1}),
		LinearNS(100),
	}
	for _, c := range cols {
		for _, m := range []int{1, 3, 130, n} {
			data := c.data[:m]
			st := core.CollectStats(data, nil)
			checkEstimates(t, data, &st, extra...)
		}
	}
}

// TestSearchPrunes pins what the prices and floors spare every encode:
// on every maintenance shape, the search over a default-size block
// compresses at most two candidates (before floors, every
// heuristic-priced candidate was compressed: three to six).
func TestSearchPrunes(t *testing.T) {
	for _, sh := range workload.MaintainShapes(1<<16, 1) {
		st := core.CollectStats(sh.Data, nil)
		choice, err := (&core.Analyzer{Candidates: DefaultCandidates(&st), Stats: &st}).Best(sh.Data)
		if err != nil {
			t.Fatal(err)
		}
		var compressed []string
		for _, r := range choice.Ranking {
			if r.Trialed || r.Err != nil && r.EstBits != core.ImpossibleBits {
				compressed = append(compressed, r.Desc)
			}
		}
		if len(compressed) > 2 {
			t.Errorf("%s: the search compressed %d candidates: %v", sh.Name, len(compressed), compressed)
		}
	}
}

// TestBoundedSearchMatchesNaive pins the bound-ordered search to the
// search that compresses every candidate: same winner, same size, same
// form tree, across sampling and whether the caller supplied the
// stats.
func TestBoundedSearchMatchesNaive(t *testing.T) {
	for kind := uint8(0); kind < 10; kind++ {
		for _, n := range []int{0, 1, 2, 100, 5000, 65536} {
			if n == 65536 && testing.Short() {
				continue
			}
			data := estimateWorkload(kind, n, 17, 42)[:n]
			st := core.CollectStats(data, nil)
			for _, sampleSize := range []int{0, n / 3} {
				ref := &core.Analyzer{Candidates: DefaultCandidates(&st), SampleSize: sampleSize}
				wantDesc, wantForm, wantBits, wantErr := referenceBest(ref, data)
				for _, stats := range []*core.BlockStats{&st, nil} {
					a := *ref
					a.Stats = stats
					got, err := a.Best(data)
					name := fmt.Sprintf("kind%d n%d sample%d stats=%v", kind, n, sampleSize, stats != nil)
					if (err == nil) != (wantErr == nil) {
						t.Fatalf("%s: err = %v, reference err = %v", name, err, wantErr)
					}
					if err != nil {
						continue
					}
					if got.Desc != wantDesc || got.Bits != wantBits || !reflect.DeepEqual(got.Form, wantForm) {
						t.Fatalf("%s: winner %s (%d bits), reference %s (%d bits), forms equal = %v", name,
							got.Desc, got.Bits, wantDesc, wantBits, reflect.DeepEqual(got.Form, wantForm))
					}
				}
			}
		}
	}
}

// goldenPricesHash and goldenAliasPricesHash are SHA-256s over the
// (label, bits, bound) price of every DefaultCandidates entry and of
// the five model-composition aliases, across the named workloads,
// recorded at commit 61c52de — the last one whose PFOR and model
// compositions priced themselves as monoliths — the defaults' hash
// re-recorded once delta forms of two or more frame segments carried a
// frame, which moved only the delta(deltas=ns) and
// rle(values=delta(deltas=ns)) rows of 1,024 rows or more. Prices order the
// search's visits and prove what it may skip, so a moved price can
// move the trial count, or, if it no longer proves its bound, a winner.
const (
	goldenPricesHash      = "268729afaa5f40347e2b37b628d37be2316e302fda2051c4101af2a87a9c83f5"
	goldenAliasPricesHash = "4c159d0597b73571305e2cc70ef4df842ead23e7e3494041386158e01f5ac2f9"
)

// TestGoldenPrices pins that the prices moved to Plus and Patch
// unchanged.
func TestGoldenPrices(t *testing.T) {
	defaults, aliases := sha256.New(), sha256.New()
	for kind := uint8(0); kind < 10; kind++ {
		for _, n := range []int{0, 1, 2, 100, 5000, 65536} {
			data := estimateWorkload(kind, n, 17, 42)[:n]
			st := core.CollectStats(data, nil)
			for i, c := range DefaultCandidates(&st) {
				bits, bound, ok := core.EstimateOf(c, &st)
				fmt.Fprintf(defaults, "kind%d n%d #%d %d %v %v\n", kind, n, i, bits, bound, ok)
			}
			for _, name := range []string{"pfor", "stepns", "linearns", "poly2ns", "plinearns"} {
				for _, segLen := range []int{128, 1024} {
					sc, err := ByName(name, segLen, true)
					if err != nil {
						t.Fatal(err)
					}
					bits, bound, ok := core.EstimateOf(sc, &st)
					fmt.Fprintf(aliases, "kind%d n%d %s[%d] %d %v %v\n", kind, n, name, segLen, bits, bound, ok)
				}
			}
		}
	}
	if got := hex.EncodeToString(defaults.Sum(nil)); got != goldenPricesHash {
		t.Errorf("DefaultCandidates prices hash %s, want %s", got, goldenPricesHash)
	}
	if got := hex.EncodeToString(aliases.Sum(nil)); got != goldenAliasPricesHash {
		t.Errorf("alias prices hash %s, want %s", got, goldenAliasPricesHash)
	}
}

// TestSearchFingerprintCoversEveryGate pins what SearchFingerprint
// hashes: every list DefaultCandidates returns on the named workloads
// is an in-order selection from the all-gates-open list, so no
// candidate the search can run escapes the fingerprint.
func TestSearchFingerprintCoversEveryGate(t *testing.T) {
	if SearchFingerprint() == 0 {
		t.Fatal("SearchFingerprint is 0, the no-certificate value")
	}
	every := everyCandidate()
	for kind := uint8(0); kind < 10; kind++ {
		for _, n := range []int{0, 1, 2, 100, 5000} {
			data := estimateWorkload(kind, n, 17, 42)[:n]
			st := core.CollectStats(data, nil)
			next := 0
			for _, c := range DefaultCandidates(&st) {
				for next < len(every) && every[next].Name() != c.Name() {
					next++
				}
				if next == len(every) {
					t.Fatalf("kind%d n%d: candidate %s is not in the fingerprinted list, in order", kind, n, c.Name())
				}
				next++
			}
		}
	}
}

// TestSearchFingerprintGolden pins the fingerprint every certified
// block on disk carries, and the candidate names it hashes, in order.
// A change to either makes compaction search every certified
// container again, so it must be deliberate: bump searchRevision and
// update this test in the same change. Both FOR entries share one
// name, since a FOR's name leaves out its segment length.
func TestSearchFingerprintGolden(t *testing.T) {
	want := []string{
		"const",
		"ns",
		"varint",
		"elias",
		"vns",
		"delta(deltas=ns)",
		"for(offsets=ns, refs=ns)",
		"for(offsets=ns, refs=ns)",
		"patch[step[1024]](base=for(offsets=ns, refs=ns))",
		"plus[linear[1024]](residual=ns)",
		"rle(lengths=ns, values=ns)",
		"rle(lengths=ns, values=delta(deltas=ns))",
		"rpe(positions=ns, values=ns)",
		"dict(codes=ns, dict=ns)",
		"dict(codes=rle(lengths=ns, values=ns), dict=ns)",
	}
	var got []string
	for _, c := range everyCandidate() {
		got = append(got, c.Name())
	}
	if !slices.Equal(got, want) {
		t.Errorf("fingerprinted candidates:\n%q\nwant:\n%q", got, want)
	}
	if fp := SearchFingerprint(); fp != 0x7b49cb39 {
		t.Errorf("SearchFingerprint() = %#x, want 0x7b49cb39", fp)
	}
}

// TestConstEstimateImpossible pins the impossibility sentinel: CONST
// on a multi-run column must estimate ImpossibleBits and never be
// trialed.
func TestConstEstimateImpossible(t *testing.T) {
	st := core.CollectStats([]int64{1, 2}, nil)
	bits, kind := Const{}.EstimateSize(&st)
	if bits != core.ImpossibleBits || kind != core.Exact {
		t.Fatalf("EstimateSize = %d, %v", bits, kind)
	}
	if _, err := (Const{}).Compress([]int64{1, 2}); !errors.Is(err, core.ErrNotRepresentable) {
		t.Fatalf("const compress err = %v", err)
	}
}

// TestScratchCompressMatchesCompress asserts the pooled compressors
// produce byte-identical form trees to the plain path, across the
// schemes on the hot encode path.
func TestScratchCompressMatchesCompress(t *testing.T) {
	data := workload.OrderShipDates(5000, 16, 730120, 7)
	neg := make([]int64, len(data))
	for i, v := range data {
		neg[i] = v - 731000 // mix signs to exercise zigzag
	}
	schemes := []core.Scheme{
		NS{},
		VNS{Block: 64},
		FORComposite(128),
		FORComposite(1024),
		RLEComposite(),
		RLEDeltaComposite(),
		RPEComposite(),
		DeltaNS(),
		DictComposite(),
		PFORComposite(1024),
		LinearNS(1024),
		StepNS(512),
	}
	for _, input := range [][]int64{data, neg, nil} {
		for _, sch := range schemes {
			want, err := sch.Compress(input)
			if err != nil {
				t.Fatalf("%s: plain: %v", sch.Name(), err)
			}
			s := core.GetScratch()
			got, err := core.CompressScratch(sch, input, s)
			s.Release()
			if err != nil {
				t.Fatalf("%s: pooled: %v", sch.Name(), err)
			}
			if !formsEqual(want, got) {
				t.Fatalf("%s: pooled form differs from plain form:\n%s\nvs\n%s",
					sch.Name(), want.Describe(), got.Describe())
			}
		}
	}
}

// formsEqual compares two form trees structurally and by payload.
func formsEqual(a, b *core.Form) bool {
	if a.Scheme != b.Scheme || a.N != b.N || len(a.Params) != len(b.Params) ||
		len(a.Children) != len(b.Children) ||
		len(a.Leaf) != len(b.Leaf) || len(a.Packed) != len(b.Packed) || len(a.Bytes) != len(b.Bytes) {
		return false
	}
	for k, v := range a.Params {
		if b.Params[k] != v {
			return false
		}
	}
	for i := range a.Leaf {
		if a.Leaf[i] != b.Leaf[i] {
			return false
		}
	}
	for i := range a.Packed {
		if a.Packed[i] != b.Packed[i] {
			return false
		}
	}
	for i := range a.Bytes {
		if a.Bytes[i] != b.Bytes[i] {
			return false
		}
	}
	for k, ac := range a.Children {
		bc, ok := b.Children[k]
		if !ok || !formsEqual(ac, bc) {
			return false
		}
	}
	return true
}

// FuzzAnalyzerEstimateEquivalence drives random workloads through
// the analyzer and asserts (a) it picks exactly the compress-everything
// reference's winner, size and form, and (b) every estimate proves
// what its bound kind claims: exact ones equal the actual encoded
// bits, lower bounds never exceed them, impossible ones fail, and no
// floor is above the actual size.
func FuzzAnalyzerEstimateEquivalence(f *testing.F) {
	f.Add(uint8(0), uint16(100), uint8(17), int64(1))
	f.Add(uint8(4), uint16(4096), uint8(3), int64(2))
	f.Add(uint8(7), uint16(513), uint8(200), int64(3))
	f.Add(uint8(9), uint16(1), uint8(0), int64(4))
	f.Fuzz(func(t *testing.T, kind uint8, nRaw uint16, param uint8, seed int64) {
		n := int(nRaw) % 8192
		data := estimateWorkload(kind, n, param, seed)[:n]
		st := core.CollectStats(data, nil)
		checkEstimates(t, data, &st)
		// Odd seeds additionally exercise prefix sampling: the search
		// prices and compares the prefix, then encodes the column.
		sampleSize := 0
		if seed%2 != 0 {
			sampleSize = n/2 + 1
		}
		checkMatchesReference(t, data, &st, sampleSize)
	})
}
