package scheme_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/storage"
	"lwcomp/internal/vec"
	"lwcomp/internal/workload"
)

// corpusInput is one named input column.
type corpusInput struct {
	name string
	data []int64
}

// codecCorpus is the shared input set of the round-trip oracle and
// the golden-form pin, in a fixed order (the golden hash depends on
// it).
func codecCorpus() []corpusInput {
	const n = 10000
	quad := make([]int64, n) // exactly quadratic per segment of 8, so bare Poly2 represents it
	for i := range quad {
		j := int64(i % 8)
		quad[i] = int64(100*(i/8)) + 3*j + 2*j*j
	}
	return []corpusInput{
		{"dates", workload.OrderShipDates(n, 64, 730120, 1)},
		{"walk", workload.RandomWalk(n, 10, 1<<30, 2)},
		{"neg", workload.RandomWalk(n, 10, -(1 << 20), 3)},
		{"lowcard", workload.LowCardinality(n, 32, 5)},
		{"runs", workload.Runs(n, 64, 1<<16, 7)},
		{"sorted", workload.Sorted(n, 1<<40, 8)},
		{"trend", workload.TrendNoise(n, 8, 12, 4)},
		{"quad", quad},
	}
}

// labeledScheme is a scheme under a fixed label: the golden hashes
// key their entries by label, so they survive a change of Name.
type labeledScheme struct {
	label string
	sc    core.Scheme
}

// codecSchemes lists every scheme with a decoder of its own (bare or
// under a representative composite), in a fixed order, labeled with
// the Name each had when goldenFormsHash was recorded.
func codecSchemes() []labeledScheme {
	return []labeledScheme{
		{"ns", scheme.NS{}}, {"vns", scheme.VNS{}}, {"for", scheme.FOR{}}, {"delta", scheme.Delta{}}, {"rle", scheme.RLE{}},
		{"rpe(positions=ns, values=ns)", scheme.RPEComposite()},
		{"delta(deltas=ns)", scheme.DeltaNS()},
		{"rle(lengths=ns, values=ns)", scheme.RLEComposite()},
		{"rle(lengths=ns, values=delta(deltas=ns))", scheme.RLEDeltaComposite()},
		{"for(offsets=ns, refs=ns)", scheme.FORComposite(1024)},
		{"for(offsets=vns, refs=ns)", scheme.FORVNSComposite(1024, 128)},
		{"dict(codes=ns, dict=ns)", scheme.DictComposite()},
		{"plus(linear[1024], ns)", scheme.LinearNS(1024)},
		{"patch(for[1024]+ns)", scheme.PFORComposite(1024)},
		{"varint", scheme.Varint{}}, {"elias", scheme.Elias{}}, {"poly2", scheme.Poly2{SegLen: 8}},
		{"plus(poly2[1024], ns)", scheme.Poly2NS(1024)},
	}
}

// TestDecompressIntoRoundTrip is the decode oracle: every scheme's
// one decoder must reproduce the source column — into a destination
// pre-filled with garbage (a decoder that accumulates into dst, or
// skips positions, shows), with a scratch reused across calls and
// with none — and where the scheme states its decompression as an
// operator plan, the literal plan must agree.
func TestDecompressIntoRoundTrip(t *testing.T) {
	s := core.GetScratch()
	defer s.Release()
	decoded := map[string]int{}
	for _, in := range codecCorpus() {
		for _, c := range codecSchemes() {
			form, err := c.sc.Compress(in.data)
			if err != nil {
				continue // not representable for this input; fine
			}
			decoded[c.label]++
			id := in.name + "/" + c.label
			for _, scratch := range []*core.Scratch{s, nil} {
				dst := make([]int64, form.N)
				for i := range dst {
					dst[i] = int64(uint64(i+1) * 0x9E3779B97F4A7C15)
				}
				if err := core.DecompressInto(form, dst, scratch); err != nil {
					t.Fatalf("%s: DecompressInto (scratch %v): %v", id, scratch != nil, err)
				}
				if !vec.Equal(dst, in.data) {
					t.Fatalf("%s: DecompressInto (scratch %v) does not reproduce the source", id, scratch != nil)
				}
			}
			got, err := core.Decompress(form)
			if err != nil {
				t.Fatalf("%s: Decompress: %v", id, err)
			}
			if !vec.Equal(got, in.data) {
				t.Fatalf("%s: Decompress does not reproduce the source", id)
			}
			if root, _ := core.Lookup(form.Scheme); root != nil {
				if _, ok := root.(core.Planner); ok {
					viaPlan, err := core.DecompressViaPlan(form, false)
					if err != nil {
						t.Fatalf("%s: DecompressViaPlan: %v", id, err)
					}
					if !vec.Equal(viaPlan, in.data) {
						t.Fatalf("%s: the operator plan does not reproduce the source", id)
					}
				}
			}
		}
	}
	for _, c := range codecSchemes() {
		if decoded[c.label] == 0 {
			t.Errorf("%s: representable on no corpus input, its decoder went untested", c.label)
		}
	}
}

// goldenFormsHash is the SHA-256 over the storage encoding of every
// (corpus input, scheme) form, recorded at commit ff75fa2 — the last
// one with separate allocating and pooled codec bodies — from
// core.CompressScratch with a live scratch, the route every container
// on disk was written by, and re-recorded once delta forms of two or
// more frame segments carried a frame: only the delta, delta(deltas=ns)
// and rle(values=delta(deltas=ns)) forms of the 10,000-row inputs
// moved.
const goldenFormsHash = "972b6d7d02e615aad00e26c26a0cff5bf847a304bf752bd72d3207bbd59de007"

// TestGoldenForms pins that the forms, byte for byte, did not change
// when the allocating codec bodies became calls into the pooled ones,
// and that Scheme.Compress and the pooled entry point agree.
func TestGoldenForms(t *testing.T) {
	checkGoldenForms(t, codecCorpus(), codecSchemes(), goldenFormsHash)
}

// goldenComposedFormsHash is the same pin as goldenFormsHash over the
// model compositions and the outers that once compressed through
// Composite's compress-then-rewrite route (STEP, LINEAR, POLY2 and VNS
// under a Compose), recorded at commit 61c52de — the last one with the
// monolithic PFOR / ModelResidual / PatchedModel compressors.
const goldenComposedFormsHash = "43d3c66f3b59ebd5dcf4120f51e6a6317a94e18ae830ef3c1415753a6ec454f6"

// TestGoldenComposedForms pins that those compressors becoming
// Compose(...) values over Plus, Patch and the self-fitting models left
// every form byte-identical, outliers and spikes (the patched cases)
// included.
func TestGoldenComposedForms(t *testing.T) {
	ns := scheme.NS{}
	schemes := []labeledScheme{
		{"stepns[1024]", scheme.StepNS(1024)},
		{"stepns[128]", scheme.StepNS(128)},
		{"linearns[256]", scheme.LinearNS(256)},
		{"poly2ns[256]", scheme.Poly2NS(256)},
		{"plinearns[1024]", scheme.PatchedLinearNS(1024)},
		{"plinearns[256]", scheme.PatchedLinearNS(256)},
		{"pfor[64]", scheme.PFORComposite(64)},
		{"pfor[1024] rate", core.Compose(scheme.Patch{Model: scheme.Step{SegLen: 1024}, MaxExceptionRate: 0.001},
			map[string]core.Scheme{"base": scheme.FORComposite(1024)})},
		{"step[1](refs=ns)", core.Compose(scheme.Step{SegLen: 1}, map[string]core.Scheme{"refs": ns})},
		{"step(refs=ns)", core.Compose(scheme.Step{}, map[string]core.Scheme{"refs": ns})},
		{"linear[2](bases=ns, slopes=ns)", core.Compose(scheme.Linear{SegLen: 2}, map[string]core.Scheme{"bases": ns, "slopes": ns})},
		{"linear(bases=ns)", core.Compose(scheme.Linear{}, map[string]core.Scheme{"bases": ns})},
		{"poly2[8](c0=ns, c1=ns, c2=ns)", core.Compose(scheme.Poly2{SegLen: 8}, map[string]core.Scheme{"c0": ns, "c1": ns, "c2": ns})},
		{"vns(widths=ns)", core.Compose(scheme.VNS{}, map[string]core.Scheme{"widths": ns})},
		{"vns[32](widths=ns)", core.Compose(scheme.VNS{Block: 32}, map[string]core.Scheme{"widths": ns})},
	}
	const n = 10000
	spiky := make([]int64, n)
	rng := rand.New(rand.NewSource(6))
	for i := range spiky {
		spiky[i] = int64(8*i) + rng.Int63n(25) - 12
		if i%500 == 100 {
			spiky[i] += 1 << 35
		}
	}
	inputs := append(codecCorpus(),
		corpusInput{"outliers", workload.OutlierWalk(n, 10, 0.01, 1<<38, 9)},
		corpusInput{"spiky", spiky})
	checkGoldenForms(t, inputs, schemes, goldenComposedFormsHash)
}

// checkGoldenForms compresses every (input, scheme) pair along both
// encode routes — Scheme.Compress, and core.CompressScratch with a live
// scratch, the route every container on disk was written by — and
// checks each route's SHA-256 over the storage encodings (keyed by
// input name and scheme label) against want, and the routes against
// each other pair by pair.
func checkGoldenForms(t *testing.T, inputs []corpusInput, schemes []labeledScheme, want string) {
	t.Helper()
	s := core.GetScratch()
	defer s.Release()
	routes := []struct {
		name     string
		compress func(sc core.Scheme, data []int64) (*core.Form, error)
	}{
		{"Scheme.Compress", func(sc core.Scheme, data []int64) (*core.Form, error) { return sc.Compress(data) }},
		{"core.CompressScratch", func(sc core.Scheme, data []int64) (*core.Form, error) {
			return core.CompressScratch(sc, data, s)
		}},
	}
	var perPair [2][]string
	for r, route := range routes {
		all := sha256.New()
		for _, in := range inputs {
			for _, c := range schemes {
				id := in.name + "/" + c.label
				enc := []byte("not representable")
				if form, err := route.compress(c.sc, in.data); err == nil {
					if enc, err = storage.EncodeForm(form); err != nil {
						t.Fatalf("%s: %s: EncodeForm: %v", route.name, id, err)
					}
				}
				sum := sha256.Sum256(enc)
				fmt.Fprintf(all, "%s %x\n", id, sum)
				perPair[r] = append(perPair[r], id+" "+hex.EncodeToString(sum[:8]))
			}
		}
		if got := hex.EncodeToString(all.Sum(nil)); got != want {
			t.Errorf("%s: forms hash %s, want %s", route.name, got, want)
		}
	}
	for i := range perPair[0] {
		if perPair[0][i] != perPair[1][i] {
			t.Errorf("%s and %s disagree: %s vs %s", routes[0].name, routes[1].name, perPair[0][i], perPair[1][i])
		}
	}
}

// TestDecompressIntoLengthMismatch: a destination of the wrong length
// is rejected before any scheme code runs.
func TestDecompressIntoLengthMismatch(t *testing.T) {
	form, err := scheme.NS{}.Compress([]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.DecompressInto(form, make([]int64, 2), nil); err == nil {
		t.Fatal("short dst must error")
	}
}
