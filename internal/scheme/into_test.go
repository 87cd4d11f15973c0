package scheme_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/storage"
	"lwcomp/internal/vec"
	"lwcomp/internal/workload"
)

// codecCorpus is the shared input set of the round-trip oracle and
// the golden-form pin, in a fixed order (the golden hash depends on
// it).
func codecCorpus() []struct {
	name string
	data []int64
} {
	const n = 10000
	quad := make([]int64, n) // exactly quadratic per segment of 8, so bare Poly2 represents it
	for i := range quad {
		j := int64(i % 8)
		quad[i] = int64(100*(i/8)) + 3*j + 2*j*j
	}
	return []struct {
		name string
		data []int64
	}{
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

// codecSchemes lists every scheme with a decoder of its own (bare or
// under a representative composite), in a fixed order.
func codecSchemes() []core.Scheme {
	return []core.Scheme{
		scheme.NS{}, scheme.VNS{}, scheme.FOR{}, scheme.Delta{}, scheme.RLE{}, scheme.RPEComposite(),
		scheme.DeltaNS(), scheme.RLEComposite(), scheme.RLEDeltaComposite(), scheme.FORComposite(1024),
		scheme.FORVNSComposite(1024, 128), scheme.DictComposite(), scheme.LinearNS(1024),
		scheme.PFOR{SegLen: 1024},
		scheme.Varint{}, scheme.Elias{}, scheme.Poly2{SegLen: 8}, scheme.ModelResidual{Fitter: scheme.Poly2Fitter{SegLen: 1024}},
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
		for _, sc := range codecSchemes() {
			form, err := sc.Compress(in.data)
			if err != nil {
				continue // not representable for this input; fine
			}
			decoded[sc.Name()]++
			id := in.name + "/" + sc.Name()
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
	for _, sc := range codecSchemes() {
		if decoded[sc.Name()] == 0 {
			t.Errorf("%s: representable on no corpus input, its decoder went untested", sc.Name())
		}
	}
}

// goldenFormsHash is the SHA-256 over the storage encoding of every
// (corpus input, scheme) form, recorded at commit ff75fa2 — the last
// one with separate allocating and pooled codec bodies — from
// core.CompressScratch with a live scratch, the route every container
// on disk was written by.
const goldenFormsHash = "75c3b0028e7191c1e1c4470d20f8a0636a3cbbc0b2857145b99ed4bf01820f92"

// TestGoldenForms pins that the forms, byte for byte, did not change
// when the allocating codec bodies became calls into the pooled ones,
// and that Scheme.Compress and the pooled entry point agree.
func TestGoldenForms(t *testing.T) {
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
		for _, in := range codecCorpus() {
			for _, sc := range codecSchemes() {
				id := in.name + "/" + sc.Name()
				enc := []byte("not representable")
				if form, err := route.compress(sc, in.data); err == nil {
					if enc, err = storage.EncodeForm(form); err != nil {
						t.Fatalf("%s: %s: EncodeForm: %v", route.name, id, err)
					}
				}
				sum := sha256.Sum256(enc)
				fmt.Fprintf(all, "%s %x\n", id, sum)
				perPair[r] = append(perPair[r], id+" "+hex.EncodeToString(sum[:8]))
			}
		}
		if got := hex.EncodeToString(all.Sum(nil)); got != goldenFormsHash {
			t.Errorf("%s: forms hash %s, want %s", route.name, got, goldenFormsHash)
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
