package scheme

import (
	"fmt"

	"lwcomp/internal/core"
	"lwcomp/internal/exec"
	"lwcomp/internal/vec"
)

// DeltaName is the registry name of the DELTA scheme.
const DeltaName = "delta"

// Delta stores "the difference between elements rather than the
// actual values" (§I). The first element is kept whole as the form's
// "first" parameter and every delta is taken from it, so deltas[0] is
// 0 and one large first value does not set the width of every delta
// an NS child packs. Decode is an inclusive prefix sum plus first —
// the prefix sum is also precisely the operation that turns RPE's run
// positions back into RLE's run lengths' integral, making DELTA the
// pivot of the paper's RLE decomposition. A form without the
// parameter (DecomposeRLE's, and every form written before it
// existed) is the first = 0 case of the same decoder: its first delta
// is its first value.
//
// Form layout: Params{"first"}; Children{"deltas"}; deltas has the
// same length as the input.
type Delta struct{}

// Name implements core.Scheme.
func (Delta) Name() string { return DeltaName }

// Compress stores consecutive differences.
func (sch Delta) Compress(src []int64) (*core.Form, error) { return core.CompressPooled(sch, src) }

// CompressParts implements core.ConstituentCompressor: deltas go into
// a borrowed buffer.
func (Delta) CompressParts(src []int64, s *core.Scratch, emit func(name string, col []int64) (*core.Form, error)) (*core.Form, error) {
	d := s.I64(len(src))
	defer s.PutI64(d)
	var first int64
	if len(src) > 0 {
		first = src[0]
	}
	prev := first
	for i, v := range src {
		d[i] = v - prev
		prev = v
	}
	deltasForm, err := emit("deltas", d)
	if err != nil {
		return nil, err
	}
	return &core.Form{
		Scheme:   DeltaName,
		N:        len(src),
		Params:   core.Params{"first": first},
		Children: map[string]*core.Form{"deltas": deltasForm},
	}, nil
}

// DeltaFirst returns the value a delta form's prefix sums start from:
// its "first" parameter, or 0 for a form without one.
func DeltaFirst(f *core.Form) int64 { return f.Params["first"] }

// DecompressInto decodes the deltas into dst, then integrates them in
// place from first, wrapping as int64 addition does.
func (Delta) DecompressInto(f *core.Form, dst []int64, s *core.Scratch) error {
	if err := checkDelta(f); err != nil {
		return err
	}
	if err := core.DecompressChildInto(f, "deltas", dst, s); err != nil {
		return err
	}
	acc := DeltaFirst(f)
	for i, d := range dst {
		acc += d
		dst[i] = acc
	}
	return nil
}

// Plan implements core.Planner: decompression is a single PrefixSum —
// the fragment of Algorithm 1 the paper isolates when moving from RLE
// to RPE — shifted by first.
func (Delta) Plan(f *core.Form) (*exec.Plan, error) {
	if err := checkDelta(f); err != nil {
		return nil, err
	}
	b := exec.NewBuilder()
	d := b.Input("deltas")
	sums := b.PrefixSumInc(d)
	b.ElementwiseScalar(vec.Add, sums, b.ConstScalar(DeltaFirst(f)))
	return b.Build()
}

// ValidateForm implements core.Validator.
func (Delta) ValidateForm(f *core.Form) error { return checkDelta(f) }

// DecompressCostPerElement implements core.Coster: one addition per
// element, sequentially dependent.
func (Delta) DecompressCostPerElement(*core.Form) float64 { return 1.2 }

// ConstituentStats implements core.ConstituentStatser, exactly: the
// deltas column's extremes are the collected delta statistics (whose
// first delta is the 0 DELTA stores), and its width histogram is the
// consecutive deltas' plus that 0. The first value costs one
// parameter.
func (Delta) ConstituentStats(st *core.BlockStats) (uint64, []core.PredictedChild, bool, bool) {
	if !st.HasDeltas || !st.HasMinMax {
		return 0, nil, false, false
	}
	var cs core.BlockStats
	cs.N = st.N
	cs.HasMinMax = true
	if st.N > 0 {
		cs.Min, cs.Max = st.DeltaMin, st.DeltaMax
		cs.ValueHist = st.DeltaHist
		cs.ValueHist.Observe(0)
		cs.HasValueHist = true
	}
	return core.FormOverheadBits(1), []core.PredictedChild{{Name: "deltas", Stats: cs}}, true, true
}

func checkDelta(f *core.Form) error {
	if f.Scheme != DeltaName {
		return fmt.Errorf("%w: delta scheme given form %q", core.ErrCorruptForm, f.Scheme)
	}
	c, err := f.Child("deltas")
	if err != nil {
		return err
	}
	if c.N != f.N {
		return fmt.Errorf("%w: delta form declares %d values, deltas child declares %d",
			core.ErrCorruptForm, f.N, c.N)
	}
	return nil
}
