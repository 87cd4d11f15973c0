package scheme

import (
	"fmt"

	"lwcomp/internal/core"
	"lwcomp/internal/exec"
	"lwcomp/internal/vec"
)

// RLEName is the registry name of the run-length encoding scheme.
const RLEName = "rle"

// RLE is run-length encoding in the paper's columnar view (§II-A):
// "a single column col of values is compressed into a pair of
// corresponding columns, lengths and values, whose length is the
// number of runs in col".
//
// Form layout: Children{"lengths", "values"}, equal-length; run i
// repeats values[i] lengths[i] times. All lengths are ≥ 1 (maximal
// runs).
type RLE struct{}

// Name implements core.Scheme.
func (RLE) Name() string { return RLEName }

// Compress splits src into maximal runs.
func (sch RLE) Compress(src []int64) (*core.Form, error) { return core.CompressPooled(sch, src) }

// runsScratch splits src into maximal runs inside borrowed buffers.
// The caller returns both buffers.
func runsScratch(src []int64, s *core.Scratch) (lengths, values []int64) {
	lengths = s.I64(len(src))
	values = s.I64(len(src))
	if len(src) == 0 {
		return lengths[:0], values[:0]
	}
	r := 0
	cur := src[0]
	var runLen int64
	for _, v := range src {
		if v == cur {
			runLen++
			continue
		}
		lengths[r], values[r] = runLen, cur
		r++
		cur = v
		runLen = 1
	}
	lengths[r], values[r] = runLen, cur
	return lengths[:r+1], values[:r+1]
}

// CompressParts implements core.ConstituentCompressor: run lengths
// and values live in borrowed buffers.
func (RLE) CompressParts(src []int64, s *core.Scratch, emit func(name string, col []int64) (*core.Form, error)) (*core.Form, error) {
	lengths, values := runsScratch(src, s)
	defer s.PutI64(lengths[:cap(lengths)])
	defer s.PutI64(values[:cap(values)])
	lengthsForm, err := emit("lengths", lengths)
	if err != nil {
		return nil, err
	}
	valuesForm, err := emit("values", values)
	if err != nil {
		return nil, err
	}
	return &core.Form{
		Scheme: RLEName,
		N:      len(src),
		Children: map[string]*core.Form{
			"lengths": lengthsForm,
			"values":  valuesForm,
		},
	}, nil
}

// DecompressInto expands the runs into dst with the fused kernel.
func (RLE) DecompressInto(f *core.Form, dst []int64, s *core.Scratch) error {
	if err := checkRLE(f); err != nil {
		return err
	}
	lengths, err := core.ChildScratch(f, "lengths", s)
	if err != nil {
		return err
	}
	defer s.PutI64(lengths)
	values, err := core.ChildScratch(f, "values", s)
	if err != nil {
		return err
	}
	defer s.PutI64(values)
	if _, err := vec.RunExpandInto(dst, values, lengths); err != nil {
		// A run set that does not expand to exactly f.N elements —
		// negative lengths, overshoot, undershoot — is a corrupt
		// payload, the same class the fused select/aggregate kernels
		// report for it (checkRunBounds).
		return fmt.Errorf("%w: rle: %v", core.ErrCorruptForm, err)
	}
	return nil
}

// Plan implements core.Planner with the paper's Algorithm 1,
// line for line:
//
//	1: run_positions  ← PrefixSum(lengths)
//	2: n              ← run_positions[|run_positions|−1]
//	3: run_positions' ← PopBack(run_positions)
//	4: ones           ← Constant(1, |run_positions'|)
//	5: zeros          ← Constant(0, n)      (the paper's line 5 has a
//	                                         typographical 1; a zero
//	                                         base is required for the
//	                                         scatter/prefix-sum trick)
//	6: pos_delta      ← Scatter(ones, run_positions')
//	7: positions      ← PrefixSum(pos_delta)
//	8: return Gather(values, positions)
//
// The engine's Scatter allocates its zero destination, covering lines
// 5 and 6 in one node.
func (RLE) Plan(f *core.Form) (*exec.Plan, error) {
	if err := checkRLE(f); err != nil {
		return nil, err
	}
	b := exec.NewBuilder()
	lengths := b.Input("lengths")
	values := b.Input("values")
	runPositions := b.PrefixSumInc(lengths) // 1
	n := b.Last(runPositions)               // 2
	popped := b.PopBack(runPositions)       // 3
	one := b.ConstScalar(1)                 //
	onesLen := b.Len(popped)                //
	ones := b.ConstantCol(one, onesLen)     // 4
	posDelta := b.Scatter(ones, popped, n)  // 5+6
	positions := b.PrefixSumInc(posDelta)   // 7
	b.Gather(values, positions)             // 8
	return b.Build()
}

// ValidateForm implements core.Validator.
func (RLE) ValidateForm(f *core.Form) error { return checkRLE(f) }

// ConstituentStats implements core.ConstituentStatser, exactly:
// every element's value is its run's head value, so the values
// column inherits the parent's extremes, distinct count, and
// run-delta statistics; lengths are bounded by [1, MaxRunLen].
func (RLE) ConstituentStats(st *core.BlockStats) (uint64, []core.PredictedChild, bool, bool) {
	if !st.HasRuns || !st.HasMinMax {
		return 0, nil, false, false
	}
	return core.FormOverheadBits(0), []core.PredictedChild{
		{Name: "lengths", Stats: runLengthStats(st)},
		{Name: "values", Stats: runValueStats(st)},
	}, true, true
}

// runLengthStats derives the stats of RLE's lengths column. Min is a
// conservative 1 (lengths of maximal runs are at least 1), which is
// all NS-shaped estimation needs: the zigzag decision depends only on
// the sign and the width only on Max.
func runLengthStats(st *core.BlockStats) core.BlockStats {
	var cs core.BlockStats
	cs.N = st.Runs
	cs.HasMinMax = true
	if st.Runs > 0 {
		cs.Min, cs.Max = 1, st.MaxRunLen
	}
	return cs
}

// runValueStats derives the stats of RLE's (and RPE's) values
// column: the run-head values. Adjacent run heads always differ, so
// the child is run-free (every run has length 1); its deltas are the
// parent's non-zero deltas, which the parent's delta bounds bound and
// whose histogram is the parent's RunHeadDeltaHist.
func runValueStats(st *core.BlockStats) core.BlockStats {
	var cs core.BlockStats
	cs.N = st.Runs
	cs.HasMinMax = true
	cs.Min, cs.Max = st.Min, st.Max
	cs.Runs = st.Runs
	if st.Runs > 0 {
		cs.MaxRunLen = 1
	}
	cs.HasRuns = true
	if st.HasDeltas {
		cs.DeltaMin, cs.DeltaMax = st.DeltaMin, st.DeltaMax
		cs.DeltaHist = st.RunHeadDeltaHist()
		cs.HasDeltas = true
	}
	if st.HasDistinct {
		cs.Distinct, cs.DistinctFloor = st.Distinct, st.DistinctFloor
		cs.HasDistinct = true
	}
	return cs
}

func checkRLE(f *core.Form) error {
	if f.Scheme != RLEName {
		return fmt.Errorf("%w: rle scheme given form %q", core.ErrCorruptForm, f.Scheme)
	}
	l, err := f.Child("lengths")
	if err != nil {
		return err
	}
	v, err := f.Child("values")
	if err != nil {
		return err
	}
	if l.N != v.N {
		return fmt.Errorf("%w: rle lengths (%d) and values (%d) differ in length",
			core.ErrCorruptForm, l.N, v.N)
	}
	return nil
}
