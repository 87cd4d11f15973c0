package scheme

import (
	"fmt"

	"lwcomp/internal/core"
	"lwcomp/internal/exec"
	"lwcomp/internal/vec"
)

// RPEName is the registry name of the run-position encoding scheme.
const RPEName = "rpe"

// RPE is Run Position Encoding (§II-A): instead of run lengths it
// stores run_positions — the inclusive prefix sum of the lengths, i.e.
// each run's end position (exclusive), with the final entry equal to
// the column length n.
//
// RPE is the scheme the paper obtains by *partially* decompressing
// RLE: "we could reproduce the uncompressed column by applying
// Algorithm 1, sans its first operation". It trades compression ratio
// (positions are wider than lengths) for ease of decompression (no
// prefix sum needed) — and, unlike RLE, supports O(log r) random
// access by binary search.
//
// Form layout: Children{"positions", "values"}, equal-length;
// positions strictly increasing, last equal to N.
type RPE struct{}

// Name implements core.Scheme.
func (RPE) Name() string { return RPEName }

// Compress splits src into runs and stores run end positions.
func (sch RPE) Compress(src []int64) (*core.Form, error) { return core.CompressPooled(sch, src) }

// CompressParts implements core.ConstituentCompressor: run end
// positions are integrated in place over the borrowed lengths.
func (RPE) CompressParts(src []int64, s *core.Scratch, emit func(name string, col []int64) (*core.Form, error)) (*core.Form, error) {
	lengths, values := runsScratch(src, s)
	defer s.PutI64(lengths[:cap(lengths)])
	defer s.PutI64(values[:cap(values)])
	var pos int64
	for i, l := range lengths {
		pos += l
		lengths[i] = pos
	}
	positionsForm, err := emit("positions", lengths)
	if err != nil {
		return nil, err
	}
	valuesForm, err := emit("values", values)
	if err != nil {
		return nil, err
	}
	return &core.Form{
		Scheme: RPEName,
		N:      len(src),
		Children: map[string]*core.Form{
			"positions": positionsForm,
			"values":    valuesForm,
		},
	}, nil
}

// DecompressInto expands runs into dst from their boundary positions.
func (RPE) DecompressInto(f *core.Form, dst []int64, s *core.Scratch) error {
	if err := checkRPE(f); err != nil {
		return err
	}
	positions, err := core.ChildScratch(f, "positions", s)
	if err != nil {
		return err
	}
	defer s.PutI64(positions)
	values, err := core.ChildScratch(f, "values", s)
	if err != nil {
		return err
	}
	defer s.PutI64(values)
	if _, err := vec.ExpandByBoundariesInto(dst, values, positions); err != nil {
		// Decreasing or overshooting boundaries, or ones that stop
		// short of f.N, are a corrupt payload, the same class the fused
		// select/aggregate kernels report for them (checkRunBounds).
		return fmt.Errorf("%w: rpe: %v", core.ErrCorruptForm, err)
	}
	return nil
}

// Plan implements core.Planner: Algorithm 1 of the paper "sans its
// first operation" — the defining property of RPE (§II-A).
func (RPE) Plan(f *core.Form) (*exec.Plan, error) {
	if err := checkRPE(f); err != nil {
		return nil, err
	}
	b := exec.NewBuilder()
	runPositions := b.Input("positions") // Algorithm 1 line 1 output, held directly
	values := b.Input("values")
	n := b.Last(runPositions)
	popped := b.PopBack(runPositions)
	one := b.ConstScalar(1)
	onesLen := b.Len(popped)
	ones := b.ConstantCol(one, onesLen)
	posDelta := b.Scatter(ones, popped, n)
	positions := b.PrefixSumInc(posDelta)
	b.Gather(values, positions)
	return b.Build()
}

// ValidateForm implements core.Validator.
func (RPE) ValidateForm(f *core.Form) error { return checkRPE(f) }

// ConstituentStats implements core.ConstituentStatser, exactly: run
// end positions are strictly increasing with maximum exactly N, and
// the values column is RLE's.
func (RPE) ConstituentStats(st *core.BlockStats) (uint64, []core.PredictedChild, bool, bool) {
	if !st.HasRuns || !st.HasMinMax {
		return 0, nil, false, false
	}
	var ps core.BlockStats
	ps.N = st.Runs
	ps.HasMinMax = true
	if st.Runs > 0 {
		ps.Min, ps.Max = 1, int64(st.N)
	}
	return core.FormOverheadBits(0), []core.PredictedChild{
		{Name: "positions", Stats: ps},
		{Name: "values", Stats: runValueStats(st)},
	}, true, true
}

func checkRPE(f *core.Form) error {
	if f.Scheme != RPEName {
		return fmt.Errorf("%w: rpe scheme given form %q", core.ErrCorruptForm, f.Scheme)
	}
	p, err := f.Child("positions")
	if err != nil {
		return err
	}
	v, err := f.Child("values")
	if err != nil {
		return err
	}
	if p.N != v.N {
		return fmt.Errorf("%w: rpe positions (%d) and values (%d) differ in length",
			core.ErrCorruptForm, p.N, v.N)
	}
	return nil
}
