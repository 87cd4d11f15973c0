package scheme

import (
	"fmt"
	"math"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
	"lwcomp/internal/exec"
	"lwcomp/internal/vec"
)

// PlusName is the registry name of the sum-of-schemes combinator.
const PlusName = "plus"

// Plus is the "+" of the paper's identity FOR ≡ (STEPFUNCTION + NS):
// the represented column is the element-wise sum of two compressed
// columns — typically a coarse model ("a simpler, coarser, inaccurate
// representation of the data") and a residual ("finer, local,
// noise-like complementary features", Lessons 2).
//
// Splitting a column into model plus residual requires choosing a
// model: Plus compresses by fitting its Model and handing out the
// residual, so FOR is recovered as Compose(Plus{Step}, residual=ns) —
// the compressor-side reading of FOR ≡ (STEPFUNCTION + NS).
// Decompression is entirely generic; the registered Plus{} decodes
// any PLUS form but, having no model, compresses nothing.
//
// Form layout: Children{"model", "residual"}, both of length N.
type Plus struct {
	// Model is fitted to the column; the model form is retained with
	// its coefficient columns as ID leaves.
	Model Model
}

// Model is a scheme whose forms are the evaluation of a coarse,
// fixed-segment function — Step, Linear, Poly2 — and which can fit
// itself to any column: Fit returns the model form nearest src under
// the L∞ metric of §II-B whose every residual src − model is
// non-negative, with its coefficient columns as ID leaves. The
// predictions are the model's own DecompressInto of that form.
type Model interface {
	core.Scheme
	Fit(src []int64, s *core.Scratch) (*core.Form, error)
	// shape returns the resolved segment length (even on error, for
	// naming) and the analytic size of the form Fit emits over n
	// values, or the error that refuses the model's parameters.
	shape(n int) (segLen int, bits uint64, err error)
}

// isStep reports whether m is the step model — the one whose fit an
// exception cannot move (its minimum is never one) and whose residual
// width the block stats give exactly.
func isStep(m Model) bool {
	_, ok := m.(Step)
	return ok
}

// withModel names a model combinator after the model it fits, e.g.
// plus[linear[1024]]; without one it is the bare registry name.
func withModel(name string, m Model) string {
	if m == nil {
		return name
	}
	segLen, _, _ := m.shape(0)
	return fmt.Sprintf("%s[%s[%d]]", name, m.Name(), segLen)
}

// fitModel fits m to src and evaluates the fit with m's own decoder,
// returning the model form and its predictions, borrowed from s (the
// caller returns them with s.PutI64).
func fitModel(combinator string, m Model, src []int64, s *core.Scratch) (*core.Form, []int64, error) {
	if m == nil {
		return nil, nil, fmt.Errorf("%w: %s scheme has no model to fit", core.ErrNotRepresentable, combinator)
	}
	model, err := m.Fit(src, s)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", combinator, err)
	}
	pred := s.I64(len(src))
	if err := m.DecompressInto(model, pred, s); err != nil {
		s.PutI64(pred)
		return nil, nil, err
	}
	return model, pred, nil
}

// Name implements core.Scheme.
func (p Plus) Name() string { return withModel(PlusName, p.Model) }

// Compress fits the model and retains the residual as an ID leaf.
func (p Plus) Compress(src []int64) (*core.Form, error) { return core.CompressPooled(p, src) }

// CompressParts implements core.ConstituentCompressor: the model is
// fitted, and the residual src − model goes to emit from the borrowed
// buffer the predictions were evaluated in.
func (p Plus) CompressParts(src []int64, s *core.Scratch, emit func(name string, col []int64) (*core.Form, error)) (*core.Form, error) {
	model, pred, err := fitModel(PlusName, p.Model, src, s)
	if err != nil {
		return nil, err
	}
	defer s.PutI64(pred)
	for i, v := range src {
		pred[i] = v - pred[i]
	}
	residual, err := emit("residual", pred)
	if err != nil {
		return nil, err
	}
	return NewPlusForm(model, residual)
}

// ConstituentStats implements core.ConstituentStatser: the model form
// is priced from its shape, and the residual's widest value from the
// per-segment fold — exactly for the step model, whose residuals are
// precisely FOR's minimum-referenced offsets; heuristically for a
// sloped one, which tracks trends the step model pays range for and
// leaves residuals near the local variation.
func (p Plus) ConstituentStats(st *core.BlockStats) (uint64, []core.PredictedChild, bool, bool) {
	if p.Model == nil || !st.HasMinMax {
		return 0, nil, false, false
	}
	segLen, modelBits, err := p.Model.shape(st.N)
	if err != nil {
		return 0, nil, false, false
	}
	maxOff, _, _, exact := st.SegFold(segLen)
	if !exact {
		maxOff = uint64(st.Max - st.Min)
	}
	if !isStep(p.Model) {
		exact = false
		if st.HasDeltas && st.N > 1 {
			if wd := st.DeltaHist.WidthCovering(0.98) + 2; wd < bitpack.Width(maxOff) {
				maxOff = bitpack.Mask(wd)
			}
		}
	}
	residual, fits := offsetStats(st.N, maxOff)
	return core.FormOverheadBits(0) + modelBits, []core.PredictedChild{{Name: "residual", Stats: residual}},
		exact && fits, true
}

// SizeFloor implements core.SizeFloorer for the linear model, whose
// residuals the block stats do not settle but bound from below.
//
// Inside one model segment the predictions are p_j = b + ⌊s·j/2^f⌋.
// With a_j = s·j/2^f, whose second differences vanish, p's second
// difference is −({a_j} − 2{a_{j+1}} + {a_{j+2}}), an integer strictly
// between −2 and 2. Fit makes every residual r_j = x_j − p_j
// non-negative (the Model contract), so with R the widest residual,
// r's second differences lie in [−2R, 2R] and every triple of x inside
// one segment has |x_i − 2x_{i+1} + x_{i+2}| ≤ 2R + 1. A segment length
// that is a multiple of StatsSegLen puts every triple Curvature
// measures inside one model segment, so R ≥ ⌈(Δ−1)/2⌉ = ⌊Δ/2⌋, and the
// residual column, priced through PartFloor with that Max, costs at
// least what it states. The model form's size follows from its shape.
// Δ costs a pass over the column, which the analyzer's search takes
// once per column it prices; elsewhere there is no floor.
//
// All of that is integer arithmetic only while the fit cannot wrap.
// With every |x| ≤ V, a segment of n values has a least-squares slope
// of at most 12V/(n+1) in magnitude (13V/n leaves room for float
// rounding), so |s·j| ≤ 13V·2^f + n, and the base, predictions and
// residuals stay within 44V + 2n + 4. V < 2^(57−f) keeps all of them
// inside an int64; outside that range there is no floor.
func (p Plus) SizeFloor(st *core.BlockStats, inner map[string]core.Scheme) uint64 {
	l, ok := p.Model.(Linear)
	if !ok || !st.HasMinMax || st.N == 0 {
		return 0
	}
	segLen, frac, err := l.params()
	if err != nil || segLen%core.StatsSegLen != 0 {
		return 0
	}
	if lim := int64(1) << (57 - frac); st.Min <= -lim || st.Max >= lim {
		return 0
	}
	delta, ok := st.Curvature()
	if !ok {
		return 0
	}
	_, modelBits, _ := l.shape(st.N)
	residual, _ := offsetStats(st.N, delta/2)
	rb, ok := core.PartFloor("residual", &residual, inner)
	if !ok {
		return 0
	}
	return core.FormOverheadBits(0) + modelBits + rb
}

// offsetStats describes n non-negative offsets whose widest is maxOff
// (and, for n > 0, whose narrowest is 0 — each segment's reference is
// its minimum). Past MaxInt64 the column wraps negative and only its
// NS width, 64, is described: fits is false.
func offsetStats(n int, maxOff uint64) (st core.BlockStats, fits bool) {
	st = core.BlockStats{N: n, HasMinMax: true, Max: int64(maxOff)}
	if maxOff > math.MaxInt64 {
		st.Min, st.Max = -1, math.MaxInt64
		return st, false
	}
	return st, true
}

// NewPlusForm builds the canonical PLUS form over two child forms.
func NewPlusForm(model, residual *core.Form) (*core.Form, error) {
	if model.N != residual.N {
		return nil, fmt.Errorf("%w: plus children differ in length: model %d, residual %d",
			core.ErrCorruptForm, model.N, residual.N)
	}
	return &core.Form{
		Scheme:   PlusName,
		N:        model.N,
		Children: map[string]*core.Form{"model": model, "residual": residual},
	}, nil
}

// DecompressInto decodes the model into dst and the residual into
// scratch, and sums them in place.
func (Plus) DecompressInto(f *core.Form, dst []int64, s *core.Scratch) error {
	if err := checkPlus(f); err != nil {
		return err
	}
	if err := core.DecompressChildInto(f, "model", dst, s); err != nil {
		return err
	}
	residual, err := core.ChildScratch(f, "residual", s)
	if err != nil {
		return err
	}
	defer s.PutI64(residual)
	for i, r := range residual {
		dst[i] += r
	}
	return nil
}

// Plan implements core.Planner: a single element-wise addition — the
// final line of Algorithm 2, isolated.
func (Plus) Plan(f *core.Form) (*exec.Plan, error) {
	if err := checkPlus(f); err != nil {
		return nil, err
	}
	b := exec.NewBuilder()
	model := b.Input("model")
	residual := b.Input("residual")
	b.Elementwise(vec.Add, model, residual)
	return b.Build()
}

// ValidateForm implements core.Validator.
func (Plus) ValidateForm(f *core.Form) error { return checkPlus(f) }

func checkPlus(f *core.Form) error {
	if f.Scheme != PlusName {
		return fmt.Errorf("%w: plus scheme given form %q", core.ErrCorruptForm, f.Scheme)
	}
	m, err := f.Child("model")
	if err != nil {
		return err
	}
	r, err := f.Child("residual")
	if err != nil {
		return err
	}
	if m.N != f.N || r.N != f.N {
		return fmt.Errorf("%w: plus form declares %d values, children declare %d and %d",
			core.ErrCorruptForm, f.N, m.N, r.N)
	}
	return nil
}
