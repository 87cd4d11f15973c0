package scheme

import (
	"fmt"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
)

// This file holds the compressor-side combinators of the paper's
// model view (§II-B, Lessons 2): schemes that "separate a simpler,
// coarser, inaccurate representation of the data from finer, local,
// noise-like complementary features". A ModelFitter produces the
// coarse representation; ModelResidual pairs it with a residual
// scheme into a PLUS form; NewPatched handles the L0 variant where
// the complementary features are sparse exceptions.

// ModelFitter fits a coarse model to a column, returning the model's
// form and its predicted values (whose element-wise difference from
// the input becomes the residual column).
type ModelFitter interface {
	// FitName describes the fitter for composite naming.
	FitName() string
	// Fit returns the model form and the model's predictions. The
	// predictions are borrowed from s (which may be nil); the caller
	// returns them with s.PutI64.
	Fit(src []int64, s *core.Scratch) (*core.Form, []int64, error)
}

// StepFitter fits a fixed-segment step function by taking each
// segment's minimum, making residuals non-negative — fitting under
// the L∞ metric of §II-B ("FOR captures all columns which are
// L∞-metric-close to the evaluation of a step function").
type StepFitter struct {
	// SegLen is the segment length; zero means
	// DefaultSegmentLength.
	SegLen int
}

// FitName implements ModelFitter.
func (sf StepFitter) FitName() string { return fmt.Sprintf("step[%d]", sf.segLen()) }

func (sf StepFitter) segLen() int {
	if sf.SegLen == 0 {
		return DefaultSegmentLength
	}
	return sf.SegLen
}

// Fit implements ModelFitter: segment references are staged in a
// borrowed buffer (the step form copies them).
func (sf StepFitter) Fit(src []int64, s *core.Scratch) (*core.Form, []int64, error) {
	segLen := sf.segLen()
	if segLen < 1 {
		return nil, nil, fmt.Errorf("step fitter: invalid segment length %d", segLen)
	}
	nseg := (len(src) + segLen - 1) / segLen
	refs := s.I64(nseg)
	defer s.PutI64(refs)
	pred := s.I64(len(src))
	for seg := 0; seg < nseg; seg++ {
		lo := seg * segLen
		hi := lo + segLen
		if hi > len(src) {
			hi = len(src)
		}
		ref := src[lo]
		for _, v := range src[lo+1 : hi] {
			if v < ref {
				ref = v
			}
		}
		refs[seg] = ref
		for i := lo; i < hi; i++ {
			pred[i] = ref
		}
	}
	return NewStepForm(refs, segLen, len(src)), pred, nil
}

// LinearFitter fits a fixed-segment piecewise-linear function by
// least squares, then shifts each segment's base so residuals are
// non-negative (narrowest unsigned NS width).
type LinearFitter struct {
	// SegLen is the segment length; zero means
	// DefaultSegmentLength.
	SegLen int
	// Frac is the slope fixed-point fraction width; zero means
	// DefaultFracBits.
	Frac uint
}

// FitName implements ModelFitter.
func (lf LinearFitter) FitName() string { return fmt.Sprintf("linear[%d]", lf.segLen()) }

func (lf LinearFitter) segLen() int {
	if lf.SegLen == 0 {
		return DefaultSegmentLength
	}
	return lf.SegLen
}

func (lf LinearFitter) frac() uint {
	if lf.Frac == 0 {
		return DefaultFracBits
	}
	return lf.Frac
}

// Fit implements ModelFitter: the coefficients are staged in borrowed
// buffers (the linear form copies them).
func (lf LinearFitter) Fit(src []int64, s *core.Scratch) (*core.Form, []int64, error) {
	segLen := lf.segLen()
	frac := lf.frac()
	if segLen < 1 {
		return nil, nil, fmt.Errorf("linear fitter: invalid segment length %d", segLen)
	}
	if frac > 30 {
		return nil, nil, fmt.Errorf("linear fitter: fraction width %d too large (max 30)", frac)
	}
	nseg := (len(src) + segLen - 1) / segLen
	bases := s.I64(nseg)
	defer s.PutI64(bases)
	slopes := s.I64(nseg)
	defer s.PutI64(slopes)
	pred := s.I64(len(src))
	for seg := 0; seg < nseg; seg++ {
		lo := seg * segLen
		hi := lo + segLen
		if hi > len(src) {
			hi = len(src)
		}
		base, slope := fitLineLeastSquares(src[lo:hi], frac)
		// Shift the base down so that every residual is ≥ 0.
		minResid := int64(0)
		first := true
		for i := lo; i < hi; i++ {
			r := src[i] - LinearPredict(base, slope, i-lo, frac)
			if first || r < minResid {
				minResid = r
				first = false
			}
		}
		base += minResid
		bases[seg] = base
		slopes[seg] = slope
		for i := lo; i < hi; i++ {
			pred[i] = LinearPredict(base, slope, i-lo, frac)
		}
	}
	return NewLinearForm(bases, slopes, segLen, frac, len(src)), pred, nil
}

// fitLineLeastSquares computes the ordinary-least-squares line of a
// segment in fixed point: slope = cov(j, v)/var(j).
func fitLineLeastSquares(seg []int64, frac uint) (base, slope int64) {
	n := len(seg)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return seg[0], 0
	}
	var sumJ, sumV, sumJJ, sumJV float64
	for j, v := range seg {
		fj := float64(j)
		fv := float64(v)
		sumJ += fj
		sumV += fv
		sumJJ += fj * fj
		sumJV += fj * fv
	}
	fn := float64(n)
	den := fn*sumJJ - sumJ*sumJ
	var slopeF float64
	if den != 0 {
		slopeF = (fn*sumJV - sumJ*sumV) / den
	}
	interceptF := (sumV - slopeF*sumJ) / fn
	scale := float64(int64(1) << frac)
	slope = int64(slopeF*scale + 0.5)
	if slopeF < 0 {
		slope = int64(slopeF*scale - 0.5)
	}
	return int64(interceptF + 0.5), slope
}

// ModelResidual is the generic model-plus-residual compressor: fit
// the model, compress the residual with the configured scheme, emit a
// PLUS form. FOR is recovered exactly as
// ModelResidual{StepFitter{ℓ}, NS{}} — the compressor-side reading of
// the identity FOR ≡ (STEPFUNCTION + NS).
type ModelResidual struct {
	// Fitter produces the coarse model.
	Fitter ModelFitter
	// Residual compresses the residual column; nil means NS.
	Residual core.Scheme
}

// Name implements core.Scheme.
func (mr ModelResidual) Name() string {
	res := mr.Residual
	if res == nil {
		res = NS{}
	}
	return fmt.Sprintf("plus(%s, %s)", mr.Fitter.FitName(), res.Name())
}

// Compress fits the model and compresses the residual.
func (mr ModelResidual) Compress(src []int64) (*core.Form, error) {
	return core.CompressPooled(mr, src)
}

// CompressScratch implements core.ScratchCompressor: model
// predictions and residuals are borrowed, and the residual scheme
// compresses through the pooled path.
func (mr ModelResidual) CompressScratch(src []int64, s *core.Scratch) (*core.Form, error) {
	model, pred, err := mr.Fitter.Fit(src, s)
	if err != nil {
		return nil, fmt.Errorf("model residual: %w", err)
	}
	resid := s.I64(len(src))
	for i := range src {
		resid[i] = src[i] - pred[i]
	}
	s.PutI64(pred)
	res := mr.Residual
	if res == nil {
		res = NS{}
	}
	rf, err := core.CompressScratch(res, resid, s)
	s.PutI64(resid)
	if err != nil {
		return nil, fmt.Errorf("model residual: residual scheme %q: %w", res.Name(), err)
	}
	return NewPlusForm(model, rf)
}

// DecompressInto delegates to the registry (the form is a PLUS form).
func (ModelResidual) DecompressInto(f *core.Form, dst []int64, s *core.Scratch) error {
	return core.DecompressInto(f, dst, s)
}

var _ core.Scheme = ModelResidual{}

// modelShape returns the segment length and the analytic size of the
// model form a fitter will emit (params plus ID coefficient columns),
// or ok=false for fitters the estimator does not know.
func modelShape(fitter ModelFitter, n int) (segLen int, modelBits uint64, ok bool) {
	nsegOf := func(ell int) uint64 {
		if n == 0 {
			return 0
		}
		return uint64((n + ell - 1) / ell)
	}
	switch f := fitter.(type) {
	case StepFitter:
		ell := f.segLen()
		return ell, core.FormOverheadBits(1) + leafBits(int(nsegOf(ell))), true
	case LinearFitter:
		ell := f.segLen()
		return ell, core.FormOverheadBits(2) + 2*leafBits(int(nsegOf(ell))), true
	case Poly2Fitter:
		ell := f.segLen()
		return ell, core.FormOverheadBits(2) + 3*leafBits(int(nsegOf(ell))), true
	}
	return 0, 0, false
}

// EstimateSize implements core.SizeEstimator. Exact for the step
// fitter with NS residuals when per-segment extremes are available
// (step residuals are precisely the minimum-referenced offsets);
// bounded for the sloped fitters, whose residual width is capped by
// the per-segment range and approximated by the local delta noise.
func (mr ModelResidual) EstimateSize(st *core.BlockStats) (uint64, core.Bound) {
	if !st.HasMinMax {
		return 0, core.Heuristic
	}
	segLen, modelBits, ok := modelShape(mr.Fitter, st.N)
	if !ok {
		return 0, core.Heuristic
	}
	maxOff, _, _, foldOK := st.SegFold(segLen)
	if !foldOK {
		maxOff = uint64(st.Max - st.Min)
	}
	w := bitpack.Width(maxOff)
	kind := core.Heuristic
	if _, isStep := mr.Fitter.(StepFitter); isStep {
		if foldOK {
			kind = core.Exact
		}
	} else if st.HasDeltas && st.N > 1 {
		// A sloped model tracks trends the step model pays range for;
		// what remains is near the local variation.
		if wd := st.DeltaHist.WidthCovering(0.98) + 2; wd < w {
			w = wd
		}
	}
	res := mr.Residual
	if res == nil {
		res = NS{}
	}
	var resBits uint64
	if _, isNS := res.(NS); isNS {
		// Residuals are base-shifted non-negative by construction.
		resBits = nsFormBits(st.N, w)
	} else {
		child := core.BlockStats{N: st.N, Max: widthMaxValue(w), HasMinMax: true}
		b, _, ok := core.EstimateOf(res, &child)
		if !ok {
			return 0, core.Heuristic
		}
		resBits = b
		kind = core.Heuristic
	}
	return core.SatAddBits(core.FormOverheadBits(0)+modelBits, resBits), kind
}

// DefaultExceptionBits is the assumed per-exception storage cost used
// by the PFOR width chooser: a position plus a 64-bit value.
const DefaultExceptionBits = 96

// PFOR is the patched frame-of-reference compressor — the paper's L0
// extension applied to FOR, recovering the classical PFOR family as
// the composition Patch ∘ FOR. The offset width is chosen to
// minimize total bits (base packing plus exception storage); elements
// whose offsets exceed it become patches holding the original values,
// and their base slots collapse to offset zero.
type PFOR struct {
	// SegLen is the FOR segment length; zero means
	// DefaultSegmentLength.
	SegLen int
	// ExcBits is the assumed per-exception cost in bits for width
	// selection; zero means DefaultExceptionBits.
	ExcBits uint
	// MaxExceptionRate, when positive, bounds the exception fraction;
	// if the chosen width would exceed it, the width grows until the
	// rate is within bounds.
	MaxExceptionRate float64
}

// Name implements core.Scheme.
func (p PFOR) Name() string {
	segLen := p.SegLen
	if segLen == 0 {
		segLen = DefaultSegmentLength
	}
	return fmt.Sprintf("patch(for[%d]+ns)", segLen)
}

// Compress selects the patch width, splits exceptions out and
// compresses the patched column with FOR over NS offsets.
func (p PFOR) Compress(src []int64) (*core.Form, error) { return core.CompressPooled(p, src) }

// CompressScratch implements core.ScratchCompressor: the offset
// histogramming, exception split and patched copy all run in
// borrowed buffers; only the exception lists and the base
// composition's retained forms are allocated.
func (p PFOR) CompressScratch(src []int64, s *core.Scratch) (*core.Form, error) {
	segLen := p.SegLen
	if segLen == 0 {
		segLen = DefaultSegmentLength
	}
	excBits := p.ExcBits
	if excBits == 0 {
		excBits = DefaultExceptionBits
	}

	// First pass: per-segment minima and the offset width histogram.
	nseg := (len(src) + segLen - 1) / segLen
	refs := s.I64(nseg)
	defer s.PutI64(refs)
	offsets := s.U64(len(src))
	defer s.PutU64(offsets)
	for seg := 0; seg < nseg; seg++ {
		lo := seg * segLen
		hi := lo + segLen
		if hi > len(src) {
			hi = len(src)
		}
		ref := src[lo]
		for _, v := range src[lo+1 : hi] {
			if v < ref {
				ref = v
			}
		}
		refs[seg] = ref
		for i := lo; i < hi; i++ {
			offsets[i] = uint64(src[i] - ref)
		}
	}
	hist := bitpack.HistogramOf(offsets)
	w, _ := hist.BestPatchWidth(excBits)
	if p.MaxExceptionRate > 0 && hist.N > 0 {
		for w < 64 && float64(hist.ExceptionsAt(w))/float64(hist.N) > p.MaxExceptionRate {
			w++
		}
	}

	// Second pass: split exceptions, collapse their base slots to the
	// segment reference (offset zero).
	patched := s.I64(len(src))
	defer s.PutI64(patched)
	copy(patched, src)
	var positions, values []int64
	for i, off := range offsets {
		if bitpack.Width(off) > w {
			positions = append(positions, int64(i))
			values = append(values, src[i])
			patched[i] = refs[i/segLen]
		}
	}

	base, err := core.CompressScratch(FORComposite(segLen), patched, s)
	if err != nil {
		return nil, fmt.Errorf("pfor: base: %w", err)
	}
	if positions == nil {
		positions = []int64{}
		values = []int64{}
	}
	return NewPatchForm(base, positions, values)
}

// DecompressInto delegates to the registry (the form is a PATCH form).
func (PFOR) DecompressInto(f *core.Form, dst []int64, s *core.Scratch) error {
	return core.DecompressInto(f, dst, s)
}

var _ core.Scheme = PFOR{}

// EstimateSize implements core.SizeEstimator, bounded: the patch
// width and exception count come from the one-pass probe-offset
// histogram (offsets from each probe segment's first element, a
// stand-in for the minimum-referenced offsets the compressor will
// see), capped at the exact full offset width from the per-segment
// fold.
func (p PFOR) EstimateSize(st *core.BlockStats) (uint64, core.Bound) {
	if !st.HasMinMax {
		return 0, core.Heuristic
	}
	segLen := p.SegLen
	if segLen == 0 {
		segLen = DefaultSegmentLength
	}
	excBits := p.ExcBits
	if excBits == 0 {
		excBits = DefaultExceptionBits
	}
	maxOff, refMin, refMax, foldOK := st.SegFold(segLen)
	if !foldOK {
		maxOff = uint64(st.Max - st.Min)
		refMin, refMax = st.Min, st.Max
	}
	wFull := bitpack.Width(maxOff)
	w, exc := wFull, 0
	if st.OffsetSegLen == segLen && st.OffsetHist.N == st.N && st.N > 0 {
		w, exc = st.OffsetHist.BestPatchWidth(excBits)
		if p.MaxExceptionRate > 0 {
			for w < 64 && float64(st.OffsetHist.ExceptionsAt(w))/float64(st.N) > p.MaxExceptionRate {
				w++
			}
			exc = st.OffsetHist.ExceptionsAt(w)
		}
		if w > wFull {
			w, exc = wFull, 0
		}
	}
	nseg := 0
	if st.N > 0 {
		nseg = (st.N + segLen - 1) / segLen
	}
	refs := nsFormBits(nseg, nsWidthMinMax(nseg, refMin, refMax))
	base := core.FormOverheadBits(1) + refs + nsFormBits(st.N, w)
	patch := core.FormOverheadBits(0) + leafBits(exc) + leafBits(exc)
	return core.SatAddBits(base, patch), core.Heuristic
}

// PatchedModel generalizes PFOR to any model: the paper's L0 and L∞
// extensions composed. The model is fitted, residual widths are
// histogrammed, a patch width is chosen to minimize total bits, and
// elements whose residuals exceed it become exceptions; the remaining
// residuals compress under the residual scheme. PFOR is the StepFitter
// instance of this combinator (kept separate because its base is the
// plain FOR form); PatchedModel{LinearFitter} is "patched diagonal
// lines" — a scheme the paper implies but names nowhere, obtained
// here for free by composition.
type PatchedModel struct {
	// Fitter produces the coarse model.
	Fitter ModelFitter
	// Residual compresses the patched residual column; nil means NS.
	Residual core.Scheme
	// ExcBits is the assumed per-exception cost for width selection;
	// zero means DefaultExceptionBits.
	ExcBits uint
}

// Name implements core.Scheme.
func (pm PatchedModel) Name() string {
	res := pm.Residual
	if res == nil {
		res = NS{}
	}
	return fmt.Sprintf("patch(plus(%s, %s))", pm.Fitter.FitName(), res.Name())
}

// Compress fits the model, splits wide residuals into patches and
// emits PATCH(PLUS(model, residual)).
//
// Fitting is two-round for robustness: least squares is not robust to
// the very outliers patching exists for, so the first fit only
// identifies exceptions; the model is then refitted with exceptions
// replaced by their round-one predictions, which keeps the inlier
// residuals at the noise width.
func (pm PatchedModel) Compress(src []int64) (*core.Form, error) {
	excBits := pm.ExcBits
	if excBits == 0 {
		excBits = DefaultExceptionBits
	}
	// Round one: fit everything, choose the patch width over the
	// zigzagged residual histogram.
	_, pred1, err := pm.Fitter.Fit(src, nil)
	if err != nil {
		return nil, fmt.Errorf("patched model: %w", err)
	}
	residU := make([]uint64, len(src))
	for i := range src {
		residU[i] = bitpack.Zigzag(src[i] - pred1[i])
	}
	hist := bitpack.HistogramOf(residU)
	w, _ := hist.BestPatchWidth(excBits)

	var positions, values []int64
	cleaned := make([]int64, len(src))
	copy(cleaned, src)
	for i, u := range residU {
		if bitpack.Width(u) > w {
			positions = append(positions, int64(i))
			values = append(values, src[i])
			// Replace the exception with the nearest preceding inlier
			// (round-one predictions are themselves skewed by the
			// outliers, so they would leak outlier mass into the
			// refit).
			if i > 0 {
				cleaned[i] = cleaned[i-1]
			} else if len(src) > 1 {
				cleaned[i] = src[1]
			}
		}
	}

	// Round two: refit on the cleaned column; residuals are
	// non-negative by the fitters' base-shift construction.
	model, pred2, err := pm.Fitter.Fit(cleaned, nil)
	if err != nil {
		return nil, fmt.Errorf("patched model: refit: %w", err)
	}
	resid := make([]int64, len(cleaned))
	for i := range cleaned {
		resid[i] = cleaned[i] - pred2[i]
	}
	res := pm.Residual
	if res == nil {
		res = NS{}
	}
	rf, err := res.Compress(resid)
	if err != nil {
		return nil, fmt.Errorf("patched model: residual scheme %q: %w", res.Name(), err)
	}
	base, err := NewPlusForm(model, rf)
	if err != nil {
		return nil, err
	}
	if positions == nil {
		positions = []int64{}
		values = []int64{}
	}
	return NewPatchForm(base, positions, values)
}

// DecompressInto delegates to the registry (the form is a PATCH form).
func (PatchedModel) DecompressInto(f *core.Form, dst []int64, s *core.Scratch) error {
	return core.DecompressInto(f, dst, s)
}

var _ core.Scheme = PatchedModel{}

// EstimateSize implements core.SizeEstimator, bounded: the model
// shape prices like ModelResidual, and the patch width and exception
// count come from the delta histogram (the residuals a fitted model
// leaves are near the local variation, and its outliers become
// patches).
func (pm PatchedModel) EstimateSize(st *core.BlockStats) (uint64, core.Bound) {
	if !st.HasMinMax {
		return 0, core.Heuristic
	}
	segLen, modelBits, ok := modelShape(pm.Fitter, st.N)
	if !ok {
		return 0, core.Heuristic
	}
	excBits := pm.ExcBits
	if excBits == 0 {
		excBits = DefaultExceptionBits
	}
	maxOff, _, _, foldOK := st.SegFold(segLen)
	if !foldOK {
		maxOff = uint64(st.Max - st.Min)
	}
	w := bitpack.Width(maxOff)
	exc := 0
	if st.HasDeltas && st.N > 1 {
		wp, e := st.DeltaHist.BestPatchWidth(excBits)
		if wp < w {
			w, exc = wp, e
		}
	}
	res := pm.Residual
	if res == nil {
		res = NS{}
	}
	var resBits uint64
	if _, isNS := res.(NS); isNS {
		resBits = nsFormBits(st.N, w)
	} else {
		child := core.BlockStats{N: st.N, Max: widthMaxValue(w), HasMinMax: true}
		b, _, ok := core.EstimateOf(res, &child)
		if !ok {
			return 0, core.Heuristic
		}
		resBits = b
	}
	base := core.SatAddBits(core.FormOverheadBits(0)+modelBits, resBits)
	patch := core.FormOverheadBits(0) + leafBits(exc) + leafBits(exc)
	return core.SatAddBits(base, patch), core.Heuristic
}
