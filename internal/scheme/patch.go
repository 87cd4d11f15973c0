package scheme

import (
	"cmp"
	"fmt"
	"math"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
	"lwcomp/internal/exec"
	"lwcomp/internal/vec"
)

// PatchName is the registry name of the patch combinator.
const PatchName = "patch"

// Patch is the paper's L0-metric extension (§II-B): the column is a
// base representation that is correct everywhere except at a sparse
// set of positions, plus "patches" — (position, value) pairs — for
// "the occasional divergent arbitrary-value element". Under the L0
// metric d(x,y) = |{i : xi ≠ yi}|, Patch captures all columns within
// distance |positions| of the base scheme's domain.
//
// Choosing which elements become exceptions takes a model: Patch fits
// its Model, makes exceptions of the elements whose residual is wider
// than one width policy allows (patchWidth), and hands out the patched
// column as "base" — so PFOR is Compose(Patch{Step}, base=for(…)),
// literally Patch ∘ FOR. Decompression is generic; the registered
// Patch{} decodes any PATCH form but, having no model, compresses
// nothing.
//
// Form layout: Children{"base"} (any form of length N),
// Children{"positions", "values"} (equal-length exception lists;
// positions strictly increasing in [0, N)).
type Patch struct {
	// Model is fitted to the column to measure each element's
	// residual.
	Model Model
	// ExcBits is the assumed per-exception cost in bits for width
	// selection; zero means DefaultExceptionBits.
	ExcBits uint
	// MaxExceptionRate, when positive, bounds the exception fraction;
	// if the chosen width would exceed it, the width grows until the
	// rate is within bounds.
	MaxExceptionRate float64
}

// DefaultExceptionBits is the assumed per-exception storage cost used
// by the patch width policy: a position plus a 64-bit value.
const DefaultExceptionBits = 96

// Name implements core.Scheme.
func (p Patch) Name() string { return withModel(PatchName, p.Model) }

// Compress splits the exceptions off and retains the patched column as
// an ID leaf.
func (p Patch) Compress(src []int64) (*core.Form, error) { return core.CompressPooled(p, src) }

// patchWidth is the one exception policy, over a histogram of residual
// widths: the width minimizing packed bits plus ExcBits per exception
// (the classical PFOR choice), widened until at most MaxExceptionRate
// of the values are exceptions. It returns the width and how many
// values exceed it.
func (p Patch) patchWidth(h bitpack.WidthHistogram) (uint, int) {
	w, _ := h.BestPatchWidth(cmp.Or(p.ExcBits, DefaultExceptionBits))
	if p.MaxExceptionRate > 0 && h.N > 0 {
		for w < 64 && float64(h.ExceptionsAt(w))/float64(h.N) > p.MaxExceptionRate {
			w++
		}
	}
	return w, h.ExceptionsAt(w)
}

// CompressParts implements core.ConstituentCompressor. The model is
// fitted and every element whose residual is wider than patchWidth
// becomes an exception; the exception lists and the patched column go
// to emit, all from borrowed buffers. The base compressor refits the
// model to the patched column, which is what a sloped model's fit
// needs: least squares is pulled toward the very outliers patching
// removes, so each exception's slot holds the nearest preceding inlier
// (its successor at row 0) and the refit sees none of their mass, and
// round-one residuals are measured zigzagged — signed, as a line the
// outliers skewed leaves them. The step model's minimum is never an
// exception, so its fit is already the refit: the slot takes the
// prediction (offset zero) and residuals are measured raw.
func (p Patch) CompressParts(src []int64, s *core.Scratch, emit func(name string, col []int64) (*core.Form, error)) (*core.Form, error) {
	_, pred, err := fitModel(PatchName, p.Model, src, s)
	if err != nil {
		return nil, err
	}
	step := isStep(p.Model)
	resid := s.U64(len(src))
	var hist bitpack.WidthHistogram
	for i, v := range src {
		r := v - pred[i]
		resid[i] = uint64(r)
		if !step {
			resid[i] = bitpack.Zigzag(r)
		}
		hist.Observe(resid[i])
	}
	w, exc := p.patchWidth(hist)
	base, positions, values := s.I64(len(src)), s.I64(exc), s.I64(exc)
	defer s.PutI64(base)
	defer s.PutI64(positions)
	defer s.PutI64(values)
	copy(base, src)
	k := 0
	for i, r := range resid {
		if bitpack.Width(r) <= w {
			continue
		}
		positions[k], values[k] = int64(i), src[i]
		k++
		switch {
		case step:
			base[i] = pred[i]
		case i > 0:
			base[i] = base[i-1]
		case len(src) > 1:
			base[i] = src[1]
		}
	}
	// Returned before the base is compressed, which reuses them.
	s.PutI64(pred)
	s.PutU64(resid)
	baseForm, err := emit("base", base)
	if err != nil {
		return nil, err
	}
	positionsForm, err := emit("positions", positions)
	if err != nil {
		return nil, err
	}
	valuesForm, err := emit("values", values)
	if err != nil {
		return nil, err
	}
	return &core.Form{
		Scheme: PatchName,
		N:      len(src),
		Children: map[string]*core.Form{
			"base":      baseForm,
			"positions": positionsForm,
			"values":    valuesForm,
		},
	}, nil
}

// ConstituentStats implements core.ConstituentStatser, heuristically.
// The exception count follows patchWidth over the one-pass histogram
// that stands in for the residuals: for the step model the
// probe-offset histogram (offsets from each probe segment's running
// minimum, close to the minimum-referenced offsets the compressor
// sees), capped at the exact full offset width from the per-segment
// fold; for a sloped one the delta histogram (its residuals are near
// the local variation, and its outliers become patches). The patched
// base is priced here rather than by its inner scheme, because its
// per-segment extremes do not follow from the block stats: as the
// shape the model's refit leaves, its residual packed at the patch
// width — for[ℓ](refs=ns, offsets=ns) for the step model,
// plus(model, residual=ns) for a sloped one.
func (p Patch) ConstituentStats(st *core.BlockStats) (uint64, []core.PredictedChild, bool, bool) {
	if p.Model == nil || !st.HasMinMax {
		return 0, nil, false, false
	}
	segLen, modelBits, err := p.Model.shape(st.N)
	if err != nil {
		return 0, nil, false, false
	}
	maxOff, refMin, refMax, foldOK := st.SegFold(segLen)
	if !foldOK {
		maxOff = uint64(st.Max - st.Min)
		refMin, refMax = st.Min, st.Max
	}
	step := isStep(p.Model)
	w, exc := bitpack.Width(maxOff), 0
	hist, usable := st.DeltaHist, st.HasDeltas && st.N > 1
	if step {
		hist, usable = st.OffsetHist, st.OffsetSegLen == segLen && st.OffsetHist.N == st.N && st.N > 0
	}
	if usable {
		if wp, e := p.patchWidth(hist); wp < w {
			w, exc = wp, e
		}
	}
	base := core.FormOverheadBits(0) + modelBits
	if step {
		nseg := segments(st.N, segLen)
		base = core.FormOverheadBits(1) + nsFormBits(nseg, nsWidthMinMax(nseg, refMin, refMax))
	}
	exceptions := core.BlockStats{N: exc}
	return core.FormOverheadBits(0) + base + nsFormBits(st.N, w), []core.PredictedChild{
		{Name: "positions", Stats: exceptions},
		{Name: "values", Stats: exceptions},
	}, false, true
}

// SizeFloor implements core.SizeFloorer for the step model patching a
// base of FOR at the model's segment length, with the exception lists
// left uncomposed — PFORComposite's shape.
//
// The step fit's residuals are FOR's minimum-referenced offsets, and a
// segment's minimum (offset 0) is never an exception, so the patched
// base keeps every segment minimum: its refs are exactly the ones
// SegFold gives. Let the patch width be w and w* ≤ w the widest offset
// that is not an exception. The base's offsets are those offsets plus
// zeros, so they pack at w*; and since no offset is wider than w* but
// not wider than w, the exceptions are exactly the E(w*) offsets wider
// than w*. The size is therefore
//
//	patch + for + refs + offsets at w* + 2·ID(E(w*))
//
// which is at least the minimum of that expression over every w. Each
// OffsetHist offset is taken from a running segment minimum no lower
// than the true one, so it is never wider than the true offset and the
// histogram's exception counts never exceed E. The refs and offsets
// are priced through the base's inner schemes with PartFloor.
func (p Patch) SizeFloor(st *core.BlockStats, inner map[string]core.Scheme) uint64 {
	step, ok := p.Model.(Step)
	if !ok || !st.HasMinMax || st.N == 0 || len(inner) != 1 {
		return 0
	}
	base, ok := inner["base"].(*core.Composite)
	if !ok {
		return 0
	}
	segLen, err := segLenOf(StepName, step.SegLen)
	if err != nil || st.OffsetSegLen != segLen || st.OffsetHist.N != st.N {
		return 0
	}
	outer, parts := base.Parts()
	if f, ok := outer.(FOR); !ok || cmp.Or(f.SegLen, DefaultSegmentLength) != segLen {
		return 0
	}
	maxOff, refMin, refMax, ok := st.SegFold(segLen)
	if !ok || maxOff > math.MaxInt64 {
		return 0
	}
	refs := core.BlockStats{N: segments(st.N, segLen), HasMinMax: true, Min: refMin, Max: refMax}
	rb, ok := core.PartFloor("refs", &refs, parts)
	if !ok {
		return 0
	}
	fixed := core.FormOverheadBits(0) + core.FormOverheadBits(1) + rb
	offsets := core.BlockStats{N: st.N, HasMinMax: true}
	h := &st.OffsetHist
	floor := uint64(core.ImpossibleBits)
	w := bitpack.Width(maxOff)
	for exc := h.ExceptionsAt(w); ; w-- {
		offsets.Max = int64(bitpack.Mask(w))
		ob, ok := core.PartFloor("offsets", &offsets, parts)
		if !ok {
			return 0
		}
		floor = min(floor, fixed+ob+2*leafBits(exc))
		if w == 0 {
			return floor
		}
		exc += h.Counts[w]
	}
}

// DecompressInto decodes the base into dst and scatters the exception
// values over it.
func (Patch) DecompressInto(f *core.Form, dst []int64, s *core.Scratch) error {
	if err := checkPatch(f); err != nil {
		return err
	}
	if err := core.DecompressChildInto(f, "base", dst, s); err != nil {
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
	if _, err := vec.ScatterInto(dst, values, positions); err != nil {
		return fmt.Errorf("patch: %w", err)
	}
	return nil
}

// Plan implements core.Planner. Scatter in the plan vocabulary
// produces a fresh zero column, so patching is expressed as
//
//	base + Scatter(values − Gather(base, positions), positions, n)
//
// — the patch deltas scattered over zeros and added back, using only
// the paper's primitive operators.
func (Patch) Plan(f *core.Form) (*exec.Plan, error) {
	if err := checkPatch(f); err != nil {
		return nil, err
	}
	b := exec.NewBuilder()
	base := b.Input("base")
	positions := b.Input("positions")
	values := b.Input("values")
	n := b.Len(base)
	atPos := b.Gather(base, positions)
	deltas := b.Elementwise(vec.Sub, values, atPos)
	sparse := b.Scatter(deltas, positions, n)
	b.Elementwise(vec.Add, base, sparse)
	return b.Build()
}

// ValidateForm implements core.Validator.
func (Patch) ValidateForm(f *core.Form) error { return checkPatch(f) }

func checkPatch(f *core.Form) error {
	if f.Scheme != PatchName {
		return fmt.Errorf("%w: patch scheme given form %q", core.ErrCorruptForm, f.Scheme)
	}
	base, err := f.Child("base")
	if err != nil {
		return err
	}
	if base.N != f.N {
		return fmt.Errorf("%w: patch base declares %d values, form declares %d",
			core.ErrCorruptForm, base.N, f.N)
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
		return fmt.Errorf("%w: patch positions (%d) and values (%d) differ in length",
			core.ErrCorruptForm, p.N, v.N)
	}
	// Every consumer — the scatter of decode, the exception fix-ups of
	// the pushed-down verbs, PointLookup's binary search — relies on
	// the positions being a strictly increasing list inside the base,
	// so it is checked where they all check: O(exceptions), in place
	// for the ID child every encoder emits.
	positions := p.Leaf
	if p.Scheme != IDName {
		if positions, err = core.Decompress(p); err != nil {
			return err
		}
	}
	if len(positions) != p.N {
		return fmt.Errorf("%w: patch positions child declares %d values, holds %d",
			core.ErrCorruptForm, p.N, len(positions))
	}
	return checkPatchPositions(positions, f.N)
}

// checkPatchPositions reports positions that are not strictly
// increasing inside [0, n).
func checkPatchPositions(positions []int64, n int) error {
	prev := int64(-1)
	for i, p := range positions {
		if p < 0 || p >= int64(n) {
			return fmt.Errorf("%w: patch position %d out of range [0,%d)", core.ErrCorruptForm, p, n)
		}
		if p <= prev {
			return fmt.Errorf("%w: patch positions not strictly increasing at index %d", core.ErrCorruptForm, i)
		}
		prev = p
	}
	return nil
}
