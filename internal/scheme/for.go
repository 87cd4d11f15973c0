package scheme

import (
	"fmt"

	"lwcomp/internal/core"
	"lwcomp/internal/exec"
	"lwcomp/internal/vec"
)

// FORName is the registry name of the frame-of-reference scheme.
const FORName = "for"

// DefaultSegmentLength is used by compressors when the caller does not
// choose a segment length.
const DefaultSegmentLength = 1024

// FOR is frame-of-reference compression (§II-B): the column is cut
// into fixed-length segments; each segment stores a reference value,
// and elements store offsets from their segment's reference.
//
// This implementation takes each segment's minimum as the reference,
// so offsets are non-negative (the paper notes the reference "need
// not necessarily be the case that the first column element in the
// segment" — any value works; the minimum gives the narrowest
// non-negative offsets).
//
// Form layout: Params{"seglen"}; Children{"refs"} of length ⌈N/ℓ⌉ and
// Children{"offsets"} of length N, where elements i·ℓ … (i+1)·ℓ−1 are
// the offsets for segment i — exactly the paper's columnar view.
type FOR struct {
	// SegLen is the segment length ℓ used when compressing; zero
	// means DefaultSegmentLength.
	SegLen int
}

// Name implements core.Scheme.
func (FOR) Name() string { return FORName }

// Compress encodes src against per-segment minimum references.
func (sch FOR) Compress(src []int64) (*core.Form, error) { return core.CompressPooled(sch, src) }

// segLenOf resolves a segment-length knob — zero means
// DefaultSegmentLength — and refuses one below 1: the one check every
// segmented scheme makes where it reads its parameters, before anything
// is sized from them. The resolved value is returned even on error, for
// naming.
func segLenOf(scheme string, segLen int) (int, error) {
	if segLen == 0 {
		segLen = DefaultSegmentLength
	}
	if segLen < 1 {
		return segLen, fmt.Errorf("%s: invalid segment length %d", scheme, segLen)
	}
	return segLen, nil
}

// segments returns the number of segLen-long segments covering n
// values.
func segments(n, segLen int) int { return (n + segLen - 1) / segLen }

// segmentMin returns the minimum of a non-empty segment: FOR's
// reference, and STEP's L∞ fit (the constant every residual from which
// is non-negative and narrowest).
func segmentMin(seg []int64) int64 {
	ref := seg[0]
	for _, v := range seg[1:] {
		if v < ref {
			ref = v
		}
	}
	return ref
}

// CompressParts implements core.ConstituentCompressor: references and
// offsets are produced in borrowed buffers and handed straight to the
// composite's inner compressors.
func (sch FOR) CompressParts(src []int64, s *core.Scratch, emit func(name string, col []int64) (*core.Form, error)) (*core.Form, error) {
	segLen, err := segLenOf(FORName, sch.SegLen)
	if err != nil {
		return nil, err
	}
	refs := s.I64(segments(len(src), segLen))
	defer s.PutI64(refs)
	offsets := s.I64(len(src))
	defer s.PutI64(offsets)
	for seg := range refs {
		lo := seg * segLen
		hi := min(lo+segLen, len(src))
		ref := segmentMin(src[lo:hi])
		refs[seg] = ref
		for i := lo; i < hi; i++ {
			offsets[i] = src[i] - ref
		}
	}
	refsForm, err := emit("refs", refs)
	if err != nil {
		return nil, err
	}
	offsetsForm, err := emit("offsets", offsets)
	if err != nil {
		return nil, err
	}
	return &core.Form{
		Scheme: FORName,
		N:      len(src),
		Params: core.Params{"seglen": int64(segLen)},
		Children: map[string]*core.Form{
			"refs":    refsForm,
			"offsets": offsetsForm,
		},
	}, nil
}

// DecompressInto decodes the offsets straight into dst, then adds
// each segment's reference back in place.
func (FOR) DecompressInto(f *core.Form, dst []int64, s *core.Scratch) error {
	if err := checkFOR(f); err != nil {
		return err
	}
	refs, err := core.ChildScratch(f, "refs", s)
	if err != nil {
		return err
	}
	defer s.PutI64(refs)
	if err := core.DecompressChildInto(f, "offsets", dst, s); err != nil {
		return err
	}
	addSegmentRefs(dst, refs, int(f.Params["seglen"]))
	return nil
}

// addSegmentRefs adds refs[i/segLen] to every element of dst.
func addSegmentRefs(dst, refs []int64, segLen int) {
	for seg := 0; seg*segLen < len(dst); seg++ {
		lo := seg * segLen
		hi := lo + segLen
		if hi > len(dst) {
			hi = len(dst)
		}
		ref := refs[seg]
		for i := lo; i < hi; i++ {
			dst[i] += ref
		}
	}
}

// Plan implements core.Planner with the paper's Algorithm 2:
//
//	1: ones        ← Constant(1, |offsets|)
//	2: id          ← PrefixSum(ones)        (exclusive, so that ids
//	                                         run 0…n−1 and the division
//	                                         lands on segment indices)
//	3: ells        ← Constant(ℓ, |offsets|)
//	4: ref_indices ← Elementwise(÷, id, ells)
//	5: replicated  ← Gather(refs, ref_indices)
//	6: return Elementwise(+, replicated, offsets)
func (FOR) Plan(f *core.Form) (*exec.Plan, error) {
	if err := checkFOR(f); err != nil {
		return nil, err
	}
	b := exec.NewBuilder()
	offsets := b.Input("offsets")
	refs := b.Input("refs")
	one := b.ConstScalar(1)
	n := b.Len(offsets)
	ones := b.ConstantCol(one, n)                  // 1
	id := b.PrefixSumExc(ones)                     // 2
	ell := b.ConstScalar(f.Params["seglen"])       //
	ells := b.ConstantCol(ell, n)                  // 3
	refIndices := b.Elementwise(vec.Div, id, ells) // 4
	replicated := b.Gather(refs, refIndices)       // 5
	b.Elementwise(vec.Add, replicated, offsets)    // 6
	return b.Build()
}

// ValidateForm implements core.Validator.
func (FOR) ValidateForm(f *core.Form) error { return checkFOR(f) }

// ConstituentStats implements core.ConstituentStatser: exact when the
// stats carry base per-segment extremes and the segment length is a
// multiple of the base granularity (references are the per-segment
// minima; the widest offset is the widest per-segment range);
// bounded by the whole-column range otherwise.
func (s FOR) ConstituentStats(st *core.BlockStats) (uint64, []core.PredictedChild, bool, bool) {
	if !st.HasMinMax {
		return 0, nil, false, false
	}
	segLen, err := segLenOf(FORName, s.SegLen)
	if err != nil {
		return 0, nil, false, false
	}
	maxOff, refMin, refMax, exact := st.SegFold(segLen)
	if !exact {
		maxOff = uint64(st.Max - st.Min)
		refMin, refMax = st.Min, st.Max
	}
	if maxOff > 1<<63-1 {
		maxOff = 1<<63 - 1
		exact = false
	}
	var refs, offs core.BlockStats
	refs.N = segments(st.N, segLen)
	refs.HasMinMax = true
	offs.N = st.N
	offs.HasMinMax = true
	if st.N > 0 {
		refs.Min, refs.Max = refMin, refMax
		offs.Max = int64(maxOff)
	}
	return core.FormOverheadBits(1), []core.PredictedChild{
		{Name: "refs", Stats: refs},
		{Name: "offsets", Stats: offs},
	}, exact, true
}

func checkFOR(f *core.Form) error {
	if f.Scheme != FORName {
		return fmt.Errorf("%w: for scheme given form %q", core.ErrCorruptForm, f.Scheme)
	}
	segLen, err := f.Params.Get(FORName, "seglen")
	if err != nil {
		return err
	}
	if segLen < 1 {
		return fmt.Errorf("%w: for segment length %d", core.ErrCorruptForm, segLen)
	}
	refs, err := f.Child("refs")
	if err != nil {
		return err
	}
	offsets, err := f.Child("offsets")
	if err != nil {
		return err
	}
	nseg := (f.N + int(segLen) - 1) / int(segLen)
	if refs.N != nseg {
		return fmt.Errorf("%w: for refs child declares %d segments, need %d",
			core.ErrCorruptForm, refs.N, nseg)
	}
	if offsets.N != f.N {
		return fmt.Errorf("%w: for offsets child declares %d values, form declares %d",
			core.ErrCorruptForm, offsets.N, f.N)
	}
	return nil
}
