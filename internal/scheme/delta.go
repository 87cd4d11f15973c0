package scheme

import (
	"fmt"

	"lwcomp/internal/bitpack"
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
// same length as the input. A form of at least two segments of
// deltaSegLen rows whose values span less than 2^63 also carries a
// frame, so that a query can start the prefix sum at any segment and
// pass over a segment its range cannot land in: Params{"seglen"} and
// Children{"frame"}, an NS column of three values a segment — its
// first value, its minimum and its maximum — each an offset from the
// form's minimum (which is the first value less the first offset).
// Every frame value then lies in [0, max − min] and both ends are
// taken, so the frame's width follows from the form's extremes alone
// and its price is exact wherever they are known. A form without the
// two (a short one, and every form written before frames existed) is
// one segment of N rows whose extremes are not recorded.
type Delta struct{}

// deltaSegLen is the segment length of the frames Delta writes: a
// multiple of 64, so that segments start on the 64-row groups the
// query kernels work in. On the benchmark table 512 adds 0.21 % to
// the stored bytes (256: 0.43 %, 1,024: 0.13 %), and its point queries
// read no more CPU than at either.
const deltaSegLen = 512

// maxSegLen bounds the segment length a frame may declare.
const maxSegLen = 1 << 32

// deltaFramed reports whether Delta frames n values spanning
// [lo, hi]: two segments or more, and a span that fits an int64.
func deltaFramed(n int, lo, hi int64) bool { return n >= 2*deltaSegLen && hi-lo >= 0 }

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
	prev, lo, hi := first, first, first
	for i, v := range src {
		d[i] = v - prev
		prev = v
		lo, hi = min(lo, v), max(hi, v)
	}
	deltasForm, err := emit("deltas", d)
	if err != nil {
		return nil, err
	}
	f := &core.Form{
		Scheme:   DeltaName,
		N:        len(src),
		Params:   core.Params{"first": first},
		Children: map[string]*core.Form{"deltas": deltasForm},
	}
	if deltaFramed(len(src), lo, hi) {
		frame, err := deltaFrame(src, lo, s)
		if err != nil {
			return nil, err
		}
		f.Params["seglen"] = deltaSegLen
		f.Children["frame"] = frame
	}
	return f, nil
}

// deltaFrame builds the frame of src, whose minimum is lo: each
// segment's first value, minimum and maximum as offsets from lo,
// null-suppressed.
func deltaFrame(src []int64, lo int64, s *core.Scratch) (*core.Form, error) {
	col := s.I64(3 * segments(len(src), deltaSegLen))
	defer s.PutI64(col)
	for i := 0; i < len(col); i += 3 {
		seg := src[i/3*deltaSegLen : min(len(src), (i/3+1)*deltaSegLen)]
		smin, smax, _ := vec.MinMax(seg) // non-empty
		col[i], col[i+1], col[i+2] = seg[0]-lo, smin-lo, smax-lo
	}
	return NS{}.CompressParts(col, s, nil)
}

// DeltaFrame returns a delta form's segment length and the form of its
// frame column, or 0 and nil for a form without a frame. A form that
// passed its check has either both or neither.
func DeltaFrame(f *core.Form) (segLen int, frame *core.Form) {
	frame = f.Children["frame"]
	if frame == nil {
		return 0, nil
	}
	return int(f.Params["seglen"]), frame
}

// checkFrame re-derives the frame of the delta form f from its
// decoded values and reports one that does not match them: a frame
// whose anchors or extremes lie would turn the segments a query passes
// over into wrong answers no checksum sees. A form without a frame
// passes.
func checkFrame(f *core.Form, vals []int64, s *core.Scratch) error {
	segLen, frame := DeltaFrame(f)
	if frame == nil {
		return nil
	}
	if err := checkDelta(f); err != nil {
		return err
	}
	if len(vals) != f.N {
		return fmt.Errorf("%w: delta frame checked against %d values, form declares %d", core.ErrCorruptForm, len(vals), f.N)
	}
	col, err := core.ChildScratch(f, "frame", s)
	if err != nil {
		return err
	}
	defer s.PutI64(col)
	base := vals[0] - col[0]
	for i := 0; i < len(col); i += 3 {
		seg := vals[i/3*segLen : min(len(vals), (i/3+1)*segLen)]
		smin, smax, _ := vec.MinMax(seg)
		if a, lo, hi := base+col[i], base+col[i+1], base+col[i+2]; a != seg[0] || lo != smin || hi != smax {
			return fmt.Errorf("%w: delta frame segment %d records first %d in [%d, %d], data has %d in [%d, %d]",
				core.ErrCorruptForm, i/3, a, lo, hi, seg[0], smin, smax)
		}
	}
	return nil
}

// CheckFrames runs checkFrame on every framed delta node of the form
// tree f, whose decoded values are vals, or nil when they are not at
// hand: a framed node whose values are not is decoded for its check.
func CheckFrames(f *core.Form, vals []int64, s *core.Scratch) error {
	if _, frame := DeltaFrame(f); frame != nil && f.Scheme == DeltaName {
		if vals == nil {
			vals = s.I64(f.N)
			defer s.PutI64(vals)
			if err := core.DecompressInto(f, vals, s); err != nil {
				return err
			}
		}
		if err := checkFrame(f, vals, s); err != nil {
			return err
		}
	}
	for _, c := range f.Children {
		if c == nil {
			continue
		}
		if err := CheckFrames(c, nil, s); err != nil {
			return err
		}
	}
	return nil
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

// ConstituentStats implements core.ConstituentStatser, exactly: the
// deltas column's extremes are the collected delta statistics (whose
// first delta is the 0 DELTA stores), and its width histogram is the
// consecutive deltas' plus that 0. The first value costs one
// parameter; a frame, one more and its NS column, three values a
// segment at the width of the form's span.
func (Delta) ConstituentStats(st *core.BlockStats) (uint64, []core.PredictedChild, bool, bool) {
	if !st.HasDeltas || !st.HasMinMax {
		return 0, nil, false, false
	}
	self := core.FormOverheadBits(1)
	if deltaFramed(st.N, st.Min, st.Max) {
		self = core.FormOverheadBits(2) + nsFormBits(3*segments(st.N, deltaSegLen), bitpack.Width(uint64(st.Max-st.Min)))
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
	return self, []core.PredictedChild{{Name: "deltas", Stats: cs}}, true, true
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
	frame, framed := f.Children["frame"]
	segLen, hasSegLen := f.Params["seglen"]
	switch {
	case framed != hasSegLen:
		return fmt.Errorf("%w: delta form has a frame child or a seglen, not both", core.ErrCorruptForm)
	case !framed:
		return nil
	case frame == nil || f.N == 0:
		return fmt.Errorf("%w: delta frame without a column or without rows", core.ErrCorruptForm)
	case segLen < bitpack.BlockLen || segLen%bitpack.BlockLen != 0 || segLen > maxSegLen:
		return fmt.Errorf("%w: delta frame segment length %d", core.ErrCorruptForm, segLen)
	case frame.N != 3*segments(f.N, int(segLen)):
		return fmt.Errorf("%w: delta frame holds %d values for %d segments", core.ErrCorruptForm, frame.N, segments(f.N, int(segLen)))
	}
	return nil
}
