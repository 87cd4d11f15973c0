package scheme

import (
	"fmt"
	"slices"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
)

// This file implements the encode-side pooling contracts
// (core.ScratchCompressor / core.ConstituentCompressor) for every
// scheme on the hot encode path, mirroring the *Into decode work:
// each compressor draws its temporaries — zigzag buffers, constituent
// columns, model predictions — from a core.Scratch arena, so a
// steady-state block encode allocates only what the resulting form
// retains (nodes and payloads). Decomposable schemes implement
// CompressParts, handing constituent columns to the composite as
// scratch-borrowed slices instead of round-tripping them through
// retained ID forms. Cold codecs (elias, poly2, patched models) keep
// only the allocating path.

// Compile-time checks that the hot schemes stay on the pooled path.
var (
	_ core.ScratchCompressor = NS{}
	_ core.ScratchCompressor = VNS{}
	_ core.ScratchCompressor = PFOR{}
	_ core.ScratchCompressor = ModelResidual{}

	_ core.ConstituentCompressor = FOR{}
	_ core.ConstituentCompressor = RLE{}
	_ core.ConstituentCompressor = RPE{}
	_ core.ConstituentCompressor = Delta{}
	_ core.ConstituentCompressor = Dict{}
)

// unsignedScratch fills a scratch-borrowed word buffer with src in
// NS's packing domain (zigzag when negatives are present), returning
// the buffer and the zigzag flag. The caller returns the buffer.
func unsignedScratch(src []int64, s *core.Scratch) ([]uint64, int64) {
	zig := int64(0)
	for _, v := range src {
		if v < 0 {
			zig = 1
			break
		}
	}
	u := s.U64(len(src))
	if zig == 1 {
		for i, v := range src {
			u[i] = bitpack.Zigzag(v)
		}
	} else {
		for i, v := range src {
			u[i] = uint64(v)
		}
	}
	return u, zig
}

// CompressScratch implements core.ScratchCompressor: the zigzag
// staging buffer is borrowed; only the packed payload is allocated.
func (NS) CompressScratch(src []int64, s *core.Scratch) (*core.Form, error) {
	u, zig := unsignedScratch(src, s)
	defer s.PutU64(u)
	w := bitpack.MaxWidth(u)
	packed, err := bitpack.Pack(u, w)
	if err != nil {
		return nil, fmt.Errorf("ns: %w", err)
	}
	return &core.Form{
		Scheme: NSName,
		N:      len(src),
		Params: core.Params{"width": int64(w), "zigzag": zig},
		Packed: packed,
	}, nil
}

// CompressScratch implements core.ScratchCompressor: widths are
// computed into a borrowed buffer and the payload is packed in one
// exactly-sized allocation instead of per-mini-block appends.
func (sch VNS) CompressScratch(src []int64, s *core.Scratch) (*core.Form, error) {
	block := sch.Block
	if block == 0 {
		block = DefaultVNSBlock
	}
	if block < 1 {
		return nil, fmt.Errorf("vns: invalid block length %d", block)
	}
	u, zig := unsignedScratch(src, s)
	defer s.PutU64(u)
	nblocks := (len(src) + block - 1) / block
	widths := s.I64(nblocks)
	defer s.PutI64(widths)
	totalWords := 0
	for bIdx := 0; bIdx < nblocks; bIdx++ {
		lo := bIdx * block
		hi := lo + block
		if hi > len(u) {
			hi = len(u)
		}
		w := bitpack.MaxWidth(u[lo:hi])
		widths[bIdx] = int64(w)
		totalWords += bitpack.PackedWords(hi-lo, w)
	}
	packed := make([]uint64, totalWords)
	wordPos := 0
	for bIdx := 0; bIdx < nblocks; bIdx++ {
		lo := bIdx * block
		hi := lo + block
		if hi > len(u) {
			hi = len(u)
		}
		need := bitpack.PackedWords(hi-lo, uint(widths[bIdx]))
		if err := bitpack.PackInto(packed[wordPos:wordPos+need], u[lo:hi], uint(widths[bIdx])); err != nil {
			return nil, fmt.Errorf("vns: block %d: %w", bIdx, err)
		}
		wordPos += need
	}
	return &core.Form{
		Scheme:   VNSName,
		N:        len(src),
		Params:   core.Params{"block": int64(block), "zigzag": zig},
		Children: map[string]*core.Form{"widths": NewIDForm(widths)},
		Packed:   packed,
	}, nil
}

// CompressParts implements core.ConstituentCompressor: references and
// offsets are produced in borrowed buffers and handed straight to the
// composite's inner compressors.
func (sch FOR) CompressParts(src []int64, s *core.Scratch, emit func(name string, col []int64) (*core.Form, error)) (*core.Form, error) {
	segLen := sch.SegLen
	if segLen == 0 {
		segLen = DefaultSegmentLength
	}
	if segLen < 1 {
		return nil, fmt.Errorf("for: invalid segment length %d", segLen)
	}
	nseg := (len(src) + segLen - 1) / segLen
	refs := s.I64(nseg)
	defer s.PutI64(refs)
	offsets := s.I64(len(src))
	defer s.PutI64(offsets)
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

// CompressParts implements core.ConstituentCompressor: deltas go into
// a borrowed buffer.
func (Delta) CompressParts(src []int64, s *core.Scratch, emit func(name string, col []int64) (*core.Form, error)) (*core.Form, error) {
	d := s.I64(len(src))
	defer s.PutI64(d)
	prev := int64(0)
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
		Children: map[string]*core.Form{"deltas": deltasForm},
	}, nil
}

// dictHash spreads a value over the top bits of a word (Fibonacci
// hashing); a table of 2^k slots indexes by its top k bits.
func dictHash(v int64, shift uint) uint64 {
	return (uint64(v) * 0x9E3779B97F4A7C15) >> shift
}

// dictTable borrows an open-addressing table of 2^(64-shift) slots
// holding every value of seen under its index plus one; zero marks an
// empty slot, so the borrowed keys need no clearing and the value 0
// is a key like any other.
func dictTable(seen []int64, shift uint, s *core.Scratch) (keys, nums []int64) {
	keys, nums = s.I64(1<<(64-shift)), s.I64(1<<(64-shift))
	clear(nums)
	for num, v := range seen {
		h := dictHash(v, shift)
		for nums[h] != 0 {
			h = (h + 1) & uint64(len(nums)-1)
		}
		keys[h], nums[h] = v, int64(num)+1
	}
	return keys, nums
}

// CompressParts implements core.ConstituentCompressor: one pass over
// the column finds the distinct values through a borrowed
// open-addressing table, numbering them in order of first appearance,
// so only the dictionary — never the column — is sorted, and the
// codes are those numbers mapped through the sort's permutation. The
// table is regrown fourfold whenever the distinct values outgrow a
// quarter of its slots, which keeps probe chains short at any
// cardinality without a count in advance.
func (Dict) CompressParts(src []int64, s *core.Scratch, emit func(name string, col []int64) (*core.Form, error)) (*core.Form, error) {
	codes := s.I64(len(src))
	defer s.PutI64(codes)
	seen := s.I64(len(src))[:0] // distinct values, in order of first appearance
	defer s.PutI64(seen)
	shift := uint(64 - 10)
	keys, nums := dictTable(nil, shift, s)
	for i, v := range src {
		h := dictHash(v, shift)
		for nums[h] != 0 && keys[h] != v {
			h = (h + 1) & uint64(len(nums)-1)
		}
		if nums[h] != 0 {
			codes[i] = nums[h] - 1
			continue
		}
		codes[i] = int64(len(seen))
		seen = append(seen, v)
		keys[h], nums[h] = v, int64(len(seen))
		if 4*len(seen) > len(nums) {
			s.PutI64(keys)
			s.PutI64(nums)
			shift -= 2
			keys, nums = dictTable(seen, shift, s)
		}
	}
	dict := s.I64(len(seen))
	defer s.PutI64(dict)
	copy(dict, seen)
	slices.Sort(dict)
	// seen has served as the value list: reuse it as the permutation
	// from first-appearance number to sorted code.
	for code, v := range dict {
		h := dictHash(v, shift)
		for nums[h] == 0 || keys[h] != v {
			h = (h + 1) & uint64(len(nums)-1)
		}
		seen[nums[h]-1] = int64(code)
	}
	s.PutI64(keys)
	s.PutI64(nums)
	for i, num := range codes {
		codes[i] = seen[num]
	}
	codesForm, err := emit("codes", codes)
	if err != nil {
		return nil, err
	}
	dictForm, err := emit("dict", dict)
	if err != nil {
		return nil, err
	}
	return &core.Form{
		Scheme: DictName,
		N:      len(src),
		Children: map[string]*core.Form{
			"codes": codesForm,
			"dict":  dictForm,
		},
	}, nil
}

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

// ScratchFitter is the pooled variant of ModelFitter: predictions
// land in a scratch-borrowed buffer the caller must return with
// PutI64.
type ScratchFitter interface {
	ModelFitter
	// FitScratch returns the model form and its predictions, the
	// latter borrowed from s.
	FitScratch(src []int64, s *core.Scratch) (*core.Form, []int64, error)
}

// FitScratch implements ScratchFitter: segment references are staged
// in a borrowed buffer (the step form copies them).
func (sf StepFitter) FitScratch(src []int64, s *core.Scratch) (*core.Form, []int64, error) {
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

// FitScratch implements ScratchFitter, mirroring Fit with borrowed
// coefficient staging.
func (lf LinearFitter) FitScratch(src []int64, s *core.Scratch) (*core.Form, []int64, error) {
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

// CompressScratch implements core.ScratchCompressor: model
// predictions and residuals are borrowed, and the residual scheme
// compresses through the pooled path.
func (mr ModelResidual) CompressScratch(src []int64, s *core.Scratch) (*core.Form, error) {
	fitter, ok := mr.Fitter.(ScratchFitter)
	if !ok {
		return mr.Compress(src)
	}
	model, pred, err := fitter.FitScratch(src, s)
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
