package scheme

import (
	"cmp"
	"fmt"
	"slices"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
)

// VNSName is the registry name of the variable-width NS scheme.
const VNSName = "vns"

// DefaultVNSBlock is the default mini-block length of VNS.
const DefaultVNSBlock = 128

// VNS is variable-width null suppression: the column is cut into
// mini-blocks, each packed at its own minimal width. It approximates
// the paper's bit metric (§II-B: "a variable-width encoding for the
// offsets") at block rather than element granularity, trading a
// little ratio for word-aligned decoding. The per-block width column
// is itself a constituent column, so it can be compressed further by
// composition — the paper's parenthetical "(ignoring the encoding of
// offset widths for simplicity)" made concrete.
//
// Form layout: Params{"block", "zigzag"}; Children{"widths"} with one
// entry per mini-block; Packed holds the concatenated per-block
// payloads (block b occupies PackedWords(blockLen_b, widths[b])
// words).
type VNS struct {
	// Block is the mini-block length; zero means DefaultVNSBlock.
	Block int
}

// Name implements core.Scheme.
func (VNS) Name() string { return VNSName }

// Compress packs each mini-block at its own width.
func (sch VNS) Compress(src []int64) (*core.Form, error) { return core.CompressPooled(sch, src) }

// unsignedScratch fills a scratch-borrowed word buffer with src in
// null suppression's packing domain (zigzag when negatives are
// present), returning the buffer and the zigzag flag. The caller
// returns the buffer.
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

// CompressParts implements core.ConstituentCompressor: widths are
// computed into a borrowed buffer and handed to emit, and the payload
// is packed in one exactly-sized allocation instead of per-mini-block
// appends.
func (sch VNS) CompressParts(src []int64, s *core.Scratch, emit func(name string, col []int64) (*core.Form, error)) (*core.Form, error) {
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
	widthsForm, err := emit("widths", widths)
	if err != nil {
		return nil, err
	}
	return &core.Form{
		Scheme:   VNSName,
		N:        len(src),
		Params:   core.Params{"block": int64(block), "zigzag": zig},
		Children: map[string]*core.Form{"widths": widthsForm},
		Packed:   packed,
	}, nil
}

// DecompressInto unpacks each mini-block at its recorded width.
func (VNS) DecompressInto(f *core.Form, dst []int64, s *core.Scratch) error {
	if err := checkVNS(f); err != nil {
		return err
	}
	block := int(f.Params["block"])
	widths, err := core.ChildScratch(f, "widths", s)
	if err != nil {
		return err
	}
	defer s.PutI64(widths)
	u := s.U64(f.N)
	defer s.PutU64(u)
	wordPos := 0
	for bIdx := 0; bIdx*block < f.N; bIdx++ {
		lo := bIdx * block
		hi := lo + block
		if hi > f.N {
			hi = f.N
		}
		if bIdx >= len(widths) {
			return fmt.Errorf("%w: vns widths child exhausted at block %d", core.ErrCorruptForm, bIdx)
		}
		w := widths[bIdx]
		if w < 0 || w > 64 {
			return fmt.Errorf("%w: vns block %d declares width %d", core.ErrCorruptForm, bIdx, w)
		}
		need := bitpack.PackedWords(hi-lo, uint(w))
		if wordPos+need > len(f.Packed) {
			return fmt.Errorf("%w: vns payload exhausted at block %d", core.ErrCorruptForm, bIdx)
		}
		if err := bitpack.UnpackInto(u[lo:hi], f.Packed[wordPos:wordPos+need], uint(w)); err != nil {
			return fmt.Errorf("vns: block %d: %w", bIdx, err)
		}
		wordPos += need
	}
	if f.Params["zigzag"] == 1 {
		bitpack.UnzigzagInto(dst, u)
	} else {
		bitpack.SignedInto(dst, u)
	}
	return nil
}

// ValidateForm implements core.Validator.
func (VNS) ValidateForm(f *core.Form) error { return checkVNS(f) }

// EstimateSize implements core.SizeEstimator, bounded: the expected
// per-mini-block width is approximated by a high quantile of the
// value-width histogram (the maximum of `block` draws concentrates
// near the (1−1/block)-quantile), capped at the exact full width.
func (s VNS) EstimateSize(st *core.BlockStats) (uint64, core.Bound) {
	if !st.HasMinMax {
		return 0, core.Heuristic
	}
	block := s.Block
	if block == 0 {
		block = DefaultVNSBlock
	}
	if block < 1 {
		return 0, core.Heuristic
	}
	wMax, zig := st.NSShape()
	w := wMax
	if st.HasValueHist && st.N > 0 {
		w = st.ValueHist.WidthCovering(1 - 1/float64(2*block))
		if !zig && w > 0 {
			w-- // histogram is in the zigzag domain; raw widths sit one below
		}
		if w > wMax {
			w = wMax
		}
	}
	nblocks := (st.N + block - 1) / block
	words := uint64(st.N/block) * uint64(bitpack.PackedWords(block, w))
	if rem := st.N % block; rem > 0 {
		words += uint64(bitpack.PackedWords(rem, w))
	}
	return core.FormOverheadBits(2) + leafBits(nblocks) + words*64, core.Heuristic
}

// SizeFloor implements core.SizeFloorer, exactly, when the mini-block
// length is a multiple of the stats' base segment length (the default
// 128 is StatsSegLen). VNS zigzags iff some value is negative, i.e.
// iff st.Min < 0. A mini-block then covers whole base segments, so its
// extremes fold from SegMin/SegMax, and its width is the width of its
// widest packed value: the larger zigzag of its two extremes (zigzag
// falls toward zero and rises away from it, so its maximum over an
// interval sits at an end), or its raw maximum when nothing is
// negative. That gives every payload word, and the widths column's
// exact extremes price it through PartFloor. The sum is the size.
func (s VNS) SizeFloor(st *core.BlockStats, inner map[string]core.Scheme) uint64 {
	block := cmp.Or(s.Block, DefaultVNSBlock)
	if block < 1 || !st.HasMinMax || st.N == 0 || st.SegLen <= 0 || block%st.SegLen != 0 ||
		len(st.SegMin) != segments(st.N, st.SegLen) {
		return 0
	}
	zig := st.Min < 0
	group := block / st.SegLen
	widths := core.BlockStats{N: segments(st.N, block), HasMinMax: true, Min: 64}
	var words uint64
	for lo := 0; lo < len(st.SegMin); lo += group {
		hi := min(lo+group, len(st.SegMin))
		mn, mx := slices.Min(st.SegMin[lo:hi]), slices.Max(st.SegMax[lo:hi])
		w := bitpack.Width(uint64(mx))
		if zig {
			w = max(bitpack.Width(bitpack.Zigzag(mn)), bitpack.Width(bitpack.Zigzag(mx)))
		}
		words += uint64(bitpack.PackedWords(min(block, st.N-lo*st.SegLen), w))
		widths.Min, widths.Max = min(widths.Min, int64(w)), max(widths.Max, int64(w))
	}
	wb, ok := core.PartFloor("widths", &widths, inner)
	if !ok {
		return 0
	}
	return core.FormOverheadBits(2) + words*64 + wb
}

func checkVNS(f *core.Form) error {
	if f.Scheme != VNSName {
		return fmt.Errorf("%w: vns scheme given form %q", core.ErrCorruptForm, f.Scheme)
	}
	block, err := f.Params.Get(VNSName, "block")
	if err != nil {
		return err
	}
	if block < 1 {
		return fmt.Errorf("%w: vns block length %d", core.ErrCorruptForm, block)
	}
	zz, err := f.Params.Get(VNSName, "zigzag")
	if err != nil {
		return err
	}
	if zz != 0 && zz != 1 {
		return fmt.Errorf("%w: vns zigzag flag %d", core.ErrCorruptForm, zz)
	}
	widths, err := f.Child("widths")
	if err != nil {
		return err
	}
	nblocks := (f.N + int(block) - 1) / int(block)
	if widths.N != nblocks {
		return fmt.Errorf("%w: vns widths child declares %d blocks, need %d",
			core.ErrCorruptForm, widths.N, nblocks)
	}
	return nil
}
