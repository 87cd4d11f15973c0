package scheme

import (
	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
)

// This file holds the shared helpers of the size-estimation hooks
// (core.SizeEstimator / core.ConstituentStatser). Each scheme's
// EstimateSize or ConstituentStats lives next to the scheme itself;
// the discipline they share is that every estimate targets the same
// analytic size model as core.Form.PayloadBits, so an exact-flagged
// estimate equals the bits the compressed form will actually report.

// Compile-time checks: the terminal codecs predict their own size,
// and the decomposable schemes — the model combinators among them —
// predict their constituents (giving every composite over them an
// estimate for free).
var (
	_ core.SizeEstimator = ID{}
	_ core.SizeEstimator = Const{}
	_ core.SizeEstimator = NS{}
	_ core.SizeEstimator = Varint{}
	_ core.SizeEstimator = Elias{}
	_ core.SizeEstimator = VNS{}

	_ core.ConstituentStatser = RLE{}
	_ core.ConstituentStatser = RPE{}
	_ core.ConstituentStatser = Delta{}
	_ core.ConstituentStatser = FOR{}
	_ core.ConstituentStatser = Dict{}
	_ core.ConstituentStatser = Plus{}
	_ core.ConstituentStatser = Patch{}

	// The four heuristic prices, each backed by a proven floor.
	_ core.SizeFloorer = VNS{}
	_ core.SizeFloorer = Dict{}
	_ core.SizeFloorer = Plus{}
	_ core.SizeFloorer = Patch{}
)

// nsFormBits is the exact analytic size of an NS form over n values
// packed at width w: node overhead (two params) plus whole payload
// words.
func nsFormBits(n int, w uint) uint64 {
	return core.FormOverheadBits(2) + uint64(bitpack.PackedWords(n, w))*64
}

// leafBits is the exact analytic size of an ID leaf over n values.
func leafBits(n int) uint64 {
	return core.FormOverheadBits(0) + uint64(n)*64
}

// nsWidthMinMax returns the width NS would pack a column with the
// given extremes at, delegating to the single source of truth for
// the zigzag-decision-plus-endpoint-width rule (BlockStats.NSShape).
func nsWidthMinMax(n int, minV, maxV int64) uint {
	st := core.BlockStats{N: n, Min: minV, Max: maxV, HasMinMax: true}
	w, _ := st.NSShape()
	return w
}
