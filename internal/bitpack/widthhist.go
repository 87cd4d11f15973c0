package bitpack

// WidthHistogram counts, for each bit width 0..64, how many values of
// src require exactly that width. It drives the patch-threshold
// selection of the Patch combinator (the paper's L0 extension: choose
// a narrow model width and treat the tail of the histogram as
// exceptions) and the analyzer's cost model.
type WidthHistogram struct {
	// Counts[w] is the number of values of exact width w.
	Counts [65]int
	// N is the total number of values observed.
	N int
}

// HistogramOf builds the width histogram of src.
func HistogramOf(src []uint64) WidthHistogram {
	var h WidthHistogram
	h.N = len(src)
	for _, v := range src {
		h.Counts[Width(v)]++
	}
	return h
}

// Observe adds one value to the histogram. It is the streaming form
// of HistogramOf, used by the one-pass block-statistics collector so
// encode-side estimation reuses this machinery without a second pass
// over the data.
func (h *WidthHistogram) Observe(v uint64) {
	h.Counts[Width(v)]++
	h.N++
}

// Reset clears the histogram for reuse.
func (h *WidthHistogram) Reset() {
	*h = WidthHistogram{}
}

// RawFromZigzag derives the histogram of raw (non-zigzagged) widths
// from a histogram over zigzagged values, valid only when every
// observed value was non-negative: zigzag doubles a non-negative
// value, so its width is exactly one more than the raw width (zero
// stays zero).
func (h WidthHistogram) RawFromZigzag() WidthHistogram {
	var out WidthHistogram
	out.N = h.N
	out.Counts[0] = h.Counts[0]
	for w := 1; w <= 64; w++ {
		out.Counts[w-1] += h.Counts[w]
	}
	return out
}

// MaxWidth returns the largest width with a non-zero count (0 for an
// empty histogram).
func (h WidthHistogram) MaxWidth() uint {
	for w := 64; w >= 0; w-- {
		if h.Counts[w] > 0 {
			return uint(w)
		}
	}
	return 0
}

// WidthCovering returns the smallest width w such that at least
// fraction coverage of the values fit in w bits. coverage is clamped
// to [0, 1]; an empty histogram yields 0.
func (h WidthHistogram) WidthCovering(coverage float64) uint {
	if h.N == 0 {
		return 0
	}
	if coverage < 0 {
		coverage = 0
	}
	if coverage > 1 {
		coverage = 1
	}
	need := int(coverage * float64(h.N))
	if float64(need) < coverage*float64(h.N) {
		need++
	}
	acc := 0
	for w := 0; w <= 64; w++ {
		acc += h.Counts[w]
		if acc >= need {
			return uint(w)
		}
	}
	return h.MaxWidth()
}

// ExceptionsAt returns how many values do not fit in w bits.
func (h WidthHistogram) ExceptionsAt(w uint) int {
	exc := 0
	for ww := int(w) + 1; ww <= 64; ww++ {
		exc += h.Counts[ww]
	}
	return exc
}

// BestPatchWidth chooses the width minimizing the total cost in bits
// of packing all fitting values at width w plus storing each
// exception as an (index, value) pair costing excBits bits. It
// returns the chosen width and the corresponding exception count.
// This is the classical PFOR width selection, expressed over the
// paper's L0 patch model.
func (h WidthHistogram) BestPatchWidth(excBits uint) (uint, int) {
	if h.N == 0 {
		return 0, 0
	}
	bestW := h.MaxWidth()
	bestCost := uint64(h.N) * uint64(bestW)
	bestExc := 0
	exc := 0
	for w := int(h.MaxWidth()) - 1; w >= 0; w-- {
		exc += h.Counts[w+1]
		cost := uint64(h.N)*uint64(w) + uint64(exc)*uint64(excBits)
		if cost < bestCost {
			bestCost = cost
			bestW = uint(w)
			bestExc = exc
		}
	}
	return bestW, bestExc
}
