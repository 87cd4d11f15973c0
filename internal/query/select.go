package query

import (
	"fmt"
	"sync"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/sel"
	"lwcomp/internal/vec"
)

// SelectRange returns the row positions whose values fall in
// [lo, hi], exploiting the form's structure:
//
//   - RLE/RPE test one value per run and emit whole runs;
//   - FOR classifies each segment against [refs[s], refs[s]+bound]
//     (the paper's model-based selection speed-up): segments entirely
//     outside the range are skipped without decoding their offsets,
//     segments entirely inside are emitted without decoding, and
//     straddling segments run the fused unpack-and-compare kernels on
//     the packed offsets;
//   - NS/VNS run the fused kernels over the packed payload directly;
//   - DICT maps the value range to a code range and scans the codes
//     form recursively.
//
// The result is always exact. Internally the matches accumulate in a
// pooled bitmap selection vector (package sel); this function converts
// to an explicit row-position column at the boundary. Callers that can
// consume the bitmap directly should use SelectRangeSel.
func SelectRange(f *core.Form, lo, hi int64) ([]int64, error) {
	bm := sel.Get(f.N)
	defer bm.Release()
	if err := SelectRangeSel(f, lo, hi, bm, 0); err != nil {
		return nil, err
	}
	return bm.AppendRows(make([]int64, 0, bm.Count()), 0), nil
}

// SelectRangeSel emits the row positions of f whose values fall in
// [lo, hi] into dst, each offset by base (row r of f sets bit base+r).
// It is the zero-allocation core of SelectRange: runs arrive as word
// fills and straddling packed blocks as fused 64-bit match masks.
func SelectRangeSel(f *core.Form, lo, hi int64, dst *sel.Selection, base int) error {
	s := core.GetScratch()
	defer s.Release()
	return selectRangeSel(f, lo, hi, dst, base, s)
}

func selectRangeSel(f *core.Form, lo, hi int64, dst *sel.Selection, base int, s *core.Scratch) error {
	if lo > hi || f.N == 0 {
		return nil
	}
	switch f.Scheme {
	case scheme.ConstName:
		if v := f.Params["value"]; v >= lo && v <= hi {
			dst.AddRun(base, f.N)
		}
		return nil

	case scheme.RLEName, scheme.RPEName:
		bounds, values, err := runBoundariesScratch(f, s)
		if err != nil {
			return err
		}
		var start int64
		for i, end := range bounds {
			if values[i] >= lo && values[i] <= hi {
				dst.AddRun(base+int(start), int(end-start))
			}
			start = end
		}
		s.PutI64(bounds)
		s.PutI64(values)
		return nil

	case scheme.FORName:
		return selectRangeSelFOR(f, lo, hi, dst, base, s)

	case scheme.NSName:
		if w, ok := fusedNSWidth(f); ok {
			ulo, uhi, any := unsignedBounds(lo, hi)
			if !any {
				return nil
			}
			return bitpack.SelectRangeU(f.Packed, 0, f.N, w, ulo, uhi, func(pos int, m uint64) {
				dst.OrWord(base+pos, m)
			})
		}
		if w, ok := fusedNSZZWidth(f); ok {
			return bitpack.SelectRangeZZ(f.Packed, 0, f.N, w, lo, hi, func(pos int, m uint64) {
				dst.OrWord(base+pos, m)
			})
		}

	case scheme.VNSName:
		if done, err := selectRangeSelVNS(f, lo, hi, dst, base, s); done || err != nil {
			return err
		}

	case scheme.DictName:
		dict, err := core.ChildScratch(f, "dict", s)
		if err != nil {
			return err
		}
		cLo := int64(vec.LowerBound(dict, lo))
		cHi := int64(vec.UpperBound(dict, hi)) - 1
		s.PutI64(dict)
		if cLo > cHi {
			return nil
		}
		codes, err := f.Child("codes")
		if err != nil {
			return err
		}
		return selectRangeSel(codes, cLo, cHi, dst, base, s)

	case scheme.PlusName:
		if done, err := selectRangeSelPlus(f, lo, hi, dst, base, s); done || err != nil {
			return err
		}
	}

	// Fallback: materialize into scratch and scan.
	col := s.I64(f.N)
	defer s.PutI64(col)
	if err := core.DecompressInto(f, col, s); err != nil {
		return err
	}
	scanSelRows(col, lo, hi, dst, base)
	return nil
}

// CountRange returns |{i : lo ≤ col[i] ≤ hi}| with the same
// structure-exploiting shortcuts as SelectRange, but without
// materializing row ids — fully-inside FOR segments contribute their
// size in O(1) and packed payloads go through the fused count
// kernels, so the common paths allocate nothing.
func CountRange(f *core.Form, lo, hi int64) (int64, error) {
	s := core.GetScratch()
	defer s.Release()
	return countRange(f, lo, hi, s)
}

func countRange(f *core.Form, lo, hi int64, s *core.Scratch) (int64, error) {
	if lo > hi || f.N == 0 {
		return 0, nil
	}
	switch f.Scheme {
	case scheme.ConstName:
		v := f.Params["value"]
		if v < lo || v > hi {
			return 0, nil
		}
		return int64(f.N), nil

	case scheme.RLEName, scheme.RPEName:
		bounds, values, err := runBoundariesScratch(f, s)
		if err != nil {
			return 0, err
		}
		var count int64
		var start int64
		for i, end := range bounds {
			if values[i] >= lo && values[i] <= hi {
				count += end - start
			}
			start = end
		}
		s.PutI64(bounds)
		s.PutI64(values)
		return count, nil

	case scheme.FORName:
		return countRangeFOR(f, lo, hi, s)

	case scheme.NSName:
		if w, ok := fusedNSWidth(f); ok {
			ulo, uhi, any := unsignedBounds(lo, hi)
			if !any {
				return 0, nil
			}
			return bitpack.CountRangeU(f.Packed, 0, f.N, w, ulo, uhi)
		}
		if w, ok := fusedNSZZWidth(f); ok {
			return bitpack.CountRangeZZ(f.Packed, 0, f.N, w, lo, hi)
		}

	case scheme.VNSName:
		if n, done, err := countRangeVNS(f, lo, hi, s); done || err != nil {
			return n, err
		}

	case scheme.DictName:
		dict, err := core.ChildScratch(f, "dict", s)
		if err != nil {
			return 0, err
		}
		cLo := int64(vec.LowerBound(dict, lo))
		cHi := int64(vec.UpperBound(dict, hi)) - 1
		s.PutI64(dict)
		if cLo > cHi {
			return 0, nil
		}
		codes, err := f.Child("codes")
		if err != nil {
			return 0, err
		}
		return countRange(codes, cLo, cHi, s)

	case scheme.PlusName:
		if n, done, err := countRangePlus(f, lo, hi, s); done || err != nil {
			return n, err
		}
	}

	col := s.I64(f.N)
	defer s.PutI64(col)
	if err := core.DecompressInto(f, col, s); err != nil {
		return 0, err
	}
	return vec.CountRange(col, lo, hi), nil
}

// fusedNSWidth reports whether an NS form's payload can be scanned by
// the fused unsigned kernels: no zigzag (the mapping does not preserve
// value order) and width ≤ 63 (so stored words reinterpret to
// non-negative values).
func fusedNSWidth(f *core.Form) (uint, bool) {
	w := f.Params["width"]
	if f.Params["zigzag"] != 0 || w < 0 || w > 63 {
		return 0, false
	}
	return uint(w), true
}

// fusedNSZZWidth reports whether an NS form's payload can be scanned
// by the fused zigzag kernels, which decode the mapping inline and
// compare in the signed domain — any width works there. The zigzag
// parameter must be exactly 1, matching what decode treats as zigzag.
func fusedNSZZWidth(f *core.Form) (uint, bool) {
	w := f.Params["width"]
	if f.Params["zigzag"] != 1 || w < 0 || w > 64 {
		return 0, false
	}
	return uint(w), true
}

// translateRange maps the value window [lo, hi] into the residual
// domain of a PLUS form whose model contributes m (v = m + r, so r
// ranges over [lo-m, hi-m]), saturating at the int64 extremes. any is
// false when no representable residual can land in the window.
func translateRange(lo, hi, m int64) (tLo, tHi int64, any bool) {
	tLo = lo - m
	if m > 0 && tLo > lo {
		tLo = minInt64 // lo-m underflows: every residual clears the lower bound
	} else if m < 0 && tLo < lo {
		return 0, 0, false // lo-m overflows: the window sits above the domain
	}
	tHi = hi - m
	if m > 0 && tHi > hi {
		return 0, 0, false // hi-m underflows: the window sits below the domain
	} else if m < 0 && tHi < hi {
		tHi = maxInt64 // hi-m overflows: every residual clears the upper bound
	}
	return tLo, tHi, true
}

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)

// plusModelParts returns the model and residual of a PLUS form when
// the pair is structurally scannable (lengths agree with the parent).
func plusModelParts(f *core.Form) (model, residual *core.Form, ok bool, err error) {
	model, err = f.Child("model")
	if err != nil {
		return nil, nil, false, err
	}
	residual, err = f.Child("residual")
	if err != nil {
		return nil, nil, false, err
	}
	if model.N != f.N || residual.N != f.N {
		// Corrupt lengths: let the materialize fallback surface the
		// decode error rather than scanning out of bounds here.
		return nil, nil, false, nil
	}
	return model, residual, true, nil
}

// selectRangeSelPlus is the fused predict+residual+compare path for
// PLUS forms: a constant model translates the window once and recurses
// into the residual; a step model translates it per segment and runs
// the fused kernels on the packed residual slice of that segment.
// done=false (without error) falls back to materializing.
func selectRangeSelPlus(f *core.Form, lo, hi int64, dst *sel.Selection, base int, s *core.Scratch) (bool, error) {
	model, residual, ok, err := plusModelParts(f)
	if !ok || err != nil {
		return false, err
	}
	switch model.Scheme {
	case scheme.ConstName:
		tLo, tHi, any := translateRange(lo, hi, model.Params["value"])
		if !any {
			return true, nil
		}
		return true, selectRangeSel(residual, tLo, tHi, dst, base, s)
	case scheme.StepName:
		return plusStepSegments(model, residual, s, func(segLo, segCount int, tLo, tHi int64, w uint, zz bool, _ int64) error {
			if zz {
				return bitpack.SelectRangeZZ(residual.Packed, segLo, segCount, w, tLo, tHi,
					func(pos int, m uint64) { dst.OrWord(base+pos, m) })
			}
			ulo, uhi, any := unsignedBounds(tLo, tHi)
			if !any {
				return nil
			}
			return bitpack.SelectRangeU(residual.Packed, segLo, segCount, w, ulo, uhi,
				func(pos int, m uint64) { dst.OrWord(base+pos, m) })
		}, lo, hi)
	}
	return false, nil
}

// countRangePlus is selectRangeSelPlus's counting twin.
func countRangePlus(f *core.Form, lo, hi int64, s *core.Scratch) (int64, bool, error) {
	model, residual, ok, err := plusModelParts(f)
	if !ok || err != nil {
		return 0, false, err
	}
	switch model.Scheme {
	case scheme.ConstName:
		tLo, tHi, any := translateRange(lo, hi, model.Params["value"])
		if !any {
			return 0, true, nil
		}
		n, err := countRange(residual, tLo, tHi, s)
		return n, true, err
	case scheme.StepName:
		var total int64
		done, err := plusStepSegments(model, residual, s, func(segLo, segCount int, tLo, tHi int64, w uint, zz bool, _ int64) error {
			if zz {
				n, err := bitpack.CountRangeZZ(residual.Packed, segLo, segCount, w, tLo, tHi)
				total += n
				return err
			}
			ulo, uhi, any := unsignedBounds(tLo, tHi)
			if !any {
				return nil
			}
			n, err := bitpack.CountRangeU(residual.Packed, segLo, segCount, w, ulo, uhi)
			total += n
			return err
		}, lo, hi)
		return total, done, err
	}
	return 0, false, nil
}

// plusStepSegments walks the segments of a step model over an NS
// residual, translating the query window by each segment's reference
// and handing visit the segment's residual row range, translated
// window, kernel parameters and the reference itself (aggregating
// callers add it back per match). done=false reports a shape the
// fused path cannot take (non-NS residual, foreign widths, short
// refs).
func plusStepSegments(model, residual *core.Form, s *core.Scratch,
	visit func(segLo, segCount int, tLo, tHi int64, w uint, zz bool, ref int64) error, lo, hi int64) (bool, error) {
	if residual.Scheme != scheme.NSName {
		return false, nil
	}
	w, ok := fusedNSWidth(residual)
	zzPath := false
	if !ok {
		if w, ok = fusedNSZZWidth(residual); !ok {
			return false, nil
		}
		zzPath = true
	}
	segLen := int(model.Params["seglen"])
	if segLen < 1 {
		return false, nil
	}
	refs, err := core.ChildScratch(model, "refs", s)
	if err != nil {
		return false, err
	}
	defer s.PutI64(refs)
	n := residual.N
	nseg := (n + segLen - 1) / segLen
	if len(refs) < nseg {
		return false, nil // short refs child: fall back so decode errors
	}
	for seg := 0; seg < nseg; seg++ {
		segLo := seg * segLen
		segHi := segLo + segLen
		if segHi > n {
			segHi = n
		}
		tLo, tHi, any := translateRange(lo, hi, refs[seg])
		if !any {
			continue
		}
		if err := visit(segLo, segHi-segLo, tLo, tHi, w, zzPath, refs[seg]); err != nil {
			return false, err
		}
	}
	return true, nil
}

// unsignedBounds clamps a signed query range onto the non-negative
// unsigned domain of a fused payload. any is false when the range
// misses the domain entirely.
func unsignedBounds(lo, hi int64) (ulo, uhi uint64, any bool) {
	if hi < 0 {
		return 0, 0, false
	}
	if lo > 0 {
		ulo = uint64(lo)
	}
	return ulo, uint64(hi), true
}

// offsetBounds translates a value range [lo, hi] into the unsigned
// offset domain of a FOR segment with reference ref (v = ref + off,
// off ≥ 0). The uint64 subtraction is exact for any int64 pair with
// hi ≥ ref, which is why the translation never overflows.
func offsetBounds(ref, lo, hi int64) (ulo, uhi uint64, any bool) {
	if hi < ref {
		return 0, 0, false
	}
	uhi = uint64(hi) - uint64(ref)
	if lo > ref {
		ulo = uint64(lo) - uint64(ref)
	}
	return ulo, uhi, true
}

// scanSelRows scans a materialized column chunk-wise, ORing one match
// mask per 64 values into dst (emitOffsetMatches with a zero
// reference).
func scanSelRows(col []int64, lo, hi int64, dst *sel.Selection, base int) {
	emitOffsetMatches(col, 0, lo, hi, dst, base)
}

// vnsWalk iterates the mini-blocks of a VNS form, handing each
// visit the block's packed words, width, logical position and length.
// It reports done=false (without error) when a stored width exceeds
// maxW (63 for the unsigned kernels, whose word-to-value
// reinterpretation needs non-negative values; 64 for the zigzag and
// sum kernels) or the layout is implausible.
func vnsWalk(f *core.Form, s *core.Scratch, maxW int64, visit func(words []uint64, w uint, pos, count int) error) (done bool, err error) {
	widths, err := core.ChildScratch(f, "widths", s)
	if err != nil {
		return false, err
	}
	defer s.PutI64(widths)
	for _, w := range widths {
		if w < 0 || w > maxW {
			return false, nil
		}
	}
	block := int(f.Params["block"])
	wordPos := 0
	for bIdx := 0; bIdx*block < f.N; bIdx++ {
		lo := bIdx * block
		hi := lo + block
		if hi > f.N {
			hi = f.N
		}
		if bIdx >= len(widths) {
			return false, fmt.Errorf("%w: vns widths child exhausted at block %d", core.ErrCorruptForm, bIdx)
		}
		w := uint(widths[bIdx])
		need := bitpack.PackedWords(hi-lo, w)
		if wordPos+need > len(f.Packed) {
			return false, fmt.Errorf("%w: vns payload exhausted at block %d", core.ErrCorruptForm, bIdx)
		}
		if err := visit(f.Packed[wordPos:wordPos+need], w, lo, hi-lo); err != nil {
			return false, err
		}
		wordPos += need
	}
	return true, nil
}

func selectRangeSelVNS(f *core.Form, lo, hi int64, dst *sel.Selection, base int, s *core.Scratch) (bool, error) {
	if zz := f.Params["zigzag"]; zz == 1 {
		return vnsWalk(f, s, 64, func(words []uint64, w uint, pos, count int) error {
			return bitpack.SelectRangeZZ(words, 0, count, w, lo, hi, func(p int, m uint64) {
				dst.OrWord(base+pos+p, m)
			})
		})
	} else if zz != 0 {
		return false, nil // unknown mapping: let decode interpret it
	}
	ulo, uhi, any := unsignedBounds(lo, hi)
	if !any {
		// "Fully negative range matches nothing" holds only if every
		// stored width is ≤ 63 — a width-64 block reinterprets to
		// negative values. vnsWalk performs exactly that check (and
		// falls back when it fails), so walk with a no-op visit.
		return vnsWalk(f, s, 63, func([]uint64, uint, int, int) error { return nil })
	}
	return vnsWalk(f, s, 63, func(words []uint64, w uint, pos, count int) error {
		return bitpack.SelectRangeU(words, 0, count, w, ulo, uhi, func(p int, m uint64) {
			dst.OrWord(base+pos+p, m)
		})
	})
}

func countRangeVNS(f *core.Form, lo, hi int64, s *core.Scratch) (int64, bool, error) {
	if zz := f.Params["zigzag"]; zz == 1 {
		var total int64
		done, err := vnsWalk(f, s, 64, func(words []uint64, w uint, pos, count int) error {
			n, err := bitpack.CountRangeZZ(words, 0, count, w, lo, hi)
			total += n
			return err
		})
		return total, done, err
	} else if zz != 0 {
		return 0, false, nil // unknown mapping: let decode interpret it
	}
	ulo, uhi, any := unsignedBounds(lo, hi)
	if !any {
		// See selectRangeSelVNS: width-64 blocks hold negative values,
		// so the no-match shortcut must clear vnsWalk's width check.
		done, err := vnsWalk(f, s, 63, func([]uint64, uint, int, int) error { return nil })
		return 0, done, err
	}
	var total int64
	done, err := vnsWalk(f, s, 63, func(words []uint64, w uint, pos, count int) error {
		n, err := bitpack.CountRangeU(words, 0, count, w, ulo, uhi)
		total += n
		return err
	})
	return total, done, err
}

// runBoundariesScratch returns (exclusive run end positions, run
// values) for RLE and RPE forms, both borrowed from s; the caller
// returns them with PutI64.
func runBoundariesScratch(f *core.Form, s *core.Scratch) ([]int64, []int64, error) {
	values, err := core.ChildScratch(f, "values", s)
	if err != nil {
		return nil, nil, err
	}
	var bounds []int64
	switch f.Scheme {
	case scheme.RLEName:
		bounds, err = core.ChildScratch(f, "lengths", s)
		if err == nil {
			_, err = vec.PrefixSumInclusiveInto(bounds, bounds)
		}
	case scheme.RPEName:
		bounds, err = core.ChildScratch(f, "positions", s)
	default:
		err = fmt.Errorf("query: runBoundaries on scheme %q", f.Scheme)
	}
	if err == nil && len(bounds) != len(values) {
		// The scalar decode path rejects this via checkRLE/checkRPE;
		// without the check here a short values child would panic in
		// the fused run walks instead of erroring.
		err = fmt.Errorf("%w: %s has %d runs but %d values",
			core.ErrCorruptForm, f.Scheme, len(bounds), len(values))
	}
	if err == nil {
		err = checkRunBounds(f, bounds)
	}
	if err != nil {
		if bounds != nil {
			s.PutI64(bounds)
		}
		s.PutI64(values)
		return nil, nil, err
	}
	return bounds, values, nil
}

// checkRunBounds validates exclusive run end positions: non-negative,
// non-decreasing, covering exactly [0, f.N). Without it, a corrupt
// form whose runs overshoot N would panic inside Selection.AddRun
// instead of erroring (decode validates the same invariant in
// vec.ExpandByBoundaries / RunExpandInto).
func checkRunBounds(f *core.Form, bounds []int64) error {
	var prev int64
	for _, end := range bounds {
		if end < prev {
			return fmt.Errorf("%w: %s run boundaries decrease (%d after %d)",
				core.ErrCorruptForm, f.Scheme, end, prev)
		}
		prev = end
	}
	if prev != int64(f.N) {
		return fmt.Errorf("%w: %s runs cover %d rows, form declares %d",
			core.ErrCorruptForm, f.Scheme, prev, f.N)
	}
	return nil
}

// segmentClass is the trichotomy of the FOR pruning walk.
type segmentClass uint8

const (
	segOutside segmentClass = iota
	segInside
	segStraddle
)

// forPruner precomputes what the FOR segment walk needs: refs, the
// per-segment offset upper bounds, and accessors that can decode or
// fused-scan a single segment. All slices are borrowed from a Scratch
// and the pruner itself is pooled; pair newFORPruner with release.
type forPruner struct {
	refs    []int64
	segLen  int
	n       int
	bounds  []int64 // per-segment max offset (inclusive upper bound)
	offsets *core.Form
	// nsWidth is the fused-scan width of NS offsets; valid when
	// nsFused is set.
	nsWidth uint
	nsFused bool
	// decoded caches the fully decompressed offsets when the child
	// supports no partial decoding.
	decoded []int64
	// VNS partial-decode state: per-block widths, block length and
	// each block's starting word within the packed payload.
	vnsWidths   []int64
	vnsBlock    int
	vnsWordOffs []int64
}

// SelectStats counts segments whose offsets were actually decoded (or
// fused-scanned); benchmarks report it to show pruning at work.
type SelectStats struct {
	Segments        int
	DecodedSegments int
}

var prunerPool = sync.Pool{New: func() any { return new(forPruner) }}

func newFORPruner(f *core.Form, s *core.Scratch) (*forPruner, error) {
	refs, err := core.ChildScratch(f, "refs", s)
	if err != nil {
		return nil, err
	}
	offsets, err := f.Child("offsets")
	if err != nil {
		s.PutI64(refs)
		return nil, err
	}
	p := prunerPool.Get().(*forPruner)
	*p = forPruner{
		refs:    refs,
		segLen:  int(f.Params["seglen"]),
		n:       f.N,
		offsets: offsets,
	}
	nseg := len(refs)
	p.bounds = s.I64(nseg)
	switch offsets.Scheme {
	case scheme.NSName:
		w, ok := fusedNSWidth(offsets)
		if !ok {
			// Zigzag offsets mean a foreign form (FOR offsets are
			// non-negative by construction) — fall back to decoding.
			if err := p.materialize(s); err != nil {
				p.release(s)
				return nil, err
			}
			break
		}
		p.nsWidth, p.nsFused = w, true
		bound := int64(bitpack.Mask(w))
		for i := range p.bounds {
			p.bounds[i] = bound
		}
	case scheme.VNSName:
		if offsets.Params["zigzag"] == 1 {
			if err := p.materialize(s); err != nil {
				p.release(s)
				return nil, err
			}
			break
		}
		widths, err := core.ChildScratch(offsets, "widths", s)
		if err != nil {
			p.release(s)
			return nil, err
		}
		block := int(offsets.Params["block"])
		nblocks := 0
		if block >= 1 {
			nblocks = (p.n + block - 1) / block
		}
		// The fused walk requires a sane layout: a positive block
		// length, widths covering every block, and widths ≤ 63. On
		// anything else — including a corrupt short widths child —
		// fall back to materializing, which answers correctly or
		// surfaces the decode's ErrCorruptForm rather than silently
		// dropping the uncovered rows.
		wide := block < 1 || len(widths) < nblocks
		for _, w := range widths {
			if w < 0 || w > 63 {
				wide = true
				break
			}
		}
		if wide {
			s.PutI64(widths)
			if err := p.materialize(s); err != nil {
				p.release(s)
				return nil, err
			}
			break
		}
		p.vnsWidths = widths
		p.vnsBlock = block
		// Per-block starting words, for partial decode.
		p.vnsWordOffs = s.I64(nblocks + 1)
		p.vnsWordOffs[0] = 0
		for b := 0; b < nblocks; b++ {
			blockLen := block
			if (b+1)*block > p.n {
				blockLen = p.n - b*block
			}
			p.vnsWordOffs[b+1] = p.vnsWordOffs[b] + int64(bitpack.PackedWords(blockLen, uint(widths[b])))
		}
		if int(p.vnsWordOffs[nblocks]) > len(offsets.Packed) {
			// Truncated payload: same fallback as above.
			s.PutI64(p.vnsWordOffs)
			s.PutI64(p.vnsWidths)
			p.vnsWordOffs, p.vnsWidths = nil, nil
			if err := p.materialize(s); err != nil {
				p.release(s)
				return nil, err
			}
			break
		}
		for seg := range p.bounds {
			segLo := seg * p.segLen
			segHi := segLo + p.segLen
			if segHi > p.n {
				segHi = p.n
			}
			var maxW int64
			for b := segLo / block; b*block < segHi; b++ {
				if widths[b] > maxW {
					maxW = widths[b]
				}
			}
			p.bounds[seg] = int64(bitpack.Mask(uint(maxW)))
		}
	default:
		if err := p.materialize(s); err != nil {
			p.release(s)
			return nil, err
		}
	}
	return p, nil
}

// release returns the pruner's borrowed slices to s and the pruner to
// its pool.
func (p *forPruner) release(s *core.Scratch) {
	s.PutI64(p.refs)
	s.PutI64(p.bounds)
	s.PutI64(p.decoded)
	s.PutI64(p.vnsWidths)
	s.PutI64(p.vnsWordOffs)
	*p = forPruner{}
	prunerPool.Put(p)
}

// materialize decompresses the offsets into scratch storage and
// computes exact per-segment bounds from the data.
func (p *forPruner) materialize(s *core.Scratch) error {
	col := s.I64(p.offsets.N)
	if err := core.DecompressInto(p.offsets, col, s); err != nil {
		s.PutI64(col)
		return err
	}
	p.decoded = col
	for seg := range p.bounds {
		lo := seg * p.segLen
		hi := lo + p.segLen
		if hi > p.n {
			hi = p.n
		}
		var m int64
		for _, v := range col[lo:hi] {
			if v > m {
				m = v
			}
		}
		p.bounds[seg] = m
	}
	return nil
}

// classify places segment s relative to the value range [lo, hi].
func (p *forPruner) classify(s int, lo, hi int64) segmentClass {
	segMin := p.refs[s]
	segMax := p.refs[s] + p.bounds[s]
	if segMax < lo || segMin > hi {
		return segOutside
	}
	if segMin >= lo && segMax <= hi {
		return segInside
	}
	return segStraddle
}

// segRange clamps segment s to [0, n) and returns its row range.
func (p *forPruner) segRange(s int) (int, int) {
	segLo := s * p.segLen
	segHi := segLo + p.segLen
	if segHi > p.n {
		segHi = p.n
	}
	return segLo, segHi
}

// selectSegment emits the matching rows of straddling segment seg
// into dst (offset by base) without materializing the segment when
// the offsets are fused-scannable.
func (p *forPruner) selectSegment(seg int, lo, hi int64, dst *sel.Selection, base int) error {
	segLo, segHi := p.segRange(seg)
	ref := p.refs[seg]
	if p.decoded != nil {
		emitOffsetMatches(p.decoded[segLo:segHi], ref, lo, hi, dst, base+segLo)
		return nil
	}
	ulo, uhi, any := offsetBounds(ref, lo, hi)
	if !any {
		return nil
	}
	if p.nsFused {
		return bitpack.SelectRangeU(p.offsets.Packed, segLo, segHi-segLo, p.nsWidth, ulo, uhi,
			func(pos int, m uint64) { dst.OrWord(base+pos, m) })
	}
	return p.vnsSegment(segLo, segHi, func(words []uint64, w uint, blockLo, relStart, relCount int) error {
		return bitpack.SelectRangeU(words, relStart, relCount, w, ulo, uhi,
			func(pos int, m uint64) { dst.OrWord(base+blockLo+pos, m) })
	})
}

// countSegment counts the matching rows of straddling segment seg.
func (p *forPruner) countSegment(seg int, lo, hi int64) (int64, error) {
	segLo, segHi := p.segRange(seg)
	ref := p.refs[seg]
	if p.decoded != nil {
		var count int64
		for _, o := range p.decoded[segLo:segHi] {
			v := ref + o
			if v >= lo && v <= hi {
				count++
			}
		}
		return count, nil
	}
	ulo, uhi, any := offsetBounds(ref, lo, hi)
	if !any {
		return 0, nil
	}
	if p.nsFused {
		return bitpack.CountRangeU(p.offsets.Packed, segLo, segHi-segLo, p.nsWidth, ulo, uhi)
	}
	var total int64
	err := p.vnsSegment(segLo, segHi, func(words []uint64, w uint, blockLo, relStart, relCount int) error {
		n, err := bitpack.CountRangeU(words, relStart, relCount, w, ulo, uhi)
		total += n
		return err
	})
	return total, err
}

// vnsSegment visits the VNS mini-blocks overlapping rows
// [segLo, segHi), handing visit each block's words, width, logical
// start and the overlap range relative to the block.
func (p *forPruner) vnsSegment(segLo, segHi int, visit func(words []uint64, w uint, blockLo, relStart, relCount int) error) error {
	block := p.vnsBlock
	// newFORPruner validated that widths and word offsets cover every
	// block, so the loop bound needs no widths-length guard.
	for b := segLo / block; b*block < segHi; b++ {
		blockLo := b * block
		blockHi := blockLo + block
		if blockHi > p.n {
			blockHi = p.n
		}
		lo := segLo
		if blockLo > lo {
			lo = blockLo
		}
		hi := segHi
		if blockHi < hi {
			hi = blockHi
		}
		words := p.offsets.Packed[p.vnsWordOffs[b]:p.vnsWordOffs[b+1]]
		if err := visit(words, uint(p.vnsWidths[b]), blockLo, lo-blockLo, hi-lo); err != nil {
			return err
		}
	}
	return nil
}

// emitOffsetMatches scans materialized offsets against [lo, hi] with
// reference ref, ORing chunk masks into dst at base. ref + o wraps
// like every int64 sum here; one unsigned compare then tests both
// bounds, branch-free.
func emitOffsetMatches(offs []int64, ref, lo, hi int64, dst *sel.Selection, base int) {
	if lo > hi {
		return
	}
	span := uint64(hi) - uint64(lo)
	for chunk := 0; chunk < len(offs); chunk += 64 {
		end := chunk + 64
		if end > len(offs) {
			end = len(offs)
		}
		var m uint64
		for j, o := range offs[chunk:end] {
			var bit uint64
			if uint64(ref+o)-uint64(lo) <= span {
				bit = 1
			}
			m |= bit << uint(j)
		}
		if m != 0 {
			dst.OrWord(base+chunk, m)
		}
	}
}

// segmentOffsets decodes the offsets of segment s only (allocating;
// the instrumented WithStats path uses it).
func (p *forPruner) segmentOffsets(s int) ([]int64, error) {
	segLo, segHi := p.segRange(s)
	if p.decoded != nil {
		return p.decoded[segLo:segHi], nil
	}
	if p.vnsWidths != nil {
		out := make([]int64, 0, segHi-segLo)
		err := p.vnsSegment(segLo, segHi, func(words []uint64, w uint, blockLo, relStart, relCount int) error {
			u, err := bitpack.UnpackRange(words, relStart, relCount, w)
			if err != nil {
				return err
			}
			out = append(out, bitpack.SignedSlice(u)...)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	u, err := bitpack.UnpackRange(p.offsets.Packed, segLo, segHi-segLo, uint(p.offsets.Params["width"]))
	if err != nil {
		return nil, err
	}
	return bitpack.SignedSlice(u), nil
}

func selectRangeSelFOR(f *core.Form, lo, hi int64, dst *sel.Selection, base int, s *core.Scratch) error {
	p, err := newFORPruner(f, s)
	if err != nil {
		return err
	}
	defer p.release(s)
	for seg := 0; seg*p.segLen < p.n; seg++ {
		switch p.classify(seg, lo, hi) {
		case segOutside:
		case segInside:
			segLo, segHi := p.segRange(seg)
			dst.AddRun(base+segLo, segHi-segLo)
		case segStraddle:
			if err := p.selectSegment(seg, lo, hi, dst, base); err != nil {
				return err
			}
		}
	}
	return nil
}

// SelectRangeFORWithStats is the instrumented variant benchmarks use
// to report how many segments escaped decoding.
func SelectRangeFORWithStats(f *core.Form, lo, hi int64) ([]int64, SelectStats, error) {
	if f.Scheme != scheme.FORName {
		return nil, SelectStats{}, fmt.Errorf("query: SelectRangeFORWithStats on scheme %q", f.Scheme)
	}
	s := core.GetScratch()
	defer s.Release()
	p, err := newFORPruner(f, s)
	if err != nil {
		return nil, SelectStats{}, err
	}
	defer p.release(s)
	var st SelectStats
	st.Segments = len(p.refs)
	out := []int64{}
	for seg := 0; seg*p.segLen < p.n; seg++ {
		segLo, segHi := p.segRange(seg)
		switch p.classify(seg, lo, hi) {
		case segOutside:
		case segInside:
			for r := segLo; r < segHi; r++ {
				out = append(out, int64(r))
			}
		case segStraddle:
			st.DecodedSegments++
			offs, err := p.segmentOffsets(seg)
			if err != nil {
				return nil, st, err
			}
			ref := p.refs[seg]
			for j, o := range offs {
				v := ref + o
				if v >= lo && v <= hi {
					out = append(out, int64(segLo+j))
				}
			}
		}
	}
	return out, st, nil
}

func countRangeFOR(f *core.Form, lo, hi int64, s *core.Scratch) (int64, error) {
	p, err := newFORPruner(f, s)
	if err != nil {
		return 0, err
	}
	defer p.release(s)
	var count int64
	for seg := 0; seg*p.segLen < p.n; seg++ {
		switch p.classify(seg, lo, hi) {
		case segOutside:
		case segInside:
			segLo, segHi := p.segRange(seg)
			count += int64(segHi - segLo)
		case segStraddle:
			n, err := p.countSegment(seg, lo, hi)
			if err != nil {
				return 0, err
			}
			count += n
		}
	}
	return count, nil
}
