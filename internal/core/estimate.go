package core

import "math"

// The size-estimation contract: a SizeEstimator prices a scheme from
// one-pass BlockStats, in the same analytic size model as
// Form.PayloadBits, so the analyzer compresses a candidate only when
// its price leaves the outcome open. Every price says what it proves
// (Bound): an Exact one is the size the compressed form will report,
// bit for bit; a LowerBound is never above it; a Heuristic proves
// nothing and only ranks.

// Bound is what a size estimate proves about the encoded size. The
// kinds are ordered by strength, so the weakest of several is their
// minimum.
type Bound uint8

const (
	// Heuristic estimates prove nothing: the actual size may fall on
	// either side, so the analyzer never skips a candidate on one.
	Heuristic Bound = iota
	// LowerBound estimates are never above the actual size.
	LowerBound
	// Exact estimates equal the actual size.
	Exact
)

// String names the bound kind for reports.
func (b Bound) String() string {
	return [...]string{"heuristic", "lower bound", "exact"}[b]
}

// SizeEstimator is implemented by schemes (and composites) that can
// predict their encoded size from column statistics alone.
type SizeEstimator interface {
	// EstimateSize predicts the total encoded size in bits
	// (Form.PayloadBits of the would-be form tree) of compressing a
	// column with the given stats, and says what the prediction
	// proves. The analyzer never compresses a candidate to learn what
	// an Exact or LowerBound price already settles, so a scheme must
	// claim no more than it can guarantee.
	//
	// A return of bits == 0 means the scheme cannot estimate from
	// these stats (every real form costs at least its header);
	// ImpossibleBits means the stats prove the scheme cannot
	// represent the column at all.
	EstimateSize(st *BlockStats) (bits uint64, kind Bound)
}

// SizeFloorer is implemented by schemes (and composites) whose price
// proves nothing (Heuristic) but whose form the stats still bound from
// below. The analyzer never compresses a candidate whose floor already
// loses to a size it has measured, so a floor must be proven: it may
// never exceed Form.PayloadBits of the form the scheme compresses a
// column with these stats to.
type SizeFloorer interface {
	// SizeFloor returns a size in bits that the form of compressing a
	// column with stats st cannot undercut, or 0 when the stats prove
	// none. inner names the schemes composed over the scheme's
	// constituent columns (nil for a bare scheme, whose constituents
	// stay ID leaves); PartFloor prices one such constituent.
	SizeFloor(st *BlockStats, inner map[string]Scheme) uint64
}

// ImpossibleBits is the EstimateSize sentinel for "the stats prove
// compression would fail" (for example CONST on a column with more
// than one run). Such candidates rank last and are never compressed.
const ImpossibleBits = math.MaxUint64

// PredictedChild is one constituent column of a scheme as predicted
// by ConstituentStats: its name and the derived statistics of its
// pure column.
type PredictedChild struct {
	// Name is the constituent column name.
	Name string
	// Stats carries the fields of the child column the parent's
	// stats determine, with the corresponding Has* flags set.
	Stats BlockStats
}

// ConstituentStatser is implemented by decomposable schemes that can
// predict, from the stats of their input column, the constituent
// columns their Compress will emit. It is what lets a Composite
// estimate sizes: the outer scheme derives child stats, and the
// inner schemes' estimators price each child.
type ConstituentStatser interface {
	// ConstituentStats returns the node's own overhead bits (header,
	// params and any direct payload, matching Form.PayloadBits
	// accounting) and the predicted children. exact reports whether
	// every populated child field is exact; ok is false when the
	// required stats are missing.
	ConstituentStats(st *BlockStats) (selfBits uint64, children []PredictedChild, exact, ok bool)
}

// FormOverheadBits returns the analytic per-node overhead of a form
// with nparams parameters — the same accounting Form.PayloadBits
// charges, so size estimates and evaluated sizes agree bit for bit.
func FormOverheadBits(nparams int) uint64 {
	return formHeaderBits + uint64(nparams)*perParamBits
}

// SatAddBits adds size estimates, saturating at ImpossibleBits so an
// impossible constituent poisons the whole composition instead of
// wrapping around.
func SatAddBits(a, b uint64) uint64 {
	if a >= ImpossibleBits-b {
		return ImpossibleBits
	}
	return a + b
}

// EstimateOf returns the stats-predicted encoded size of compressing
// a column under s. ok is false when s has no estimator or its
// estimator cannot price these stats.
func EstimateOf(s Scheme, st *BlockStats) (bits uint64, kind Bound, ok bool) {
	e, isEst := s.(SizeEstimator)
	if !isEst {
		return 0, Heuristic, false
	}
	bits, kind = e.EstimateSize(st)
	if bits == 0 {
		return 0, Heuristic, false
	}
	return bits, kind, true
}

// EstimateSize implements SizeEstimator for compositions: the outer
// scheme predicts each constituent column's stats, and the inner
// schemes price them; children left uncomposed stay the raw ID forms
// the outer emits. The sum proves what its weakest term proves, and
// nothing when the predicted child stats are themselves inexact.
func (c *Composite) EstimateSize(st *BlockStats) (bits uint64, kind Bound) {
	cs, isCS := c.outer.(ConstituentStatser)
	if !isCS {
		return 0, Heuristic
	}
	selfBits, children, exact, ok := cs.ConstituentStats(st)
	if !ok {
		return 0, Heuristic
	}
	kind = Exact
	if !exact {
		kind = Heuristic
	}
	total := selfBits
	for i := range children {
		ch := &children[i]
		cb, ckind, cok := partPrice(ch.Name, &ch.Stats, c.inner)
		if !cok {
			return 0, Heuristic
		}
		total = SatAddBits(total, cb)
		kind = min(kind, ckind)
	}
	return total, kind
}

// partPrice prices the constituent column name, with stats st, as a
// composition with inner over its parent stores it: the ID form the
// outer emitted when no inner names it, else the inner scheme's price.
func partPrice(name string, st *BlockStats, inner map[string]Scheme) (bits uint64, kind Bound, ok bool) {
	in, composed := inner[name]
	if !composed {
		return SatAddBits(FormOverheadBits(0), uint64(st.N)*64), Exact, true
	}
	return EstimateOf(in, st)
}

// PartFloor is the floor half of partPrice, for SizeFloor
// implementations: what the constituent column name costs at least
// when its true stats are nowhere below st in a field its price reads.
// It is the uncomposed ID leaf's size, or the composed inner scheme's
// Exact or LowerBound price; ok is false when that price proves
// nothing. The ID, NS and RLE prices never fall as N, Max, Runs or
// MaxRunLen rise with Min held, which is what lets a caller state
// smaller child stats than it can know and still price a floor.
func PartFloor(name string, st *BlockStats, inner map[string]Scheme) (uint64, bool) {
	bits, kind, ok := partPrice(name, st, inner)
	if !ok || kind == Heuristic || bits == ImpossibleBits {
		return 0, false
	}
	return bits, true
}

// SizeFloor implements SizeFloorer for compositions: the outer scheme
// bounds the composition from below, pricing its constituents through
// the composite's inner schemes.
func (c *Composite) SizeFloor(st *BlockStats, inner map[string]Scheme) uint64 {
	f, ok := c.outer.(SizeFloorer)
	if !ok || len(inner) > 0 {
		return 0
	}
	return f.SizeFloor(st, c.inner)
}
