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
	// Heuristic estimates are good enough to rank candidates by; the
	// actual size may fall on either side.
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
		inner, composed := c.inner[ch.Name]
		if !composed {
			// The child stays the ID form the outer emitted.
			total = SatAddBits(total, SatAddBits(FormOverheadBits(0), uint64(ch.Stats.N)*64))
			continue
		}
		cb, ckind, cok := EstimateOf(inner, &ch.Stats)
		if !cok {
			return 0, Heuristic
		}
		total = SatAddBits(total, cb)
		kind = min(kind, ckind)
	}
	return total, kind
}
