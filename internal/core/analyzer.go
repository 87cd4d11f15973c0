package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// The analyzer realizes the paper's argument that a "richer view of
// the space of lightweight compression schemes" matters operationally:
// once schemes decompose into constituents, the scheme space becomes a
// grammar of compositions, and choosing a scheme becomes a search over
// that grammar rather than a pick from a flat menu.
//
// The search is one bound-ordered loop. Every candidate is priced
// first from one-pass BlockStats (SizeEstimator), and each price says
// what it proves (Bound). Candidates are then visited in ascending
// order of what their price proves they cannot undercut, and one is
// compressed only while that bound can still beat the best size
// measured so far — so a candidate whose size the stats already
// settle costs nothing unless it wins, and then it is compressed
// once, to produce the form. Heuristic prices prove nothing, so they
// exclude nothing: what a heuristic-priced candidate's form provably
// cannot undercut is its floor (SizeFloorer), and a floor excludes it
// the way a LowerBound price does. Every candidate the search passes
// over is therefore provably beaten, and the winner is the one
// compressing every candidate would choose: the smallest, the first in
// input order among equals.

// Choice reports the analyzer's winner and the full ranking.
type Choice struct {
	// Desc is the winning candidate's Name.
	Desc string
	// Form is the winning compressed form of the full input.
	Form *Form
	// Bits is the winning form's PayloadBits.
	Bits uint64
	// Ranking holds per-candidate evaluations, in input order, for
	// reporting. A candidate the search did not compress — proved
	// unable to win by an Exact or LowerBound price or by its floor —
	// carries only that price (EstBits, EstBound) and floor (EstFloor)
	// with Trialed unset; one that failed, or that the stats prove
	// must fail (EstBits == ImpossibleBits, an ErrNotRepresentable),
	// carries Err.
	Ranking []RankEntry
}

// RankEntry is one candidate's evaluation.
type RankEntry struct {
	// Desc is the candidate's Name.
	Desc string
	// Bits is the PayloadBits of the candidate's form over the sample;
	// valid only when Trialed is set.
	Bits uint64
	// Err is non-nil when the candidate could not compress the
	// sample (e.g. a model scheme outside its domain).
	Err error
	// EstBits is the stats-predicted encoded size in bits (0 when
	// the candidate has no estimator; ImpossibleBits when the stats
	// prove compression would fail).
	EstBits uint64
	// EstBound says what EstBits proves about the encoded size.
	EstBound Bound
	// EstFloor is a size in bits the encoded size is proved never to
	// fall below (SizeFloorer) over what the search compared: the
	// column, or a strict-prefix sample. It is computed for every
	// candidate whose price is Heuristic; 0 means none was proved.
	EstFloor uint64
	// Trialed reports whether the candidate was compressed and
	// measured; when it was not, EstBits is all that is known.
	Trialed bool
}

// Analyzer searches a candidate list for the best compression of a
// column.
type Analyzer struct {
	// Candidates is the scheme space to search. A candidate that
	// implements SizeEstimator is priced from the stats, and one that
	// implements SizeFloorer behind a heuristic price is floored.
	Candidates []Scheme
	// SampleSize, when positive, evaluates candidates on a prefix
	// sample of at most this many elements before compressing the
	// full column with the winner.
	SampleSize int
	// Stats, when non-nil, supplies precomputed one-pass statistics
	// of the column given to Best; nil collects them on demand. A
	// search over a strict-prefix sample prices from the sample's own.
	Stats *BlockStats
	// Scratch, when non-nil, supplies pooled encode temporaries to
	// stats collection and trial compression.
	Scratch *Scratch
}

// ErrNoCandidate is returned when every candidate fails.
var ErrNoCandidate = errors.New("core: no admissible candidate scheme")

// errProvedImpossible is the Err of a candidate the search never
// compressed because its price was ImpossibleBits.
var errProvedImpossible = fmt.Errorf("%w: proved by the block statistics", ErrNotRepresentable)

// price fills in the stats-predicted size and, behind a heuristic
// price, the floor of every candidate that has them, and returns the
// stats it priced from: st, or — when st is nil and some candidate has
// a price — those of src collected into local, whose segment arrays
// the caller releases. The floors read a private copy of the stats
// that carries src, so the one floor that needs another pass over the
// column (BlockStats.Curvature, a quarter of what CollectStats costs)
// takes it once, cached for the rest. Every floor is taken up front,
// pass included: a floor still unknown when the search orders its
// visits cannot keep its candidate from being compressed early, and
// on the maintenance shapes the compressions that costs outweigh the
// pass.
func (a *Analyzer) price(rank []RankEntry, st *BlockStats, src []int64, local *BlockStats) *BlockStats {
	var fst *BlockStats
	for i, sch := range a.Candidates {
		if _, ok := sch.(SizeEstimator); !ok {
			continue
		}
		if st == nil {
			*local = CollectStats(src, a.Scratch)
			st = local
		}
		e := &rank[i]
		if bits, kind, ok := EstimateOf(sch, st); ok {
			e.EstBits, e.EstBound = bits, kind
		}
		fl, ok := sch.(SizeFloorer)
		if !ok || e.EstBound != Heuristic || e.EstBits == ImpossibleBits {
			continue
		}
		if fst == nil {
			fst = new(BlockStats)
			*fst = *st
			fst.column = src
		}
		e.EstFloor = fl.SizeFloor(fst, nil)
	}
	return st
}

// Best searches the candidates and returns the winner: the smallest
// encoding, the first in input order among equals, compressed over the
// full column. Over a strict-prefix sample the search compares sample
// sizes, priced from the sample's own stats, and then compresses the
// winner over the full column.
func (a *Analyzer) Best(src []int64) (*Choice, error) {
	n := len(a.Candidates)
	if n == 0 {
		return nil, ErrNoCandidate
	}
	sample, given := src, a.Stats
	if a.SampleSize > 0 && len(src) > a.SampleSize {
		sample, given = src[:a.SampleSize], nil // the caller's stats are the column's
	}
	choice := &Choice{Ranking: make([]RankEntry, n)}
	rank := choice.Ranking
	for i, c := range a.Candidates {
		rank[i].Desc = c.Name()
	}
	var local BlockStats
	if a.price(rank, given, sample, &local) == &local {
		defer local.ReleaseSeg(a.Scratch)
	}

	// Visit the candidates in ascending order of the size each is
	// proved unable to undercut — what its price proves or, for a
	// heuristic price, its floor — compressing one only while that
	// bound can still beat the incumbent. The winner has the smallest
	// bound that is also a size, so everything it beats is passed over
	// unvisited and an Exact price is compressed only to produce the
	// winning form.
	bound := func(idx int) uint64 {
		e := &rank[idx]
		if e.EstBound != Heuristic {
			return e.EstBits
		}
		return e.EstFloor
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(bound(x), bound(y)) })
	bestIdx := -1
	var bestBits uint64
	var bestTrialForm *Form
	beats := func(bits uint64, idx int) bool {
		return bestIdx < 0 || bits < bestBits || bits == bestBits && idx < bestIdx
	}
	for _, idx := range order {
		e := &rank[idx]
		if e.EstBits == ImpossibleBits {
			e.Err = errProvedImpossible
			continue
		}
		if !beats(bound(idx), idx) {
			continue
		}
		f, err := CompressScratch(a.Candidates[idx], sample, a.Scratch)
		if err != nil {
			e.Err = err
			continue
		}
		e.Bits, e.Trialed = f.PayloadBits(), true
		if beats(e.Bits, idx) {
			bestIdx, bestBits, bestTrialForm = idx, e.Bits, f
		}
	}
	if bestIdx < 0 {
		return nil, ErrNoCandidate
	}

	// Produce the winner's full-column form. When the sample covered
	// the whole column the winning trial form is the final form — no
	// second compression. A winner that fails on the full column falls
	// back down the already-computed ranking instead of re-running the
	// search.
	if len(sample) == len(src) {
		choice.Desc, choice.Form, choice.Bits = rank[bestIdx].Desc, bestTrialForm, bestBits
		return choice, nil
	}
	for _, idx := range fallbackOrder(rank, bestIdx, order) {
		e := &rank[idx]
		full, err := CompressScratch(a.Candidates[idx], src, a.Scratch)
		if err != nil {
			if e.Err == nil {
				e.Err = err
			}
			continue
		}
		choice.Desc, choice.Form, choice.Bits = e.Desc, full, full.PayloadBits()
		return choice, nil
	}
	return nil, fmt.Errorf("core: winning candidate %q failed on full column: %w",
		rank[bestIdx].Desc, ErrNoCandidate)
}

// fallbackOrder returns candidate indices in the order the
// full-column encode should try them: the winner first, then the other
// trialed candidates by ascending sample size (equal sizes in input
// order), then the never-trialed in visiting order.
func fallbackOrder(rank []RankEntry, bestIdx int, order []int) []int {
	out := []int{bestIdx}
	for idx := range rank {
		if idx != bestIdx && rank[idx].Trialed {
			out = append(out, idx)
		}
	}
	slices.SortStableFunc(out[1:], func(x, y int) int { return cmp.Compare(rank[x].Bits, rank[y].Bits) })
	for _, idx := range order {
		if e := &rank[idx]; idx != bestIdx && !e.Trialed && e.Err == nil {
			out = append(out, idx)
		}
	}
	return out
}
