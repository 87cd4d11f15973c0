package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
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
// once, to produce the form. Heuristic prices prove nothing: the
// default search lets them exclude all but the top few candidates,
// the Exhaustive search does not, and that is the only difference
// between the two. What a heuristic-priced candidate's form provably
// cannot undercut is its floor (SizeFloorer), and a floor excludes it
// the way a LowerBound price does, in both searches. When the default
// search ends with every candidate it passed over provably beaten too,
// its winner is the exhaustive one, and the Choice says so (Certified).

// Candidate is one point in the composite-scheme space: a description
// and a compressor.
type Candidate struct {
	// Desc is a human-readable scheme expression, e.g.
	// "rle(lengths=ns, values=delta(deltas=ns))".
	Desc string
	// Compress encodes a column under this candidate.
	Compress func(src []int64) (*Form, error)
	// Scheme, when non-nil, is the scheme behind Compress. It lets
	// the analyzer predict the candidate's encoded size from block
	// statistics (SizeEstimator) and pool its encode temporaries
	// (CompressScratch). Candidates built from a bare Compress
	// closure have no price and are always compressed.
	Scheme Scheme
}

// FromScheme adapts a Scheme (or Composite) into a Candidate.
func FromScheme(s Scheme) Candidate {
	return Candidate{Desc: s.Name(), Compress: s.Compress, Scheme: s}
}

// Choice reports the analyzer's winner and the full ranking.
type Choice struct {
	// Desc is the winning candidate's description.
	Desc string
	// Form is the winning compressed form of the full input.
	Form *Form
	// Eval holds the winning size/cost evaluation (of the full
	// input).
	Eval CostedSize
	// Ranking holds per-candidate evaluations, in input order, for
	// reporting. A candidate the search did not compress — excluded
	// by the shortlist, or proved unable to win by an Exact or
	// LowerBound price or by its floor — carries only that price
	// (EstBits, EstBound) and floor (EstFloor) with Trialed unset; one
	// that failed, or that the stats prove must fail (EstBits ==
	// ImpossibleBits, an ErrNotRepresentable), carries Err.
	Ranking []RankEntry
	// Certified reports that the Exhaustive search over the same
	// candidates, cost budget and column would choose this same winner,
	// and so the byte-identical Form. It is set by every whole-column
	// Exhaustive search, and by a whole-column default search without a
	// cost budget that proved every candidate it did not choose loses
	// under the exhaustive rule (larger, or equal and later in input
	// order): by failing, by its measured size, by an Exact or
	// LowerBound price, or by its floor taken as the exhaustive search
	// takes it. A search over a strict-prefix sample is never certified.
	Certified bool
}

// RankEntry is one candidate's evaluation.
type RankEntry struct {
	Desc string
	// Eval is the trial evaluation over the sample; valid only when
	// Trialed is set.
	Eval CostedSize
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
	// fall below (SizeFloorer). It is computed only for a candidate
	// whose price is Heuristic, and only when the search ran over the
	// whole column: for every shortlisted one (with, for a floor that
	// needs another pass over the column, the pass taken only
	// exhaustively), and past the shortlist for one the default search
	// needed to certify its winner (Choice.Certified), pass included;
	// 0 means none was computed or proved.
	EstFloor uint64
	// Trialed reports whether the candidate was compressed and
	// evaluated; when it was not, EstBits is all that is known.
	Trialed bool
}

// DefaultTrialK is the number of top-estimated candidates the pruned
// search shortlists when TrialK is unset.
const DefaultTrialK = 3

// Analyzer searches a candidate list for the best compression of a
// column.
type Analyzer struct {
	// Candidates is the scheme space to search.
	Candidates []Candidate
	// CostBudget, when positive, disqualifies candidates whose
	// abstract decompression cost per element exceeds it — the
	// paper's bandwidth argument: "overly-demanding decompression
	// would slow down the speed of processing data below what the
	// incoming bandwidth allows".
	CostBudget float64
	// SampleSize, when positive, evaluates candidates on a prefix
	// sample of at most this many elements before compressing the
	// full column with the winner.
	SampleSize int
	// TrialK bounds how many of the top estimate-ranked candidates
	// make the shortlist (0 means DefaultTrialK). Candidates without
	// estimators are always on it, and so is the best
	// exact-estimated candidate, so the winner can never lose to a
	// provable size.
	TrialK int
	// Exhaustive trusts no heuristic estimate: every candidate is on
	// the shortlist, so every candidate's size is established —
	// proved from the stats or measured by compressing — and the
	// winner is the smallest of them all, the first in input order
	// among equals.
	Exhaustive bool
	// Stats, when non-nil, supplies precomputed one-pass statistics
	// of the column given to Best; nil collects them on demand. A
	// search over a strict-prefix sample prices from the sample's own.
	Stats *BlockStats
	// Scratch, when non-nil, supplies pooled encode temporaries to
	// stats collection and trial compression.
	Scratch *Scratch
}

// ErrNoCandidate is returned when every candidate fails or is over
// budget.
var ErrNoCandidate = errors.New("core: no admissible candidate scheme")

// compressCand encodes data under candidate c, through the pooled
// path when the candidate carries its scheme.
func (a *Analyzer) compressCand(c *Candidate, data []int64) (*Form, error) {
	if c.Scheme != nil {
		return CompressScratch(c.Scheme, data, a.Scratch)
	}
	return c.Compress(data)
}

// errProvedImpossible is the Err of a candidate the search never
// compressed because its price was ImpossibleBits.
var errProvedImpossible = fmt.Errorf("%w: proved by the block statistics", ErrNotRepresentable)

// price fills in the stats-predicted size of every candidate that
// has one and returns the stats it priced from: st, or — when st is
// nil and some candidate has a price — those of src collected into
// local, whose segment arrays the caller releases.
func (a *Analyzer) price(rank []RankEntry, st *BlockStats, src []int64, local *BlockStats) *BlockStats {
	for i := range a.Candidates {
		sch := a.Candidates[i].Scheme
		if _, ok := sch.(SizeEstimator); !ok {
			continue
		}
		if st == nil {
			*local = CollectStats(src, a.Scratch)
			st = local
		}
		if bits, kind, ok := EstimateOf(sch, st); ok {
			rank[i].EstBits, rank[i].EstBound = bits, kind
		}
	}
	return st
}

// floor fills in the floor of every candidate in visit whose price
// proves nothing. A floor that needs one more pass over the column
// (BlockStats.Curvature, a quarter of what CollectStats costs) gets
// it only in the exhaustive search, which must settle every
// candidate: there the floors read a private copy of st that carries
// src, and the pass one of them takes is cached for the rest. The
// default search visits a few candidates its estimates ranked, and
// the one such floor there is (the sloped model's) would mostly pay
// for a candidate that is compressed first, with nothing yet to lose
// to.
func (a *Analyzer) floor(rank []RankEntry, visit []int, st *BlockStats, src []int64) {
	fst := st
	for _, idx := range visit {
		e := &rank[idx]
		fl, ok := a.Candidates[idx].Scheme.(SizeFloorer)
		if !ok || e.EstBound != Heuristic || e.EstBits == ImpossibleBits {
			continue
		}
		if a.Exhaustive && fst == st {
			fst = withColumn(st, src)
		}
		e.EstFloor = fl.SizeFloor(fst, nil)
	}
}

// withColumn returns a private copy of st that carries src, so a floor
// read through it can take Curvature's pass, cached in the copy for
// every later floor.
func withColumn(st *BlockStats, src []int64) *BlockStats {
	fst := new(BlockStats)
	*fst = *st
	fst.column = src
	return fst
}

// certify reports whether the exhaustive search would choose best, the
// default search's winner over the whole column src with stats st:
// whether every other candidate provably loses to it under the
// exhaustive rule — larger, or equal and later in input order. A
// candidate that failed, or whose price is ImpossibleBits, is out; one
// the search compressed loses by its measured size; any other by its
// Exact or LowerBound price or, behind a heuristic price, by its floor
// taken the way the exhaustive search takes it, the column at hand for
// Curvature. What the search already learned is checked first, so a
// floor is computed only once nothing cheaper can fail the
// certificate, and the first candidate its floor leaves open ends it.
func (a *Analyzer) certify(rank []RankEntry, best int, st *BlockStats, src []int64) bool {
	bits := rank[best].Eval.Bits
	loses := func(size uint64, idx int) bool { return size > bits || size == bits && idx > best }
	// known settles idx on what the search learned, or says whether a
	// floor could still settle it.
	known := func(idx int) (settled, floorable bool) {
		e := &rank[idx]
		switch {
		case idx == best || e.Err != nil || e.EstBits == ImpossibleBits:
			return true, false
		case e.Trialed:
			return loses(e.Eval.Bits, idx), false
		case e.EstBound != Heuristic:
			return loses(e.EstBits, idx), false
		}
		_, ok := a.Candidates[idx].Scheme.(SizeFloorer)
		return e.EstFloor != 0 && loses(e.EstFloor, idx), ok && st != nil
	}
	for idx := range rank {
		if settled, floorable := known(idx); !settled && !floorable {
			return false
		}
	}
	var fst *BlockStats
	for idx := range rank {
		if settled, _ := known(idx); settled {
			continue
		}
		if fst == nil {
			fst = withColumn(st, src)
		}
		e := &rank[idx]
		e.EstFloor = a.Candidates[idx].Scheme.(SizeFloorer).SizeFloor(fst, nil)
		if !loses(e.EstFloor, idx) {
			return false
		}
	}
	return true
}

// shortlist sorts order by ascending price — unpriced candidates
// first, since only compressing them can consider them at all — and
// returns how many leading entries the default search admits: the
// unpriced, the k smallest prices (DefaultTrialK when k is unset), and
// the smallest Exact price, whose size is certain, so the winner can
// never be worse than the best provable size.
func shortlist(order []int, rank []RankEntry, k int) int {
	if k <= 0 {
		k = DefaultTrialK
	}
	// An unpriced candidate's EstBits is 0, below every real price.
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(rank[x].EstBits, rank[y].EstBits) })
	short, bestExact := 0, -1
	for p, idx := range order {
		e := &rank[idx]
		if e.EstBits == ImpossibleBits {
			break // sorted last
		}
		if e.EstBits != 0 {
			if e.EstBound == Exact && bestExact < 0 {
				bestExact = p
			}
			if k--; k < 0 {
				continue
			}
		}
		short++
	}
	if bestExact >= short {
		idx := order[bestExact]
		copy(order[short+1:bestExact+1], order[short:bestExact])
		order[short] = idx
		short++
	}
	return max(short, 1)
}

// Best searches the candidates and returns the winner: the smallest
// encoding within the cost budget among the shortlist (every
// candidate under Exhaustive), compressed over the full column.
func (a *Analyzer) Best(src []int64) (*Choice, error) {
	n := len(a.Candidates)
	if n == 0 {
		return nil, ErrNoCandidate
	}
	sample := src
	if a.SampleSize > 0 && len(src) > a.SampleSize {
		sample = src[:a.SampleSize]
	}
	// Prices are of what the search compares: the whole column, or,
	// over a strict-prefix sample, the sample — whose sizes decide the
	// winner there, so that is what the shortlist must rank. A
	// sample's prices prove nothing about the column, so Exhaustive,
	// which does not rank, has no use for them.
	whole := len(sample) == len(src)
	choice := &Choice{Ranking: make([]RankEntry, n)}
	rank := choice.Ranking
	for i := range a.Candidates {
		rank[i].Desc = a.Candidates[i].Desc
	}
	var st *BlockStats
	var local BlockStats
	if whole || !a.Exhaustive {
		given := a.Stats
		if !whole {
			given = nil // the caller's stats are the column's
		}
		if st = a.price(rank, given, sample, &local); st == &local {
			defer local.ReleaseSeg(a.Scratch)
		}
	}

	// order is the candidates in preference order — input order under
	// Exhaustive, price order otherwise — and pos each candidate's
	// place in it, which breaks ties between equal sizes. The first
	// short entries are the shortlist.
	both := make([]int, 2*n)
	order, pos := both[:n], both[n:]
	for i := range order {
		order[i] = i
	}
	short := n
	if !a.Exhaustive {
		short = shortlist(order, rank, a.TrialK)
	}
	for p, idx := range order {
		pos[idx] = p
	}

	// Visit the shortlist in ascending order of the size each candidate
	// is proved unable to undercut — what its price proves or, for a
	// heuristic price, its floor; nothing, in a sampled search —
	// compressing one only while that bound can still beat the
	// incumbent. The winner has the smallest bound that is also a size,
	// so everything it beats is passed over unvisited and an Exact
	// price is compressed only to produce the winning form. Past the
	// shortlist the search continues, in preference order, only until
	// some candidate is admissible.
	if whole && st != nil {
		a.floor(rank, order[:short], st, src)
	}
	bound := func(idx int) uint64 {
		if e := &rank[idx]; whole && e.EstBound != Heuristic {
			return e.EstBits
		}
		return rank[idx].EstFloor
	}
	slices.SortStableFunc(order[:short], func(x, y int) int { return cmp.Compare(bound(x), bound(y)) })
	bestIdx := -1
	var bestBits uint64
	var bestTrialForm *Form
	beats := func(bits uint64, idx int) bool {
		return bestIdx < 0 || bits < bestBits || bits == bestBits && pos[idx] < pos[bestIdx]
	}
	for v, idx := range order {
		if v >= short && bestIdx >= 0 {
			break
		}
		e := &rank[idx]
		if e.EstBits == ImpossibleBits {
			e.Err = errProvedImpossible
			continue
		}
		if !beats(bound(idx), idx) {
			continue
		}
		f, err := a.compressCand(&a.Candidates[idx], sample)
		if err != nil {
			e.Err = err
			continue
		}
		ev, err := Evaluate(f)
		if err != nil {
			e.Err = err
			continue
		}
		e.Eval = ev
		e.Trialed = true
		if a.CostBudget > 0 && len(sample) > 0 && ev.Cost/float64(len(sample)) > a.CostBudget {
			continue
		}
		if beats(ev.Bits, idx) {
			bestIdx, bestBits, bestTrialForm = idx, ev.Bits, f
		}
	}
	if bestIdx < 0 {
		return nil, ErrNoCandidate
	}

	// Produce the winner's full-column form. When the sample covered
	// the whole column the winning trial form is the final form — no
	// second compression — and the search may certify it. A winner
	// that fails on the full column falls back down the
	// already-computed ranking instead of re-running the search.
	if whole {
		choice.Desc = a.Candidates[bestIdx].Desc
		choice.Form = bestTrialForm
		choice.Eval = choice.Ranking[bestIdx].Eval
		choice.Certified = a.Exhaustive || a.CostBudget == 0 && a.certify(rank, bestIdx, st, src)
		return choice, nil
	}
	for _, idx := range a.fallbackOrder(choice, bestIdx, order) {
		e := &choice.Ranking[idx]
		full, err := a.compressCand(&a.Candidates[idx], src)
		if err != nil {
			if e.Err == nil {
				e.Err = err
			}
			continue
		}
		ev, err := Evaluate(full)
		if err != nil {
			if e.Err == nil {
				e.Err = err
			}
			continue
		}
		if a.CostBudget > 0 && len(src) > 0 && ev.Cost/float64(len(src)) > a.CostBudget {
			continue
		}
		choice.Desc = a.Candidates[idx].Desc
		choice.Form = full
		choice.Eval = ev
		return choice, nil
	}
	return nil, fmt.Errorf("core: winning candidate %q failed on full column: %w",
		a.Candidates[bestIdx].Desc, ErrNoCandidate)
}

// fallbackOrder returns candidate indices in the order the
// full-column encode should try them: the winner first, then the
// remaining admissible trialed candidates by ascending sample size,
// then never-trialed candidates in estimate order.
func (a *Analyzer) fallbackOrder(choice *Choice, bestIdx int, order []int) []int {
	out := make([]int, 0, len(order))
	out = append(out, bestIdx)
	trialed := make([]int, 0, len(order))
	for _, idx := range order {
		e := &choice.Ranking[idx]
		if idx == bestIdx || !e.Trialed {
			continue
		}
		trialed = append(trialed, idx)
	}
	sort.SliceStable(trialed, func(x, y int) bool {
		return choice.Ranking[trialed[x]].Eval.Bits < choice.Ranking[trialed[y]].Eval.Bits
	})
	out = append(out, trialed...)
	for _, idx := range order {
		e := &choice.Ranking[idx]
		if idx == bestIdx || e.Trialed || e.Err != nil || e.EstBits == ImpossibleBits {
			continue
		}
		out = append(out, idx)
	}
	return out
}
