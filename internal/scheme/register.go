package scheme

import (
	"fmt"
	"hash/fnv"
	"sync"

	"lwcomp/internal/core"
)

// All registered schemes, in registration order. Registration happens
// in init (the database/sql driver convention): importing this
// package makes every scheme resolvable by name, which the recursive
// Decompress dispatcher requires.
func init() {
	core.Register(ID{})
	core.Register(Const{})
	core.Register(NS{})
	core.Register(Varint{})
	core.Register(Elias{})
	core.Register(VNS{})
	core.Register(Delta{})
	core.Register(RLE{})
	core.Register(RPE{})
	core.Register(FOR{})
	core.Register(Step{})
	core.Register(Linear{})
	core.Register(Plus{})
	core.Register(Patch{})
	core.Register(Dict{})
	core.Register(Poly2{})
}

// Compile-time checks of the compress contract: a scheme that stopped
// matching it would still compress, but off the pooled route and with
// constituents no Composite could reach. The models are checked
// against the one interface Plus and Patch fit through.
var (
	_ core.ConstituentCompressor = NS{}
	_ core.ConstituentCompressor = VNS{}
	_ core.ConstituentCompressor = FOR{}
	_ core.ConstituentCompressor = RLE{}
	_ core.ConstituentCompressor = RPE{}
	_ core.ConstituentCompressor = Delta{}
	_ core.ConstituentCompressor = Dict{}
	_ core.ConstituentCompressor = Plus{}
	_ core.ConstituentCompressor = Patch{}
	_ core.ConstituentCompressor = Step{}
	_ core.ConstituentCompressor = Linear{}
	_ core.ConstituentCompressor = Poly2{}

	_ Model = Step{}
	_ Model = Linear{}
	_ Model = Poly2{}
)

// NSLeaf is the conventional terminal compressor for constituent
// columns.
var NSLeaf core.Scheme = NS{}

// RLEComposite returns the standard practical RLE pipeline: RLE with
// both constituent columns null-suppressed.
func RLEComposite() core.Scheme {
	return core.Compose(RLE{}, map[string]core.Scheme{
		"lengths": NS{},
		"values":  NS{},
	})
}

// RLEDeltaComposite returns the paper's §I motivating composition:
// RLE over the column, DELTA over the run values, NS at the leaves.
func RLEDeltaComposite() core.Scheme {
	return core.Compose(RLE{}, map[string]core.Scheme{
		"lengths": NS{},
		"values": core.Compose(Delta{}, map[string]core.Scheme{
			"deltas": NS{},
		}),
	})
}

// RPEComposite returns RPE with NS'd constituent columns.
func RPEComposite() core.Scheme {
	return core.Compose(RPE{}, map[string]core.Scheme{
		"positions": NS{},
		"values":    NS{},
	})
}

// DeltaNS returns DELTA with NS'd deltas.
func DeltaNS() core.Scheme {
	return core.Compose(Delta{}, map[string]core.Scheme{"deltas": NS{}})
}

// FORComposite returns FOR at the given segment length with NS'd
// refs and offsets.
func FORComposite(segLen int) core.Scheme {
	return core.Compose(FOR{SegLen: segLen}, map[string]core.Scheme{
		"refs":    NS{},
		"offsets": NS{},
	})
}

// FORVNSComposite returns FOR with variable-width (mini-block NS)
// offsets — the paper's variable-width extension applied to FOR.
func FORVNSComposite(segLen, block int) core.Scheme {
	return core.Compose(FOR{SegLen: segLen}, map[string]core.Scheme{
		"refs":    NS{},
		"offsets": VNS{Block: block},
	})
}

// DictComposite returns DICT with NS'd codes.
func DictComposite() core.Scheme {
	return core.Compose(Dict{}, map[string]core.Scheme{
		"codes": NS{},
		"dict":  NS{},
	})
}

// PFORComposite returns patched FOR at the given segment length — the
// paper's L0 extension applied to FOR, recovering the classical PFOR
// family as the composition Patch ∘ FOR: exceptions are split off a
// step model, and the patched column is FOR with NS refs and offsets.
func PFORComposite(segLen int) core.Scheme {
	return core.Compose(Patch{Model: Step{SegLen: segLen}}, map[string]core.Scheme{
		"base": FORComposite(segLen),
	})
}

// StepNS returns the step-function model with NS residuals —
// value-equivalent to FOR by the paper's identity FOR ≡ STEP + NS.
func StepNS(segLen int) core.Scheme { return modelNS(Step{SegLen: segLen}) }

// LinearNS returns the piecewise-linear model with NS residuals at
// the given segment length.
func LinearNS(segLen int) core.Scheme { return modelNS(Linear{SegLen: segLen}) }

// Poly2NS returns the piecewise-quadratic model with NS residuals —
// the paper's "stepwise low-degree polynomials" enrichment.
func Poly2NS(segLen int) core.Scheme { return modelNS(Poly2{SegLen: segLen}) }

// PatchedLinearNS returns patched diagonal lines — the paper's L0 and
// L∞ extensions composed, a scheme it implies but names nowhere:
// exceptions are split off a linear model, and the patched column is
// refitted as LinearNS.
func PatchedLinearNS(segLen int) core.Scheme {
	return core.Compose(Patch{Model: Linear{SegLen: segLen}}, map[string]core.Scheme{
		"base": LinearNS(segLen),
	})
}

// modelNS returns Plus over the model with NS residuals.
func modelNS(m Model) core.Scheme {
	return core.Compose(Plus{Model: m}, map[string]core.Scheme{"residual": NS{}})
}

// DefaultCandidates returns the composite-scheme space the analyzer
// searches for a column with the given statistics. The list is
// stats-pruned: candidates that cannot possibly win (RLE on run-free
// data, DICT on near-unique data) are omitted so analysis stays
// cheap, which is how a practical optimizer would consume the paper's
// richer scheme space. Every returned candidate carries its scheme,
// so the analyzer can price it from the stats (core.SizeEstimator)
// and compress only the candidates whose price leaves the outcome
// open.
func DefaultCandidates(st *core.BlockStats) []core.Candidate {
	cands := []core.Candidate{
		core.FromScheme(NS{}),
		core.FromScheme(Varint{}),
		core.FromScheme(Elias{}),
		core.FromScheme(VNS{}),
		core.FromScheme(DeltaNS()),
		core.FromScheme(FORComposite(128)),
		core.FromScheme(FORComposite(1024)),
		core.FromScheme(PFORComposite(1024)),
		core.FromScheme(LinearNS(1024)),
	}
	if st.N > 0 && st.Runs == 1 {
		// Constant column: CONST wins outright.
		cands = append([]core.Candidate{core.FromScheme(Const{})}, cands...)
	}
	if st.AvgRunLength() >= 2 {
		cands = append(cands,
			core.FromScheme(RLEComposite()),
			core.FromScheme(RLEDeltaComposite()),
			core.FromScheme(RPEComposite()),
		)
	}
	if !st.DistinctSaturated() && st.Distinct <= st.N/4 {
		cands = append(cands, core.FromScheme(DictComposite()))
		if st.AvgRunLength() >= 1.15 {
			// RLE over the code column can only pay when the values
			// (and hence the codes) actually run: break-even sits at
			// 1 + lengthsWidth/codeWidth ≈ 1.15 for wide code
			// columns. The gate only trims run-free data, where the
			// trial would be pure waste; near the break-even the
			// estimate ranking decides.
			cands = append(cands, core.FromScheme(core.Compose(Dict{}, map[string]core.Scheme{
				"codes": core.Compose(RLE{}, map[string]core.Scheme{
					"lengths": NS{},
					"values":  NS{},
				}),
				"dict": NS{},
			})))
		}
	}
	return cands
}

// searchRevision is hashed into SearchFingerprint beside the candidate
// descriptions. Bump it whenever a default candidate's compressed
// output can change under an unchanged Desc (a new width policy, a
// different model fit), so blocks certified by the old code stop
// matching the new search.
const searchRevision = 3

// SearchFingerprint identifies the search a block certificate vouches
// for (blocked.Block.Certificate): a 32-bit FNV-1a hash over
// searchRevision and the Desc of every candidate DefaultCandidates can
// return, in order, with every stats gate open. Adding, removing or
// reordering a candidate changes it — the search breaks ties by input
// order — and so does a searchRevision bump. It is never
// 0, which means "not certified".
func SearchFingerprint() uint32 { return searchFingerprint() }

var searchFingerprint = sync.OnceValue(func() uint32 {
	h := fnv.New32a()
	fmt.Fprintf(h, "revision %d\n", searchRevision)
	for _, c := range everyCandidate() {
		fmt.Fprintln(h, c.Desc)
	}
	return max(h.Sum32(), 1)
})

// everyCandidate is DefaultCandidates with every stats gate open: one
// run of a repeated value admits CONST, the RLE family and both
// dictionaries.
func everyCandidate() []core.Candidate {
	return DefaultCandidates(&core.BlockStats{N: 4, Runs: 1, Distinct: 1})
}
