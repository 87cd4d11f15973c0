// Package lwcomp is a compositional framework for lightweight
// columnar compression, reproducing Rozenberg, "Decomposing and
// Re-Composing Lightweight Compression Schemes — And Why It Matters"
// (ICDE 2018).
//
// The framework's view, following the paper: a compressed column is a
// tree of schemes over pure constituent columns (a Form); schemes
// compose by substituting a child column's form (Compose) and
// decompose by structural rewrites (DecomposeRLE, DecomposeFOR);
// decompression is an operator plan over the same columnar operators
// a query engine runs, so queries can execute directly on compressed
// forms (Sum, SelectRange, ApproxSum).
//
// # Quick start
//
//	dates := workloadOrYourData()
//	col, err := lwcomp.Encode(dates,             // the analyzer picks a composite
//	    lwcomp.WithBlockSize(1<<16))             // scheme per 64Ki-value block
//	...
//	back, err := col.Decompress()                // or query without decompressing:
//	total, err := col.Sum()
//	rows, err := col.SelectRange(lo, hi)         // skips blocks via [min,max] stats
//	fmt.Println(col.Describe())                  // which scheme won in which block
//
// Encode with no options compresses the whole column as one block —
// the original CompressBest behavior with a query handle around it.
// Every block's scheme is the smallest encoding the search finds;
// WithScheme pins one instead, WithParallelism bounds concurrent block
// encodes, and a streaming ColumnBuilder (Append/Flush) covers ingest.
// Containers written by WriteColumns carry a self-contained block
// index with per-block checksums (format v3), the one format every read
// path accepts; `lwc upgrade` converts a v1 or v2 container written by
// an older build.
//
// # On-disk columns
//
// Because every block is independently decodable, a container need
// not be read to be queried. OpenFile opens one by reading only the
// header and block index, then fetches, verifies and decodes
// individual block payloads at first touch:
//
//	col, err := lwcomp.OpenFile("dates.lwc",
//	    lwcomp.WithBlockCache(64<<20))   // LRU over verified, decoded blocks
//	defer col.Close()
//	v, err := col.PointLookup(1_000_000) // reads exactly one block
//
// OpenContainer is the multi-column variant, OpenReader the
// io.ReaderAt one; see open.go.
//
// The original free functions (Compress, CompressBest, Sum,
// SelectRange, ...) remain and are thin wrappers over a single-block
// Column.
//
// Individual schemes and explicit composition:
//
//	s := lwcomp.Compose(lwcomp.RLE(), map[string]lwcomp.Scheme{
//	    "lengths": lwcomp.NS(),
//	    "values":  lwcomp.Compose(lwcomp.Delta(), map[string]lwcomp.Scheme{"deltas": lwcomp.NS()}),
//	})
//	form, err := s.Compress(dates)
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// reproduction results.
package lwcomp

import (
	"lwcomp/internal/blocked"
	"lwcomp/internal/column"
	"lwcomp/internal/core"
	"lwcomp/internal/exec"
	"lwcomp/internal/query"
	"lwcomp/internal/scheme"
	"lwcomp/internal/storage"
)

// Form is a compressed column: a tree of schemes over pure
// constituent columns. See core.Form for field documentation.
type Form = core.Form

// Scheme is the compress/decompress contract of a (possibly
// composite) compression scheme. Values come from the constructors
// below, Compose and ParseScheme; Compress runs the same pooled
// compressor the blocked encoder does.
type Scheme = core.Scheme

// Params carries a form's scalar parameters.
type Params = core.Params

// Stats summarizes a column for scheme selection.
type Stats = column.Stats

// Choice reports the analyzer's selected scheme and ranking. Ranking
// holds one entry per candidate, in candidate order, and says how each
// size was established: a candidate the search compressed has Trialed
// set and its measured Bits; one it did not compress carries only its
// stats-predicted EstBits with what that prediction proves (EstBound)
// and, behind a BoundHeuristic price, the size its form is proved
// never to undercut (EstFloor). A skip always rests on a BoundExact or
// BoundLower price, or a floor, that already could not beat the
// winner, so the winner is the one compressing every candidate would
// pick: the smallest, the first in candidate order among equals. A
// candidate that failed, or whose EstBits is the impossible sentinel
// because the stats prove it cannot represent the column, carries an
// Err matching ErrNotRepresentable. On a column longer than 65536
// values the search runs over its first 65536, and Ranking describes
// that sample.
type Choice = core.Choice

// Bound says what a Choice ranking entry's EstBits proves about the
// size the candidate would compress to.
type Bound = core.Bound

// The bound kinds, weakest first.
const (
	// BoundHeuristic estimates prove nothing about the compressed
	// size; the search skips no candidate on one.
	BoundHeuristic = core.Heuristic
	// BoundLower estimates are never above the compressed size.
	BoundLower = core.LowerBound
	// BoundExact estimates equal the compressed size bit for bit.
	BoundExact = core.Exact
)

// Plan is an operator-plan decompression program.
type Plan = exec.Plan

// Interval is a certain enclosure of an approximate query result.
type Interval = query.Interval

// GradualSummer refines an approximate sum to exactness segment by
// segment.
type GradualSummer = query.GradualSummer

// Errors re-exported for errors.Is checks.
var (
	ErrUnknownScheme    = core.ErrUnknownScheme
	ErrNotRepresentable = core.ErrNotRepresentable
	ErrCorruptForm      = core.ErrCorruptForm
	ErrNoCandidate      = core.ErrNoCandidate
	// ErrCorrupt is returned for structurally invalid serialized
	// forms and containers; ErrChecksum when a container's CRC does
	// not match. Both are permanent: WithReadRetry never retries
	// them, and a block failing with either is quarantined on its
	// column.
	ErrCorrupt  = storage.ErrCorrupt
	ErrChecksum = storage.ErrChecksum
	// ErrQuarantined marks fetches of blocks that previously failed
	// permanently and were quarantined; the condemning error stays in
	// the chain. Degraded scans skip such blocks (see
	// WithDegradedScan); default scans surface this error.
	ErrQuarantined = blocked.ErrQuarantined
)

// Compress encodes src with the named registered scheme ("ns",
// "rle", "for", ...; see Schemes).
func Compress(schemeName string, src []int64) (*Form, error) {
	return core.Compress(schemeName, src)
}

// Decompress reconstructs the column of any form tree. The tree is
// validated before the output is sized from f.N, so a corrupt length
// is an error (ErrCorruptForm), not an allocation.
func Decompress(f *Form) ([]int64, error) { return core.Decompress(f) }

// DecompressViaPlan reconstructs the column by building and executing
// the scheme's columnar operator plan (the paper's Algorithms 1/2
// route) instead of the fused kernel. With fuse set, the engine may
// substitute recognized idioms (run expansion, segment replication).
func DecompressViaPlan(f *Form, fuse bool) ([]int64, error) {
	return core.DecompressViaPlan(f, fuse)
}

// PlanOf returns the operator plan of a plannable form along with the
// plan's input environment.
func PlanOf(f *Form) (*Plan, map[string][]int64, error) { return core.PlanOf(f) }

// PlanTree builds one flat operator plan for the whole form tree,
// inlining plannable children (their inputs appear as dotted paths
// like "values.deltas"); only physical leaves remain as inputs.
func PlanTree(f *Form) (*Plan, map[string][]int64, error) { return core.PlanTree(f) }

// DecompressViaTreePlan reconstructs the column by executing the
// whole-tree plan of PlanTree.
func DecompressViaTreePlan(f *Form, fuse bool) ([]int64, error) {
	return core.DecompressViaTreePlan(f, fuse)
}

// Compose builds outer ∘ inner: compress with outer, then compress
// the named constituent columns with the inner schemes.
func Compose(outer Scheme, inner map[string]Scheme) Scheme { return core.Compose(outer, inner) }

// Schemes returns the registered scheme names.
func Schemes() []string { return core.Schemes() }

// ParseScheme builds a (possibly composite) scheme from an expression
// in the syntax Form.Describe emits, e.g.
// "rle(lengths=ns, values=delta(deltas=vns[32]))".
func ParseScheme(expr string) (Scheme, error) { return scheme.Parse(expr) }

// Analyze computes column statistics in one pass.
func Analyze(src []int64) Stats { return column.Analyze(src) }

// CompressBest searches the default composite-scheme space for the
// smallest encoding of src and returns the winning form.
func CompressBest(src []int64) (*Form, error) {
	choice, err := CompressBestChoice(src)
	if err != nil {
		return nil, err
	}
	return choice.Form, nil
}

// CompressBestChoice is CompressBest returning the full analyzer
// report (winner, size, per-candidate ranking). It runs the search the
// blocked encoder runs on every block.
func CompressBestChoice(src []int64) (*Choice, error) {
	s := core.GetScratch()
	defer s.Release()
	choice, _, _, err := blocked.Search(src, s)
	return choice, err
}

// Basic schemes. Each returns a ready-to-use Scheme value.

// ID returns the identity (no-compression) scheme.
func ID() Scheme { return scheme.ID{} }

// NS returns null suppression (bit packing at minimal width).
func NS() Scheme { return scheme.NS{} }

// VNS returns variable-width NS with the given mini-block length
// (0 for the default).
func VNS(block int) Scheme { return scheme.VNS{Block: block} }

// Varint returns LEB128 variable-byte encoding.
func Varint() Scheme { return scheme.Varint{} }

// Elias returns Elias-delta bit-level variable-width encoding.
func Elias() Scheme { return scheme.Elias{} }

// Delta returns difference coding.
func Delta() Scheme { return scheme.Delta{} }

// RLE returns run-length encoding.
func RLE() Scheme { return scheme.RLE{} }

// RPE returns run-position encoding.
func RPE() Scheme { return scheme.RPE{} }

// FOR returns frame-of-reference with the given segment length
// (0 for the default).
func FOR(segLen int) Scheme { return scheme.FOR{SegLen: segLen} }

// Dict returns sorted-dictionary encoding.
func Dict() Scheme { return scheme.Dict{} }

// PFOR returns patched FOR (the L0 extension; Patch ∘ FOR).
func PFOR(segLen int) Scheme { return scheme.PFORComposite(segLen) }

// StepNS returns the step-function model with NS residuals —
// value-equivalent to FOR by the paper's identity.
func StepNS(segLen int) Scheme { return scheme.StepNS(segLen) }

// LinearNS returns the piecewise-linear model with NS residuals.
func LinearNS(segLen int) Scheme { return scheme.LinearNS(segLen) }

// Poly2NS returns the piecewise-quadratic model with NS residuals —
// the paper's "stepwise low-degree polynomials" enrichment.
func Poly2NS(segLen int) Scheme { return scheme.Poly2NS(segLen) }

// PatchedLinearNS returns the piecewise-linear model with NS
// residuals and L0 patches for outliers — the paper's L∞ and L0
// extensions composed.
func PatchedLinearNS(segLen int) Scheme { return scheme.PatchedLinearNS(segLen) }

// Convenience composites matching common practice.

// RLENS returns RLE with both constituent columns bit-packed.
func RLENS() Scheme { return scheme.RLEComposite() }

// RLEDeltaNS returns the paper's §I composition: RLE, DELTA on the
// run values, NS at the leaves.
func RLEDeltaNS() Scheme { return scheme.RLEDeltaComposite() }

// FORNS returns FOR with bit-packed refs and offsets.
func FORNS(segLen int) Scheme { return scheme.FORComposite(segLen) }

// DictNS returns DICT with bit-packed codes.
func DictNS() Scheme { return scheme.DictComposite() }

// Rewrites (the paper's decomposition identities).

// DecomposeRLE rewrites an RLE form as (ID, DELTA) ∘ RPE.
func DecomposeRLE(f *Form) (*Form, error) { return scheme.DecomposeRLE(f) }

// RecomposeRLE inverts DecomposeRLE.
func RecomposeRLE(f *Form) (*Form, error) { return scheme.RecomposeRLE(f) }

// PartialDecompressRLE materializes an RLE form's run positions,
// yielding an RPE form (larger, faster to decompress).
func PartialDecompressRLE(f *Form) (*Form, error) { return scheme.PartialDecompressRLE(f) }

// DecomposeFOR rewrites a FOR form as STEPFUNCTION + NS.
func DecomposeFOR(f *Form) (*Form, error) { return scheme.DecomposeFOR(f) }

// RecomposeFOR inverts DecomposeFOR.
func RecomposeFOR(f *Form) (*Form, error) { return scheme.RecomposeFOR(f) }

// Queries on compressed forms. Each free function is a thin wrapper
// over a single-block Column — the Column methods are the primary
// API; these remain for form-level use and backward compatibility.

// asColumn wraps a form as a stat-less single-block column; queries
// on it delegate straight to the form paths, so the wrappers cost
// one allocation and nothing else.
func asColumn(f *Form) (*Column, error) { return blocked.FromForm(f, false) }

// Sum returns the exact column sum, using the form's structure to
// avoid materialization where possible.
func Sum(f *Form) (int64, error) {
	c, err := asColumn(f)
	if err != nil {
		return 0, err
	}
	return c.Sum()
}

// CountRange counts elements in [lo, hi] with segment/run pruning.
func CountRange(f *Form, lo, hi int64) (int64, error) {
	c, err := asColumn(f)
	if err != nil {
		return 0, err
	}
	return c.CountRange(lo, hi)
}

// SelectRange returns the row positions of elements in [lo, hi].
func SelectRange(f *Form, lo, hi int64) ([]int64, error) {
	c, err := asColumn(f)
	if err != nil {
		return nil, err
	}
	return c.SelectRange(lo, hi)
}

// PointLookup returns one element by row position using the form's
// random-access structure.
func PointLookup(f *Form, row int64) (int64, error) {
	c, err := asColumn(f)
	if err != nil {
		return 0, err
	}
	return c.PointLookup(row)
}

// Min returns the exact column minimum using the form's structure
// (FOR refs, DICT dictionary, run values).
func Min(f *Form) (int64, error) {
	c, err := asColumn(f)
	if err != nil {
		return 0, err
	}
	return c.Min()
}

// Max returns the exact column maximum.
func Max(f *Form) (int64, error) {
	c, err := asColumn(f)
	if err != nil {
		return 0, err
	}
	return c.Max()
}

// DistinctCount returns the number of distinct values (O(1) on DICT
// and CONST forms).
func DistinctCount(f *Form) (int64, error) { return query.DistinctCount(f) }

// ApproxSum bounds the sum from the form's model part only.
func ApproxSum(f *Form) (Interval, error) { return query.ApproxSum(f) }

// NewGradualSummer prepares gradual-refinement summation over a FOR
// form.
func NewGradualSummer(f *Form) (*GradualSummer, error) { return query.NewGradualSummer(f) }

// Serialization.

// EncodeForm serializes a form tree to bytes.
func EncodeForm(f *Form) ([]byte, error) { return storage.EncodeForm(f) }

// DecodeForm deserializes a form tree; it returns the form and the
// bytes consumed.
func DecodeForm(data []byte) (*Form, int, error) { return storage.DecodeForm(data) }

// EncodedSize returns the exact serialized size of a form in bytes.
func EncodedSize(f *Form) (int, error) { return storage.EncodedSize(f) }
