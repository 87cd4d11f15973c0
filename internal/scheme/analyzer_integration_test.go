package scheme

import (
	"testing"

	"lwcomp/internal/column"
	"lwcomp/internal/core"
	"lwcomp/internal/vec"
)

// analyzeForTest wraps column.Analyze for use in this package's
// tests.
func analyzeForTest(src []int64) column.Stats { return column.Analyze(src) }

// statsForTest collects the hot-path block statistics the analyzer
// consumes.
func statsForTest(src []int64) *core.BlockStats {
	st := core.CollectStats(src, nil)
	return &st
}

// TestAnalyzerEndToEnd drives the core analyzer over the real
// candidate space on characteristic workloads and checks that the
// winner both round-trips and is at least as small as every
// single-scheme baseline — the paper's "richer view" claim in
// miniature.
func TestAnalyzerEndToEnd(t *testing.T) {
	workloads := map[string][]int64{}

	// Run-structured monotone dates.
	dates := make([]int64, 5000)
	d := int64(730000)
	for i := range dates {
		if i%37 == 0 {
			d++
		}
		dates[i] = d
	}
	workloads["dates"] = dates

	// Locally-varying walk.
	walk := make([]int64, 5000)
	w := int64(1 << 30)
	for i := range walk {
		w += int64((i*2654435761)%41) - 20
		walk[i] = w
	}
	workloads["walk"] = walk

	// Low cardinality.
	lowcard := make([]int64, 5000)
	for i := range lowcard {
		lowcard[i] = int64((i * 31) % 7)
	}
	workloads["lowcard"] = lowcard

	// Constant.
	constant := make([]int64, 1000)
	for i := range constant {
		constant[i] = 123456789
	}
	workloads["constant"] = constant

	for name, src := range workloads {
		stats := statsForTest(src)
		a := &core.Analyzer{Candidates: DefaultCandidates(stats), Stats: stats}
		choice, err := a.Best(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := core.Decompress(choice.Form)
		if err != nil || !vec.Equal(got, src) {
			t.Fatalf("%s: winner %q does not round-trip: %v", name, choice.Desc, err)
		}
		// Winner must not lose to the plain NS baseline.
		nsForm, err := NS{}.Compress(src)
		if err != nil {
			t.Fatal(err)
		}
		if choice.Form.PayloadBits() > nsForm.PayloadBits() {
			t.Fatalf("%s: winner %q (%d bits) loses to NS (%d bits)",
				name, choice.Desc, choice.Form.PayloadBits(), nsForm.PayloadBits())
		}
		t.Logf("%s: %s ratio %.1f", name, choice.Desc, float64(64*len(src))/float64(choice.Bits))
	}
}

func TestAnalyzerPicksConstForConstant(t *testing.T) {
	src := make([]int64, 512)
	stats := statsForTest(src)
	a := &core.Analyzer{Candidates: DefaultCandidates(stats), Stats: stats}
	choice, err := a.Best(src)
	if err != nil {
		t.Fatal(err)
	}
	if choice.Desc != ConstName {
		t.Fatalf("constant column winner = %q, want const", choice.Desc)
	}
}
