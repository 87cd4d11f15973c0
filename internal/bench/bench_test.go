package bench

import (
	"fmt"
	"strings"
	"testing"
)

// TestAllExperimentsRunSmall runs every registered experiment at a
// reduced scale and sanity-checks the produced tables. This is the
// integration test of the whole stack: workloads → schemes → algebra
// → queries → measurement.
func TestAllExperimentsRunSmall(t *testing.T) {
	cfg := Config{N: 1 << 14, Seed: 7, Reps: 1}
	exps := All()
	if len(exps) != 13 {
		t.Fatalf("registered %d experiments, want 13 (A..M)", len(exps))
	}
	for _, e := range exps {
		e := e
		t.Run("EXP-"+e.ID, func(t *testing.T) {
			table, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if table.ID != e.ID {
				t.Fatalf("table ID %q != experiment ID %q", table.ID, e.ID)
			}
			if len(table.Rows) == 0 {
				t.Fatal("empty table")
			}
			for _, row := range table.Rows {
				if len(row) != len(table.Headers) {
					t.Fatalf("row width %d != header width %d", len(row), len(table.Headers))
				}
			}
			out := table.Render()
			if !strings.Contains(out, "EXP-"+e.ID) || !strings.Contains(out, "Claim:") {
				t.Fatalf("render missing banner:\n%s", out)
			}
			// No experiment may report a violated identity or missed
			// interval.
			if strings.Contains(out, "VIOLATED") || strings.Contains(out, " NO\n") {
				t.Fatalf("experiment reports violated invariant:\n%s", out)
			}
		})
	}
}

func TestExperimentIDsAreOrdered(t *testing.T) {
	exps := All()
	want := []string{"A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K", "L", "M"}
	if len(exps) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(exps), len(want))
	}
	for i, e := range exps {
		if e.ID != want[i] {
			t.Fatalf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
	}
	if _, ok := ByID("A"); !ok {
		t.Fatal("ByID(A) missing")
	}
	if _, ok := ByID("N"); ok {
		t.Fatal("ByID(N) should not exist")
	}
}

func TestExpectedShapes(t *testing.T) {
	// EXP-A at a moderate size: the composite must beat every single
	// scheme at run length 256 clearly even at this reduced scale
	// (the full-scale ≥2× gap is recorded in EXPERIMENTS.md).
	cfg := Config{N: 1 << 16, Seed: 3, Reps: 1}
	table, err := runExpA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range table.Rows {
		if row[0] == "256" && strings.HasPrefix(row[1], "rle(delta+ns)") {
			found = true
			var gain float64
			if _, err := sscan(row[4], &gain); err != nil {
				t.Fatalf("parse gain %q: %v", row[4], err)
			}
			if gain < 1.5 {
				t.Fatalf("composite gain %.2f < 1.5 at run length 256", gain)
			}
		}
	}
	if !found {
		t.Fatal("composite row missing")
	}
}

// sscan parses a float cell.
func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}
