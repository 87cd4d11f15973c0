package scheme

import (
	"sort"
	"strings"
	"testing"

	"lwcomp/internal/core"
	"lwcomp/internal/exec"
	"lwcomp/internal/vec"
	"lwcomp/internal/workload"
)

// TestPlanTreeComposite verifies that a composite form decompresses
// as ONE flat operator plan: the paper's §I composition becomes
// Algorithm 1 with a prefix sum grafted in place of the values input.
func TestPlanTreeComposite(t *testing.T) {
	dates := workload.OrderShipDates(5000, 40, 730120, 11)
	form, err := RLEDeltaComposite().Compress(dates)
	if err != nil {
		t.Fatal(err)
	}
	plan, env, err := core.PlanTree(form)
	if err != nil {
		t.Fatal(err)
	}
	// Inputs: the NS leaves only, with dotted paths for the nested
	// one.
	inputs := plan.Inputs()
	sort.Strings(inputs)
	if len(inputs) != 2 || inputs[0] != "lengths" || inputs[1] != "values.deltas" {
		t.Fatalf("tree plan inputs = %v", inputs)
	}
	// The grafted plan has one more prefix sum than Algorithm 1
	// alone (the DELTA integration).
	prefixSums := 0
	for _, n := range plan.Nodes {
		if n.Op == exec.OpPrefixSumInc {
			prefixSums++
		}
	}
	if prefixSums != 3 { // delta integration + Algorithm 1's two
		t.Fatalf("prefix sums in tree plan = %d, want 3\n%s", prefixSums, plan)
	}
	out, err := exec.Run(plan, env)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(out, dates) {
		t.Fatal("tree plan output differs")
	}
}

// TestDecompressViaTreePlanMatchesKernel checks tree-plan
// decompression (fused and literal) across nested forms.
func TestDecompressViaTreePlanMatchesKernel(t *testing.T) {
	dates := workload.OrderShipDates(3000, 30, 730120, 12)
	walk := workload.RandomWalk(3000, 9, 1<<20, 13)

	cases := []struct {
		name string
		s    core.Scheme
		data []int64
	}{
		{"rle-delta", RLEDeltaComposite(), dates},
		{"rle-ns", RLEComposite(), dates},
		{"rpe-ns", RPEComposite(), dates},
		{"for-ns", FORComposite(128), walk},
		{"dict-rle", core.Compose(Dict{}, map[string]core.Scheme{
			"codes": core.Compose(RLE{}, map[string]core.Scheme{"lengths": NS{}, "values": NS{}}),
			"dict":  NS{},
		}), dates},
		{"mres-step", StepNS(128), walk},
		{"pfor", PFORComposite(128), walk},
	}
	for _, tc := range cases {
		form, err := tc.s.Compress(tc.data)
		if err != nil {
			t.Fatalf("%s: compress: %v", tc.name, err)
		}
		want, err := core.Decompress(form)
		if err != nil {
			t.Fatalf("%s: kernel: %v", tc.name, err)
		}
		for _, fuse := range []bool{false, true} {
			got, err := core.DecompressViaTreePlan(form, fuse)
			if err != nil {
				t.Fatalf("%s (fuse=%v): %v", tc.name, fuse, err)
			}
			if !vec.Equal(got, want) {
				t.Fatalf("%s (fuse=%v): tree plan differs from kernel", tc.name, fuse)
			}
		}
	}
}

// TestPlanTreeDictRLEShape pins the inlined shape for a two-level
// composition: dict over RLE-compressed codes becomes run expansion
// feeding a gather.
func TestPlanTreeDictRLEShape(t *testing.T) {
	data := []int64{100, 100, 100, 200, 200, 300}
	s := core.Compose(Dict{}, map[string]core.Scheme{
		"codes": RLE{},
	})
	form, err := s.Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	plan, env, err := core.PlanTree(form)
	if err != nil {
		t.Fatal(err)
	}
	inputs := plan.Inputs()
	sort.Strings(inputs)
	want := []string{"codes.lengths", "codes.values", "dict"}
	if strings.Join(inputs, ",") != strings.Join(want, ",") {
		t.Fatalf("inputs = %v, want %v", inputs, want)
	}
	out, err := exec.Run(exec.Fuse(plan), env)
	if err != nil || !vec.Equal(out, data) {
		t.Fatalf("dict-over-rle tree plan: %v", err)
	}
}

func TestPlanTreeErrorsOnPlanlessRoot(t *testing.T) {
	form, err := NS{}.Compress([]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.PlanTree(form); err == nil {
		t.Fatal("NS root accepted by PlanTree")
	}
}

func TestInlineErrors(t *testing.T) {
	b := exec.NewBuilder()
	x := b.Input("x")
	b.PrefixSumInc(x)
	outer, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	b2 := exec.NewBuilder()
	y := b2.Input("y")
	b2.Delta(y)
	inner, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Inline(outer, "nope", inner, "p."); err == nil {
		t.Fatal("missing input name accepted")
	}
	merged, err := exec.Inline(outer, "x", inner, "p.")
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Run(merged, map[string][]int64{"p.y": {1, 3, 6}})
	if err != nil {
		t.Fatal(err)
	}
	// Delta then prefix-sum: identity.
	if !vec.Equal(got, []int64{1, 3, 6}) {
		t.Fatalf("inline identity = %v", got)
	}
}
