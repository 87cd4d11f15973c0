package scheme

import (
	"strings"
	"testing"
	"testing/quick"

	"lwcomp/internal/core"
	"lwcomp/internal/exec"
	"lwcomp/internal/vec"
)

// planners lists every scheme whose decompression is expressible as
// an operator plan, with a compressor that produces a non-trivial
// form for the given source.
func planners() map[string]core.Scheme {
	return map[string]core.Scheme{
		"delta": Delta{},
		"rle":   RLE{},
		"rpe":   RPE{},
		"for":   FOR{SegLen: 16},
		"dict":  Dict{},
	}
}

// TestPlanMatchesKernel is the paper's central check: the operator
// plan (Algorithms 1 and 2 and their relatives) must reproduce the
// fused kernel's output bit for bit, with and without idiom fusion.
func TestPlanMatchesKernel(t *testing.T) {
	for colName, col := range testColumns() {
		if len(col) == 0 {
			continue // Algorithm 1's Last(·) is undefined on empty inputs
		}
		for schemeName, s := range planners() {
			f, err := s.Compress(col)
			if err != nil {
				t.Fatalf("%s on %s: compress: %v", schemeName, colName, err)
			}
			kernel, err := core.Decompress(f)
			if err != nil {
				t.Fatalf("%s on %s: kernel: %v", schemeName, colName, err)
			}
			plain, err := core.DecompressViaPlan(f, false)
			if err != nil {
				t.Fatalf("%s on %s: plan: %v", schemeName, colName, err)
			}
			if !vec.Equal(plain, kernel) {
				t.Errorf("%s on %s: plan differs from kernel", schemeName, colName)
			}
			fused, err := core.DecompressViaPlan(f, true)
			if err != nil {
				t.Fatalf("%s on %s: fused plan: %v", schemeName, colName, err)
			}
			if !vec.Equal(fused, kernel) {
				t.Errorf("%s on %s: fused plan differs from kernel", schemeName, colName)
			}
		}
	}
}

func TestPlanMatchesKernelProperty(t *testing.T) {
	s := RLE{}
	check := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		src := make([]int64, len(raw))
		for i, r := range raw {
			src[i] = int64(r % 5)
		}
		f, err := s.Compress(src)
		if err != nil {
			return false
		}
		kernel, err := core.Decompress(f)
		if err != nil {
			return false
		}
		plan, err := core.DecompressViaPlan(f, false)
		if err != nil {
			return false
		}
		return vec.Equal(kernel, plan)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestRLEPlanShape pins the plan to Algorithm 1's operator sequence.
func TestRLEPlanShape(t *testing.T) {
	f, err := RLE{}.Compress([]int64{1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := RLE{}.Plan(f)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []exec.OpKind
	for _, n := range plan.Nodes {
		kinds = append(kinds, n.Op)
	}
	want := []exec.OpKind{
		exec.OpInput, exec.OpInput,
		exec.OpPrefixSumInc, // 1: run_positions
		exec.OpLast,         // 2: n
		exec.OpPopBack,      // 3
		exec.OpConstScalar, exec.OpLen,
		exec.OpConstantCol,  // 4: ones
		exec.OpScatter,      // 5+6
		exec.OpPrefixSumInc, // 7
		exec.OpGather,       // 8
	}
	if len(kinds) != len(want) {
		t.Fatalf("plan has %d nodes, want %d:\n%s", len(kinds), len(want), plan)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("node %d = %s, want %s", i, kinds[i], want[i])
		}
	}
}

// TestRPEPlanIsRLEPlanSansFirstOp verifies the paper's definition:
// RPE's plan is Algorithm 1 minus its first operation (the prefix sum
// over lengths).
func TestRPEPlanIsRLEPlanSansFirstOp(t *testing.T) {
	src := []int64{3, 3, 3, 8, 8}
	rleForm, err := RLE{}.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	rpeForm, err := RPE{}.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	rlePlan, err := RLE{}.Plan(rleForm)
	if err != nil {
		t.Fatal(err)
	}
	rpePlan, err := RPE{}.Plan(rpeForm)
	if err != nil {
		t.Fatal(err)
	}
	countPrefix := func(p *exec.Plan) int {
		c := 0
		for _, n := range p.Nodes {
			if n.Op == exec.OpPrefixSumInc {
				c++
			}
		}
		return c
	}
	if countPrefix(rlePlan) != 2 || countPrefix(rpePlan) != 1 {
		t.Fatalf("prefix sums: rle %d (want 2), rpe %d (want 1)", countPrefix(rlePlan), countPrefix(rpePlan))
	}
	if len(rpePlan.Nodes) != len(rlePlan.Nodes)-1 {
		t.Fatalf("rpe plan should be one op shorter: rle %d, rpe %d", len(rlePlan.Nodes), len(rpePlan.Nodes))
	}
}

// TestStepPlanIsFORPlanSansAddition verifies the other decomposition
// direction: STEP's plan is Algorithm 2 with the final addition
// dropped.
func TestStepPlanIsFORPlanSansAddition(t *testing.T) {
	src := []int64{4, 4, 9, 9}
	stepForm, err := Step{SegLen: 2}.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Step{SegLen: 2}.Plan(stepForm)
	if err != nil {
		t.Fatal(err)
	}
	last := plan.Nodes[len(plan.Nodes)-1]
	if last.Op != exec.OpGather {
		t.Fatalf("step plan ends in %s, want Gather", last.Op)
	}
	out, err := core.DecompressViaPlan(stepForm, false)
	if err != nil || !vec.Equal(out, src) {
		t.Fatalf("step plan output = %v, %v", out, err)
	}
	// And fused.
	out, err = core.DecompressViaPlan(stepForm, true)
	if err != nil || !vec.Equal(out, src) {
		t.Fatalf("fused step plan output = %v, %v", out, err)
	}
}

// TestPlusAndPatchPlans covers the combinator schemes' plans.
func TestPlusAndPatchPlans(t *testing.T) {
	src := []int64{10, 20, 30, 40, 41, 43}
	f, err := StepNS(3).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.DecompressViaPlan(f, false)
	if err != nil || !vec.Equal(got, src) {
		t.Fatalf("plus plan = %v, %v", got, err)
	}

	pf, err := PFORComposite(3).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err = core.DecompressViaPlan(pf, false)
	if err != nil || !vec.Equal(got, src) {
		t.Fatalf("patch plan = %v, %v", got, err)
	}
}

// TestFusionReducesOps measures that fusion strictly reduces the node
// count for both paper algorithms (the EXP-B/EXP-D ablation hinges on
// this).
func TestFusionReducesOps(t *testing.T) {
	src := make([]int64, 256)
	for i := range src {
		src[i] = int64(i / 7)
	}
	for _, s := range []core.Scheme{RLE{}, FOR{SegLen: 32}} {
		f, err := s.Compress(src)
		if err != nil {
			t.Fatal(err)
		}
		plan, _, err := core.PlanOf(f)
		if err != nil {
			t.Fatal(err)
		}
		fused := exec.Fuse(plan)
		if len(fused.Nodes) >= len(plan.Nodes) {
			t.Errorf("%s: fusion %d -> %d nodes", s.Name(), len(plan.Nodes), len(fused.Nodes))
		}
	}
}

// TestFuseRecognizesIotaVariant checks the Algorithm 2 idiom matcher
// on the Iota spelling of the id column (engines may build 0..n−1
// either way).
func TestFuseRecognizesIotaVariant(t *testing.T) {
	b := exec.NewBuilder()
	offsets := b.Input("offsets")
	refs := b.Input("refs")
	zero := b.ConstScalar(0)
	n := b.Len(offsets)
	id := b.Iota(zero, n)
	ell := b.ConstScalar(4)
	ells := b.ConstantCol(ell, n)
	segIdx := b.Elementwise(3 /* Div */, id, ells)
	repl := b.Gather(refs, segIdx)
	b.Elementwise(0 /* Add */, repl, offsets)
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fused := exec.Fuse(plan)
	found := false
	for _, nd := range fused.Nodes {
		if nd.Op == exec.OpFusedReplicateSegments {
			found = true
		}
	}
	if !found {
		t.Fatalf("Iota idiom not fused:\n%s", fused)
	}
	env := map[string][]int64{
		"refs":    {100, 200},
		"offsets": {1, 2, 3, 4, 5, 6, 7, 8},
	}
	want, err := exec.Run(plan, env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Run(fused, env)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("fused Iota variant differs")
		}
	}
}

// TestPlanOnEmptyFormsErrorsCleanly pins down behavior at the n=0
// boundary: Algorithm 1 reads n from the last element of a prefix
// sum, which does not exist for an empty column — the plan must
// surface an error, never panic, while the kernels handle empty
// columns fine.
func TestPlanOnEmptyFormsErrorsCleanly(t *testing.T) {
	for _, s := range []core.Scheme{RLE{}, RPE{}} {
		f, err := s.Compress(nil)
		if err != nil {
			t.Fatalf("%s: compress: %v", s.Name(), err)
		}
		if got, err := core.Decompress(f); err != nil || len(got) != 0 {
			t.Fatalf("%s: kernel on empty: %v", s.Name(), err)
		}
		if _, err := core.DecompressViaPlan(f, false); err == nil {
			t.Fatalf("%s: plan on empty should error (Last of empty column)", s.Name())
		} else if strings.Contains(err.Error(), "panic") {
			t.Fatalf("%s: plan panicked", s.Name())
		}
	}
	// FOR's plan handles empty fine (Len of empty is 0).
	f, err := (FOR{SegLen: 4}).Compress(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := core.DecompressViaPlan(f, false); err != nil || len(got) != 0 {
		t.Fatalf("FOR plan on empty: %v", err)
	}
}
