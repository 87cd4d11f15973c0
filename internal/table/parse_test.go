package table

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestParseSemantics parses predicates and checks the resulting trees
// against reference row filters on a small table — semantics, not
// syntax trees, are what the parser must get right.
func TestParseSemantics(t *testing.T) {
	const n = 4000
	names, data := testData(n)
	tbl, raw := buildTable(t, 512, names, data)
	date, status, amount := data[0], data[1], data[2]
	dMid := date[n/2]

	for _, tc := range []struct {
		src  string
		pred func(row int) bool
	}{
		{"status = 1", func(r int) bool { return status[r] == 1 }},
		{"status == 1", func(r int) bool { return status[r] == 1 }},
		{"status != 1", func(r int) bool { return status[r] != 1 }},
		{"date < 1000000", func(r int) bool { return date[r] < 1000000 }},
		{"date <= 1000000", func(r int) bool { return date[r] <= 1000000 }},
		{"amount > 0", func(r int) bool { return amount[r] > 0 }},
		{"amount >= 0", func(r int) bool { return amount[r] >= 0 }},
		{"status in (0, 2)", func(r int) bool { return status[r] == 0 || status[r] == 2 }},
		{"status in ()", func(int) bool { return false }},
		{"date >= " + itoa(dMid) + " and status = 1",
			func(r int) bool { return date[r] >= dMid && status[r] == 1 }},
		{"status = 0 or status = 3 and amount > 0", // and binds tighter
			func(r int) bool { return status[r] == 0 || (status[r] == 3 && amount[r] > 0) }},
		{"(status = 0 or status = 3) and amount > 0",
			func(r int) bool { return (status[r] == 0 || status[r] == 3) && amount[r] > 0 }},
		{"not status = 2", func(r int) bool { return status[r] != 2 }},
		{"not (status = 2 or amount < 0)", func(r int) bool { return !(status[r] == 2 || amount[r] < 0) }},
		{"NOT status = 2 AND amount > 0", // keywords are case-insensitive
			func(r int) bool { return status[r] != 2 && amount[r] > 0 }},
		{"amount > -100 and amount < 100",
			func(r int) bool { return amount[r] > -100 && amount[r] < 100 }},
		{"true", func(int) bool { return true }},
		{"FALSE or status = 1", func(r int) bool { return status[r] == 1 }},
		{"true and not false", func(int) bool { return true }},
	} {
		e, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.src, err)
		}
		checkScan(t, tbl, raw, "amount", e, tc.pred)

		// Round trip: the rendered form parses back to the same rows.
		back, err := Parse(e.String())
		if err != nil {
			t.Fatalf("Parse(String(%q) = %q): %v", tc.src, e.String(), err)
		}
		checkScan(t, tbl, raw, "amount", back, tc.pred)
		// ... and to the same tree: String is a fixed point of the trip.
		if back.String() != e.String() {
			t.Fatalf("Parse(%q) renders %q, which parses back as %q", tc.src, e.String(), back.String())
		}
	}

	// The empty combinators render as the true/false literals, which
	// must parse back (the round-trip identity for every constructed
	// expression, not just parser output).
	for _, e := range []Expr{And(), Or(), Not(And()), And(Or(), Eq("status", 1))} {
		if _, err := Parse(e.String()); err != nil {
			t.Fatalf("Parse(String() = %q): %v", e.String(), err)
		}
	}
}

// TestAndMergesSameColumnRanges pins And's folding of direct Range/Eq
// operands over one column into one leaf — the shape the fused
// count/sum leaf path and the one-fetch-per-block evaluation need —
// and that nothing else is folded.
func TestAndMergesSameColumnRanges(t *testing.T) {
	leaf := func(e Expr) *rangeNode {
		t.Helper()
		n, ok := e.(*rangeNode)
		if !ok {
			t.Fatalf("%q is a %T, want one range leaf", e, e)
		}
		return n
	}
	for _, tc := range []struct {
		e      Expr
		lo, hi int64
	}{
		{mustParse(t, "qty >= 10 and qty <= 20"), 10, 20},
		{mustParse(t, "qty > 10 and qty < 20 and qty >= 12"), 12, 19},
		{mustParse(t, Range("qty", 10, 20).String()), 10, 20}, // what Range renders is what it parses to
		{And(Range("qty", 10, 20), Eq("qty", 15)), 15, 15},
		{And(Range("qty", 10, 20)), 10, 20},
		{And(Range("qty", math.MinInt64, 5), Range("qty", math.MinInt64, math.MaxInt64)), math.MinInt64, 5},
	} {
		if n := leaf(tc.e); n.col != "qty" || n.lo != tc.lo || n.hi != tc.hi {
			t.Errorf("%q: leaf %s [%d, %d], want qty [%d, %d]", tc.e, n.col, n.lo, n.hi, tc.lo, tc.hi)
		}
	}
	// An empty intersection is the never-matching inverted range.
	if n := leaf(mustParse(t, "qty >= 20 and qty <= 10")); n.lo <= n.hi || n.String() != "qty in ()" {
		t.Errorf("empty intersection: [%d, %d] rendering %q", n.lo, n.hi, n)
	}
	if n := leaf(And(Eq("qty", 1), Eq("qty", 2))); n.lo <= n.hi {
		t.Errorf("qty = 1 and qty = 2: [%d, %d], want inverted", n.lo, n.hi)
	}

	// Same-column leaves fold across other operands and keep the first
	// one's position; other columns, In leaves and nested combinators
	// are left alone.
	for src, want := range map[string]string{
		"qty >= 10 and status = 1 and qty <= 20":   "(qty >= 10 and qty <= 20) and (status = 1)",
		"status = 1 and qty >= 10 and qty <= 20":   "(status = 1) and (qty >= 10 and qty <= 20)",
		"qty >= 10 and price <= 20":                "(qty >= 10) and (price <= 20)",
		"qty in (1, 2) and qty >= 2":               "(qty in (1, 2)) and (qty >= 2)",
		"(qty >= 10 and status = 1) and qty <= 20": "((qty >= 10) and (status = 1)) and (qty <= 20)",
		"not qty >= 10 and qty <= 20":              "(not (qty >= 10)) and (qty <= 20)",
		"qty >= 10 or qty <= 20":                   "(qty >= 10) or (qty <= 20)",
	} {
		if got := mustParse(t, src).String(); got != want {
			t.Errorf("Parse(%q) = %q, want %q", src, got, want)
		}
	}
	if _, isAnd := And().(*andNode); !isAnd {
		t.Errorf("And() is a %T, want the empty conjunction", And())
	}
}

func mustParse(t *testing.T, src string) Expr {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return e
}

func itoa(v int64) string {
	b := []byte{}
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

// TestParseErrors pins rejection of malformed inputs with positioned
// errors.
func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"and",
		"status =",
		"= 3",
		"status 3",
		"status ~ 3",
		"status = 3 extra",
		"(status = 3",
		"status in 3",
		"status in (3",
		"status in (3,)",
		"status = 99999999999999999999",
		"status = 3 and",
		"a = 1 $ b = 2",
	} {
		if _, err := Parse(src); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", src)
		} else if !strings.Contains(err.Error(), "parse predicate") {
			t.Fatalf("Parse(%q) error lacks context: %v", src, err)
		}
	}
}

// TestParseErrorPositions pins the structured ParseError fields: the
// byte offset and offending token a server surfaces in 400 bodies
// must point at the exact place the predicate broke.
func TestParseErrorPositions(t *testing.T) {
	for _, tc := range []struct {
		src    string
		offset int
		token  string
	}{
		{"", 0, ""},                                             // empty input: EOF at 0
		{"= 3", 0, "="},                                         // no column
		{"status =", 8, ""},                                     // value missing: EOF past the operator
		{"status ~ 3", 7, "~"},                                  // byte outside the language
		{"status = 3 extra", 11, "extra"},                       // trailing garbage
		{"(status = 3", 11, ""},                                 // unclosed paren: EOF
		{"status in 3", 10, "3"},                                // in-list needs '('
		{"status in (3,)", 13, ")"},                             // trailing comma
		{"a = 1 and b ! 2", 12, "!"},                            // lone '!' is not a known operator
		{"a = 1 and ! 2", 10, "!"},                              // operator where a column should be
		{"date >= 10 or $ = 1", 14, "$"},                        // bad byte mid-expression
		{"v = 99999999999999999999", 4, "99999999999999999999"}, // overflow
	} {
		_, err := Parse(tc.src)
		if err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", tc.src)
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("Parse(%q) error is %T, want *ParseError", tc.src, err)
		}
		if pe.Offset != tc.offset || pe.Token != tc.token {
			t.Fatalf("Parse(%q): offset %d token %q, want offset %d token %q",
				tc.src, pe.Offset, pe.Token, tc.offset, tc.token)
		}
		if tc.token != "" && !strings.Contains(err.Error(), tc.token) {
			t.Fatalf("Parse(%q) message %q omits the offending token", tc.src, err)
		}
	}
}

// TestParseExtremeLiterals covers the int64 boundary operators that
// must not overflow when translated to closed ranges.
func TestParseExtremeLiterals(t *testing.T) {
	names, data := testData(1000)
	tbl, raw := buildTable(t, 256, names, data)
	for _, tc := range []struct {
		src  string
		pred func(row int) bool
	}{
		{"amount < -9223372036854775808", func(int) bool { return false }},
		{"amount > 9223372036854775807", func(int) bool { return false }},
		{"amount >= -9223372036854775808", func(int) bool { return true }},
		{"amount <= 9223372036854775807", func(int) bool { return true }},
	} {
		e, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.src, err)
		}
		checkScan(t, tbl, raw, "amount", e, tc.pred)
	}
}

// TestParseDepthCap: "not" and parentheses nest at most MaxDepth deep.
// A 1,000,005-byte predicate of 500,000 nested parentheses is refused
// at the parenthesis one level too deep, quickly and without growing
// the stack by the input's length, while MaxDepth levels — every
// mixture of the two — still parse.
func TestParseDepthCap(t *testing.T) {
	const levels = 500000
	hostile := strings.Repeat("(", levels) + "a = 1" + strings.Repeat(")", levels)
	if len(hostile) != 1000005 {
		t.Fatalf("hostile predicate is %d bytes", len(hostile))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	done := make(chan error)
	go func() { _, err := Parse(hostile); done <- err }()
	err := <-done
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Offset != MaxDepth || pe.Token != "(" {
		t.Fatalf("Parse(500,000 parentheses) = %v, want a ParseError at offset %d", err, MaxDepth)
	}
	if elapsed > time.Second {
		t.Errorf("refusing took %v", elapsed)
	}
	if grew := int64(after.StackInuse) - int64(before.StackInuse); grew > 1<<20 {
		t.Errorf("stack in use grew by %d bytes", grew)
	}

	for _, src := range []string{
		strings.Repeat("(", MaxDepth) + "a = 1" + strings.Repeat(")", MaxDepth),
		strings.Repeat("not ", MaxDepth) + "a = 1",
		strings.Repeat("not (", MaxDepth/2) + "a = 1 or b = 2" + strings.Repeat(")", MaxDepth/2),
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse at depth %d: %v", MaxDepth, err)
		}
		if _, err := Parse("not " + src); err == nil {
			t.Errorf("Parse at depth %d succeeded", MaxDepth+1)
		}
	}
}

// TestParseLeafCap: a predicate holds at most MaxLeaves comparisons. A
// chain of "date = …" leaves joined by "or", just under 1 MiB, is
// refused at the first comparison over the cap, quickly and without
// growing the stack by the input's length, while MaxLeaves leaves —
// comparisons and in-lists, under and, or and not — still parse.
func TestParseLeafCap(t *testing.T) {
	var b strings.Builder
	over := 0 // the offset of comparison MaxLeaves+1
	for i := 0; b.Len() < 1<<20-32; i++ {
		if i > 0 {
			b.WriteString(" or ")
		}
		if i == MaxLeaves {
			over = b.Len()
		}
		fmt.Fprintf(&b, "date = %d", 730000+i)
	}
	hostile := b.String()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	done := make(chan error)
	go func() { _, err := Parse(hostile); done <- err }()
	err := <-done
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Offset != over || pe.Token != "date" {
		t.Fatalf("Parse(%d bytes of comparisons) = %v, want a ParseError at offset %d", len(hostile), err, over)
	}
	if elapsed > time.Second {
		t.Errorf("refusing took %v", elapsed)
	}
	if grew := int64(after.StackInuse) - int64(before.StackInuse); grew > 1<<20 {
		t.Errorf("stack in use grew by %d bytes", grew)
	}

	terms := make([]string, MaxLeaves/2) // two comparisons each
	for i := range terms {
		terms[i] = fmt.Sprintf("(a >= %d and not b in (%d, %d))", i, i+1, i) // one run
	}
	src := strings.Join(terms, " or ")
	if _, err := Parse(src); err != nil {
		t.Errorf("Parse of %d comparisons: %v", MaxLeaves, err)
	}
	if _, err := Parse(src + " or z = 1"); err == nil {
		t.Errorf("Parse of %d comparisons succeeded", MaxLeaves+1)
	}
}

// TestParseInListCap: an in-list counts against MaxLeaves as the probes
// it evaluates to, one per maximal run of consecutive values. A 1 MiB
// list of distinct values 3 apart is refused at its first run over the
// cap, quickly and without growing the stack by the input's length;
// a list that collapses into runs is not, however long; and the runs
// add up with the predicate's other comparisons.
func TestParseInListCap(t *testing.T) {
	var b strings.Builder
	b.WriteString("date in (")
	over := 0 // the offset of run MaxLeaves+1, listed last to first
	var vals []int
	for size := 0; size < 1<<20-32; size += len(fmt.Sprint(3*len(vals))) + 2 {
		vals = append(vals, 3*len(vals))
	}
	for i := len(vals) - 1; i >= 0; i-- {
		if i < len(vals)-1 {
			b.WriteString(", ")
		}
		if i == MaxLeaves {
			over = b.Len()
		}
		fmt.Fprintf(&b, "%d", vals[i])
	}
	b.WriteString(")")
	hostile := b.String()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	done := make(chan error)
	go func() { _, err := Parse(hostile); done <- err }()
	err := <-done
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Offset != over || pe.Token != fmt.Sprint(3*MaxLeaves) {
		t.Fatalf("Parse(%d bytes of in-list) = %v, want a ParseError at offset %d", len(hostile), err, over)
	}
	if elapsed > time.Second {
		t.Errorf("refusing took %v", elapsed)
	}
	if grew := int64(after.StackInuse) - int64(before.StackInuse); grew > 1<<20 {
		t.Errorf("stack in use grew by %d bytes", grew)
	}

	long := make([]string, 100000) // one run
	for i := range long {
		long[i] = fmt.Sprint(len(long) - i)
	}
	if _, err := Parse("date in (" + strings.Join(long, ", ") + ")"); err != nil {
		t.Errorf("Parse of a %d-value run: %v", len(long), err)
	}
	runs := make([]string, MaxLeaves-1) // with "a = 1", exactly at the cap
	for i := range runs {
		runs[i] = fmt.Sprint(2 * i)
	}
	list := "a = 1 and b in (" + strings.Join(runs, ", ")
	if _, err := Parse(list + ")"); err != nil {
		t.Errorf("Parse of %d probes: %v", MaxLeaves, err)
	}
	if _, err := Parse(list + ", 5000)"); err == nil {
		t.Errorf("Parse of %d probes succeeded", MaxLeaves+1)
	}
	if _, err := Parse(list + ") or c = 2"); err == nil {
		t.Errorf("Parse of %d probes and a comparison succeeded", MaxLeaves+1)
	}
}
