package sel

import (
	"math/rand"
	"testing"
)

// reference mirrors a Selection with a plain bool slice.
type reference []bool

func (r reference) rows() []int64 {
	out := []int64{}
	for i, b := range r {
		if b {
			out = append(out, int64(i))
		}
	}
	return out
}

func equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAddRunRandom cross-checks AddRun/Add/Remove/OrWord against a bool-slice
// model over random operations and domain sizes that exercise word
// boundaries.
func TestAddRunRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		s := New(n)
		ref := make(reference, n)
		for op := 0; op < 200 && n > 0; op++ {
			switch rng.Intn(4) {
			case 0:
				i := rng.Intn(n)
				s.Add(i)
				ref[i] = true
			case 3:
				i := rng.Intn(n)
				s.Remove(i)
				ref[i] = false
			case 1:
				start := rng.Intn(n)
				count := rng.Intn(n - start + 1)
				s.AddRun(start, count)
				for i := start; i < start+count; i++ {
					ref[i] = true
				}
			case 2:
				pos := rng.Intn(n)
				width := n - pos
				if width > 64 {
					width = 64
				}
				var mask uint64
				for b := 0; b < width; b++ {
					if rng.Intn(4) == 0 {
						mask |= 1 << b
						ref[pos+b] = true
					}
				}
				s.OrWord(pos, mask)
			}
		}
		if got, want := s.Rows(), ref.rows(); !equal(got, want) {
			t.Fatalf("n=%d: rows mismatch: got %d rows, want %d", n, len(got), len(want))
		}
		if got, want := s.Count(), len(ref.rows()); got != want {
			t.Fatalf("n=%d: Count = %d, want %d", n, got, want)
		}
		if n == 0 {
			continue
		}
		for _, i := range []int{0, n / 2, n - 1} {
			if s.Contains(i) != ref[i] {
				t.Fatalf("n=%d: Contains(%d) = %v", n, i, s.Contains(i))
			}
			wantRank := 0
			for _, b := range ref[:i] {
				if b {
					wantRank++
				}
			}
			if got := s.Rank(i); got != wantRank {
				t.Fatalf("n=%d: Rank(%d) = %d, want %d", n, i, got, wantRank)
			}
		}
	}
}

// TestOrAt checks the parallel-merge operation: per-block selections
// shifted into a column-level one, including non-word-aligned offsets.
func TestOrAt(t *testing.T) {
	for _, offset := range []int{0, 1, 63, 64, 100} {
		local := New(130)
		local.AddRun(0, 3)
		local.Add(129)
		dst := New(offset + 130)
		dst.OrAt(local, offset)
		want := []int64{int64(offset), int64(offset + 1), int64(offset + 2), int64(offset + 129)}
		if got := dst.Rows(); !equal(got, want) {
			t.Fatalf("offset %d: got %v, want %v", offset, got, want)
		}
	}
}

// TestUnionAndIterate covers Union, early-exit Iterate and AppendRows
// with a base offset.
func TestUnionAndIterate(t *testing.T) {
	a := New(200)
	a.AddRun(10, 5)
	b := New(200)
	b.AddRun(100, 70)
	if err := a.Union(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 75 {
		t.Fatalf("Count = %d", a.Count())
	}
	if err := a.Union(New(100)); err == nil {
		t.Fatal("Union with mismatched domain must error")
	}
	var visited []int
	a.Iterate(func(i int) bool {
		visited = append(visited, i)
		return len(visited) < 6
	})
	if len(visited) != 6 || visited[5] != 100 {
		t.Fatalf("Iterate early exit: %v", visited)
	}
	rows := a.AppendRows(nil, 1000)
	if rows[0] != 1010 || rows[len(rows)-1] != 1169 {
		t.Fatalf("AppendRows base offset: first %d last %d", rows[0], rows[len(rows)-1])
	}
}

// TestPoolReuse: a released selection comes back empty at the new
// domain size with no stale bits.
func TestPoolReuse(t *testing.T) {
	s := Get(128)
	s.AddRun(0, 128)
	s.Release()
	for i := 0; i < 10; i++ {
		s2 := Get(64)
		if s2.Count() != 0 {
			t.Fatal("pooled selection not cleared")
		}
		s2.AddRun(0, 64)
		s2.Release()
	}
}

// TestAndAndNotRandom pins the word-granular And and Not against
// naive row-set intersection and complement on random selections
// across word-boundary domain sizes: they must agree with set algebra
// exactly.
func TestAndAndNotRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129, 1000, 4096} {
		for trial := 0; trial < 20; trial++ {
			a, b := Get(n), Get(n)
			refA, refB := make(reference, n), make(reference, n)
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					a.Add(i)
					refA[i] = true
				}
				if rng.Intn(3) == 0 {
					b.Add(i)
					refB[i] = true
				}
			}

			and := Get(n)
			and.Union(a)
			if err := and.And(b); err != nil {
				t.Fatal(err)
			}
			wantAnd := []int64{}
			for i := range refA {
				if refA[i] && refB[i] {
					wantAnd = append(wantAnd, int64(i))
				}
			}
			if got := and.Rows(); !equal(got, wantAnd) {
				t.Fatalf("n=%d: And mismatch: got %d rows, want %d", n, len(got), len(wantAnd))
			}

			not := Get(n)
			not.Union(a)
			not.Not()
			wantNot := []int64{}
			for i := range refA {
				if !refA[i] {
					wantNot = append(wantNot, int64(i))
				}
			}
			if got := not.Rows(); !equal(got, wantNot) {
				t.Fatalf("n=%d: Not mismatch: got %d rows, want %d", n, len(got), len(wantNot))
			}
			if not.Count() != n-a.Count() {
				t.Fatalf("n=%d: Not count %d, want %d", n, not.Count(), n-a.Count())
			}

			// CountRange against Rank over random sub-ranges.
			for probe := 0; probe < 8; probe++ {
				lo := rng.Intn(n + 1)
				hi := lo + rng.Intn(n-lo+1)
				if got, want := a.CountRange(lo, hi), a.Rank(hi)-a.Rank(lo); got != want {
					t.Fatalf("n=%d: CountRange(%d, %d) = %d, want %d", n, lo, hi, got, want)
				}
			}

			not.Release()
			and.Release()
			b.Release()
			a.Release()
		}
	}
}

// TestAndDomainMismatch: And refuses mismatched domains like Union
// does.
func TestAndDomainMismatch(t *testing.T) {
	a, b := New(100), New(101)
	if err := a.And(b); err == nil {
		t.Fatal("And with mismatched domain must error")
	}
}

// TestCountRangeEdges covers clamping and single-word ranges.
func TestCountRangeEdges(t *testing.T) {
	s := New(130)
	s.AddRun(60, 10) // straddles the word 0/1 boundary
	for _, tc := range []struct{ lo, hi, want int }{
		{0, 130, 10}, {60, 70, 10}, {61, 69, 8}, {64, 66, 2},
		{-5, 1000, 10}, {70, 60, 0}, {0, 0, 0}, {129, 130, 0},
	} {
		if got := s.CountRange(tc.lo, tc.hi); got != tc.want {
			t.Fatalf("CountRange(%d, %d) = %d, want %d", tc.lo, tc.hi, got, tc.want)
		}
	}
	empty := New(0)
	empty.Not() // must not panic on a zero-word domain
	if empty.CountRange(0, 0) != 0 {
		t.Fatal("empty CountRange")
	}
}

// TestEmptyAndBounds covers degenerate shapes.
func TestEmptyAndBounds(t *testing.T) {
	s := New(0)
	if s.Count() != 0 || len(s.Rows()) != 0 {
		t.Fatal("empty selection not empty")
	}
	s.AddRun(0, 0) // no-op, must not panic
	s2 := New(64)
	s2.AddRun(0, 64)
	if s2.Count() != 64 || s2.Rank(64) != 64 {
		t.Fatalf("full word: count %d rank %d", s2.Count(), s2.Rank(64))
	}
}

// fullBacking returns every word of s's backing array, up to its
// capacity — what a later, larger domain would inherit.
func fullBacking(s *Selection) []uint64 { return s.words[:cap(s.words)] }

// TestResetClearsEverySetter: whichever method set the bits, Reset
// leaves the whole backing array zero — the invariant the dirty span
// exists to keep without clearing every word.
func TestResetClearsEverySetter(t *testing.T) {
	const n = 1 << 14
	other := New(n)
	other.AddRun(5000, 3000)
	setters := map[string]func(s *Selection){
		"Add":           func(s *Selection) { s.Add(0); s.Add(9999); s.Add(n - 1) },
		"AddRun":        func(s *Selection) { s.AddRun(63, 2); s.AddRun(7000, 700) },
		"AddRun whole":  func(s *Selection) { s.AddRun(0, n) },
		"OrWord":        func(s *Selection) { s.OrWord(130, 1<<63|1); s.OrWord(n-64, allOnes) },
		"OrWord at end": func(s *Selection) { s.OrWord(n-3, 0b111) },
		"OrAt":          func(s *Selection) { s.OrAt(other, 0) },
		"Union":         func(s *Selection) { s.Union(other) },
		"Not":           func(s *Selection) { s.Not() },
		"Not of some":   func(s *Selection) { s.AddRun(100, 100); s.Not() },
		"And after set": func(s *Selection) { s.AddRun(4000, 4000); s.And(other) },
		"Remove":        func(s *Selection) { s.AddRun(64, 64); s.Remove(64); s.Remove(127) },
	}
	for name, set := range setters {
		s := New(n)
		set(s)
		if s.Count() == 0 && name != "Remove" {
			t.Fatalf("%s set nothing", name)
		}
		// A smaller domain first: the words beyond it must be clean too.
		s.Reset(100)
		for w, m := range fullBacking(s) {
			if m != 0 {
				t.Fatalf("%s: word %d = %#x after Reset", name, w, m)
			}
		}
		if s.Count() != 0 || s.Len() != 100 {
			t.Fatalf("%s: Count %d Len %d after Reset(100)", name, s.Count(), s.Len())
		}
	}
}

// TestCountsMatchBitByBit: Count, CountRange and Rank on random
// selections — sparse windows far from word 0 included, which is where
// the dirty span clamps — equal a bit-by-bit count.
func TestCountsMatchBitByBit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5000)
		s := New(n)
		ref := make(reference, n)
		lo := rng.Intn(n)
		width := 1 + rng.Intn(n-lo)
		for k := rng.Intn(40); k > 0; k-- {
			switch i := lo + rng.Intn(width); rng.Intn(3) {
			case 0:
				s.Add(i)
				ref[i] = true
			case 1:
				c := rng.Intn(lo + width - i + 1)
				s.AddRun(i, c)
				for j := i; j < i+c; j++ {
					ref[j] = true
				}
			case 2:
				m := rng.Uint64()
				if rest := n - i; rest < 64 {
					m &= 1<<uint(rest) - 1
				}
				s.OrWord(i, m)
				for j := 0; j < 64; j++ {
					if m>>uint(j)&1 == 1 {
						ref[i+j] = true
					}
				}
			}
		}
		count := func(a, b int) (c int) {
			for i := max(a, 0); i < min(b, n); i++ {
				if ref[i] {
					c++
				}
			}
			return c
		}
		if got, want := s.Count(), count(0, n); got != want {
			t.Fatalf("trial %d: Count %d, want %d", trial, got, want)
		}
		for probe := 0; probe < 30; probe++ {
			a, b := rng.Intn(n+20)-10, rng.Intn(n+20)-10
			if got, want := s.CountRange(a, b), count(a, b); got != want {
				t.Fatalf("trial %d: CountRange(%d, %d) = %d, want %d", trial, a, b, got, want)
			}
			if got, want := s.Rank(a), count(0, a); got != want {
				t.Fatalf("trial %d: Rank(%d) = %d, want %d", trial, a, got, want)
			}
		}
		if !equal(s.Rows(), ref.rows()) {
			t.Fatalf("trial %d: rows diverge from the model", trial)
		}
	}
}

// TestPoolReuseAcrossDomains: one pooled selection serving a 4M-bit
// and a 16k-bit domain in turn starts each use empty, whatever the
// previous one set and wherever.
func TestPoolReuseAcrossDomains(t *testing.T) {
	const big, small = 1 << 22, 1 << 14
	s := New(big)
	for round := 0; round < 3; round++ {
		s.Reset(big)
		if s.Count() != 0 {
			t.Fatalf("round %d: big domain starts with %d rows", round, s.Count())
		}
		s.AddRun(big-40000, 35000)
		s.Add(17)
		if got := s.Count(); got != 35001 {
			t.Fatalf("round %d: big Count = %d", round, got)
		}
		if got := s.CountRange(big-40000, big); got != 35000 {
			t.Fatalf("round %d: big CountRange = %d", round, got)
		}
		s.Reset(small)
		if s.Count() != 0 || s.CountRange(0, small) != 0 || len(s.Rows()) != 0 {
			t.Fatalf("round %d: small domain inherits rows", round)
		}
		s.Not()
		if got := s.Count(); got != small {
			t.Fatalf("round %d: small Not Count = %d", round, got)
		}
	}
	s.Reset(big)
	for w, m := range fullBacking(s) {
		if m != 0 {
			t.Fatalf("word %d = %#x after the last Reset", w, m)
		}
	}
}
