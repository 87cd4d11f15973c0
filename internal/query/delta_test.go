package query

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/sel"
)

// around returns [v−d, v+d], cut off at the ends of int64.
func around(v, d int64) [2]int64 {
	lo, hi := v-d, v+d
	if lo > v {
		lo = math.MinInt64
	}
	if hi < v {
		hi = math.MaxInt64
	}
	return [2]int64{lo, hi}
}

// deltaForm builds a delta form by hand: first as its parameter (none
// when omitFirst, the form every writer before the parameter made) and
// deltas encoded by enc.
func deltaForm(t *testing.T, first int64, omitFirst bool, deltas []int64, enc child) *core.Form {
	t.Helper()
	f := &core.Form{
		Scheme:   scheme.DeltaName,
		N:        len(deltas),
		Params:   core.Params{"first": first},
		Children: map[string]*core.Form{"deltas": enc(t, deltas)},
	}
	if omitFirst {
		f.Params = nil
	}
	return f
}

// withFrame gives the delta form f, whose decode is col, a frame of
// segLen-row segments built by hand, as Delta writes one — each
// segment's first value, minimum and maximum as offsets from col's
// minimum, wrapping — and returns it. A non-zero lie is added to the
// frame value at lieAt (modulo the frame's length), so that the frame
// no longer tells the truth.
func withFrame(t *testing.T, f *core.Form, col []int64, segLen, lieAt int, lie int64) *core.Form {
	t.Helper()
	lo := slices.Min(col)
	var frame []int64
	for a := 0; a < len(col); a += segLen {
		seg := col[a:min(len(col), a+segLen)]
		frame = append(frame, seg[0]-lo, slices.Min(seg)-lo, slices.Max(seg)-lo)
	}
	frame[lieAt%len(frame)] += lie
	if f.Params == nil {
		f.Params = core.Params{}
	}
	f.Params["seglen"] = int64(segLen)
	f.Children["frame"] = asNS(t, frame)
	return f
}

// runVerbs runs every verb on f under each range drawn from bounds and
// ignores the answers: what a form whose frame lies must survive.
func runVerbs(f *core.Form, bounds []int64) {
	s := core.GetScratch()
	defer s.Release()
	bm := sel.New(f.N)
	for i := 0; i < f.N; i += 3 {
		bm.Add(i)
	}
	_, _ = Sum(f)
	_, _ = run(sumSelVerb, f, 0, 0, bm, 0, s)
	for _, row := range []int64{0, int64(f.N) / 2, int64(f.N) - 1} {
		_, _ = PointLookup(f, row)
	}
	for _, lo := range bounds {
		for _, hi := range bounds {
			for _, v := range []Verb{CountVerb, SumVerb, selectVerb, keepVerb} {
				_, _ = run(v, f, lo, hi, sel.New(f.N), 0, s)
			}
		}
	}
}

// TestDeltaRangeMatchesDecode: count, select, sum under a range, Sum,
// SumSel and PointLookup on delta forms — over NS, VNS with whole and
// with partial 64-row groups, and plain deltas, from a first value near
// 2^30 and one at the top of int64, where the prefix wraps — equal
// decode-then-filter, and only the plain deltas are not read in place.
func TestDeltaRangeMatchesDecode(t *testing.T) {
	const n = 300 // four full 64-row groups and a short one
	walk := make([]int64, n)
	for i := range walk {
		walk[i] = int64(i*7919%25) - 12
	}
	for _, first := range []int64{1 << 30, math.MaxInt64 - 1000} {
		col := make([]int64, n)
		x := first
		for i, d := range walk {
			x += d
			col[i] = x
		}
		bounds := []int64{math.MinInt64, first - 600, col[n/2] - 40, col[n/2] + 40, first + 300, math.MaxInt64}
		for _, enc := range []struct {
			name string
			enc  child
		}{
			{"ns", asNS},
			{"vns[64]", compressWith(scheme.VNS{Block: 64})},
			{"vns[24]", asVNS},
			{"id", asID},
		} {
			f := deltaForm(t, first, false, walk, enc.enc)
			if m, sm, ss := checkVerbs(t, "delta("+enc.name+")", f, bounds); m || sm || ss {
				t.Errorf("delta(%s): materialised = %v, under sum %v, under a selection %v", enc.name, m, sm, ss)
			}
			// Framed: 64-row segments and 128-row ones, each with a short
			// last segment, and a range that lands in one of them.
			for _, segLen := range []int{64, 128} {
				f := withFrame(t, deltaForm(t, first, false, walk, enc.enc), col, segLen, 0, 0)
				name := fmt.Sprintf("delta(%s) framed [%d]", enc.name, segLen)
				if m, sm, ss := checkVerbs(t, name, f, append(bounds, col[200]-3, col[200]+3)); m || sm || ss {
					t.Errorf("%s: materialised = %v, under sum %v, under a selection %v", name, m, sm, ss)
				}
			}
		}
	}
}

// TestDeltaFramedByWriter: the forms Delta writes carry a frame once
// they span two segments, and every verb on one answers as its decode
// does, in place; a form one row short of two segments, and one whose
// values span more than an int64, carry none.
func TestDeltaFramedByWriter(t *testing.T) {
	walk := func(n int, first int64) []int64 {
		col := make([]int64, n)
		x := first
		for i := range col {
			col[i] = x
			x += int64(i*7919%25 - 12)
		}
		return col
	}
	wide := walk(2000, 0)
	wide[1500], wide[1501] = math.MinInt64, math.MaxInt64
	for _, c := range []struct {
		name   string
		col    []int64
		framed bool
	}{
		{"walk", walk(5000, 1<<30), true},
		{"walk at the top", walk(3000, math.MaxInt64-20000), true},
		{"short", walk(1023, 0), false},
		{"wider than int64", wide, false},
	} {
		f, err := scheme.DeltaNS().Compress(c.col)
		if err != nil {
			t.Fatal(err)
		}
		if segLen, frame := scheme.DeltaFrame(f); (frame != nil) != c.framed {
			t.Fatalf("%s: frame of %d-row segments: %v, want %v", c.name, segLen, frame != nil, c.framed)
		}
		v := c.col[len(c.col)/3]
		bounds := []int64{math.MinInt64, v - 30, v, v + 30, c.col[0], math.MaxInt64}
		if m, sm, ss := checkVerbs(t, c.name, f, bounds); m || sm || ss {
			t.Errorf("%s: materialised = %v, under sum %v, under a selection %v", c.name, m, sm, ss)
		}
	}
}

// FuzzDeltaRange builds delta forms from its inputs — deltas from raw's
// bytes times scale, which reaches the int64 extremes, the deltas'
// encoding from raw's first byte (ns, vns over whole groups, vns over
// partial ones, or plain), first as given or, when raw's second byte
// is odd, left out, and from the first byte too a frame of 64- or
// 128-row segments, the last one short unless raw fills it — and pins
// count, select, a sum under a range, Sum, SumSel and PointLookup to
// decode-then-filter, under [lo, hi] and around a stored value. When
// raw's third byte is a multiple of 5 the frame lies — one of its
// values is off by scale — and the verbs only have to run.
func FuzzDeltaRange(f *testing.F) {
	f.Add([]byte{0, 10, 200, 30, 40, 50, 60, 70}, int64(1), int64(1<<30), int64(1<<30), int64(1<<30+40))
	f.Add(make([]byte, 300), int64(-1<<40), int64(math.MaxInt64), int64(math.MinInt64), int64(0))
	f.Add([]byte{1, 255, 0, 128, 7}, int64(math.MaxInt64/3), int64(math.MaxInt64-5), int64(math.MinInt64), int64(-1))
	f.Add([]byte{2, 3, 2, 3, 130, 126}, int64(5), int64(math.MinInt64), int64(math.MinInt64), int64(math.MaxInt64))
	f.Add([]byte{3, 1, 9, 250}, int64(1<<62), int64(-7), int64(-100), int64(100))
	f.Fuzz(func(t *testing.T, raw []byte, scale, first, lo, hi int64) {
		if len(raw) == 0 || len(raw) > 4096 {
			return
		}
		deltas := make([]int64, len(raw))
		for i, b := range raw {
			deltas[i] = (int64(b) - 128) * scale
		}
		var enc child
		switch raw[0] % 4 {
		case 0:
			enc = asNS
		case 1:
			enc = compressWith(scheme.VNS{Block: 128})
		case 2:
			enc = compressWith(scheme.VNS{Block: 100})
		default:
			enc = asID
		}
		form := deltaForm(t, first, len(raw) > 1 && raw[1]%2 == 1, deltas, enc)
		col, err := core.Decompress(form)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		near := around(col[int(uint64(lo)%uint64(len(col)))], 40)
		bounds := []int64{lo, hi, near[0], near[1]}
		if segLen := 64 << (raw[0] / 4 % 3); segLen < 256 {
			var lie int64
			if len(raw) > 2 && raw[2]%5 == 0 && scale != 0 {
				lie = scale
			}
			form = withFrame(t, form, col, segLen, len(raw)*7, lie)
			if lie != 0 {
				runVerbs(form, bounds)
				return
			}
		}
		if m, sm, ss := checkVerbs(t, "fuzz", form, bounds); m || sm || ss {
			t.Fatalf("materialised = %v, under sum %v, under a selection %v; want none", m, sm, ss)
		}
	})
}
