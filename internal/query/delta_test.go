package query

import (
	"math"
	"testing"

	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
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
		}
	}
}

// FuzzDeltaRange builds delta forms from its inputs — deltas from raw's
// bytes times scale, which reaches the int64 extremes, the deltas'
// encoding from raw's first byte (ns, vns over whole groups, vns over
// partial ones, or plain), first as given or, when raw's second byte
// is odd, left out — and pins count, select, a sum under a range, Sum,
// SumSel and PointLookup to decode-then-filter, under [lo, hi] and
// around a stored value.
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
		if m, sm, ss := checkVerbs(t, "fuzz", form, []int64{lo, hi, near[0], near[1]}); m || sm || ss {
			t.Fatalf("materialised = %v, under sum %v, under a selection %v; want none", m, sm, ss)
		}
	})
}
