package lwcomp_test

import (
	"hash/fnv"
	"path/filepath"
	"strconv"
	"testing"

	"lwcomp"
	"lwcomp/internal/query"
	"lwcomp/internal/sel"
)

// The delta fixtures hold delta forms in the layouts earlier writers
// left on disk, which every reader must keep answering as they did.
//
// testdata/delta/nofirst.lwc: two 1,000-row columns in 256-row blocks,
// written before delta forms carried their first value as a
// parameter. "walk" is a drifting walk near 2^30 stored as
// delta(deltas=ns); "runs" is run-heavy sorted days stored as
// rle(lengths=ns, values=delta(deltas=ns)). Neither has a "first"
// parameter, so every delta in them starts from zero.
//
// testdata/delta/unframed.lwc: two 12,288-row columns written before
// delta forms carried frames. "walk" is an amount-shaped walk near
// 2^30 in three 4,096-row blocks of delta(deltas=ns), and "runs"
// sorted days in runs of about three rows, in two 6,144-row blocks of
// rle(lengths=ns, values=delta(deltas=ns)) whose delta forms hold over
// 2,000 run values. Every delta form in it spans eight segments or
// more and has no frame: the one-segment case of the frame rule.
const (
	deltaFixture         = "testdata/delta/nofirst.lwc"
	unframedDeltaFixture = "testdata/delta/unframed.lwc"
)

// deltaAnswers is what a fixture column answers: an FNV-1a hash of its
// decoded values; over the range [lo, hi] — lo offsets from the first
// value, hi = lo + span — the count and sum of the rows in it, the rows
// a select sets, and the sum of the rows an every-third-row selection
// holds; the column's sum; and the sum of its values at rows
// 0, 257, 1,023, 4,095 and 4,096 that it has. The numbers were taken
// from the readers that wrote each fixture.
type deltaAnswers struct {
	lo, span      int64
	decodeHash    uint64
	count, sum    int64
	selected      int64
	sumSel, total int64
	points        int64
}

var deltaFixtureAnswers = map[string]map[string]deltaAnswers{
	deltaFixture: {
		"walk": {lo: 500, span: 600, decodeHash: 0x3ed14b8ad9b7673d, count: 182, sum: 195421159270, selected: 182, sumSel: 358630262469, total: 1073743300825, points: 2147484431},
		"runs": {lo: 20, span: 60, decodeHash: 0xc9494d1721ed77d4, count: 464, sum: 338799911, selected: 464, sumSel: 243884724, total: 730193798, points: 1460278},
	},
	unframedDeltaFixture: {
		"walk": {lo: -10000, span: 300, decodeHash: 0x720fc2129d2c511e, count: 132, sum: 141732621560, selected: 132, sumSel: 4397999861231, total: 13193999561463, points: 5368690228},
		"runs": {lo: 900, span: 30, decodeHash: 0x347554c27a8da9d1, count: 34, sum: 24855236, selected: 34, sumSel: 3009483909, total: 9028460900, points: 3657750},
	},
}

// TestDeltaFixtureWithoutFirst: containers whose delta forms predate
// the first-value parameter still decode and answer every verb as they
// did, block by block, through OpenFile.
func TestDeltaFixtureWithoutFirst(t *testing.T) { checkDeltaFixture(t, deltaFixture) }

// TestDeltaFixtureWithoutFrames: containers whose delta forms predate
// frames — long forms the rule reads as one segment — still decode and
// answer every verb as they did.
func TestDeltaFixtureWithoutFrames(t *testing.T) { checkDeltaFixture(t, unframedDeltaFixture) }

// checkDeltaFixture checks every column of the fixture at path against
// its pinned answers.
func checkDeltaFixture(t *testing.T, path string) {
	for name, want := range deltaFixtureAnswers[path] {
		if got := fixtureAnswers(t, path, name, want.lo, want.span); got != want {
			t.Errorf("%s: got %+v, want %+v", name, got, want)
		}
	}
}

// fixtureAnswers computes deltaAnswers for column name of the fixture
// at path, over [first + lo, first + lo + span].
func fixtureAnswers(t *testing.T, path, name string, lo, span int64) deltaAnswers {
	t.Helper()
	col, err := lwcomp.OpenFile(filepath.FromSlash(path), lwcomp.WithColumn(name))
	if err != nil {
		t.Fatal(err)
	}
	vals, err := col.Decompress()
	if err != nil {
		t.Fatalf("%s %s: decode: %v", path, name, err)
	}
	got := deltaAnswers{lo: lo, span: span}
	h := fnv.New64a()
	for _, v := range vals {
		h.Write(strconv.AppendInt(nil, v, 10))
		h.Write([]byte{'\n'})
	}
	got.decodeHash = h.Sum64()
	lo += vals[0]
	hi := lo + span
	for i := range col.Blocks {
		f, err := col.BlockForm(i)
		if err != nil {
			t.Fatal(err)
		}
		start := col.Blocks[i].Start
		bm := sel.New(f.N)
		for r := 0; r < f.N; r++ {
			if (start+int64(r))%3 == 0 {
				bm.Add(r)
			}
		}
		c, err := query.CountRange(f, lo, hi)
		if err != nil {
			t.Fatalf("%s block %d: CountRange: %v", name, i, err)
		}
		s, c2, err := query.SumRange(f, lo, hi)
		if err != nil || c2 != c {
			t.Fatalf("%s block %d: SumRange count %d, CountRange %d, err %v", name, i, c2, c, err)
		}
		picked := sel.New(f.N)
		if err := query.SelectRangeSel(f, lo, hi, picked, 0); err != nil {
			t.Fatalf("%s block %d: SelectRangeSel: %v", name, i, err)
		}
		ss, err := query.SumSel(f, bm, 0)
		if err != nil {
			t.Fatalf("%s block %d: SumSel: %v", name, i, err)
		}
		tot, err := query.Sum(f)
		if err != nil {
			t.Fatalf("%s block %d: Sum: %v", name, i, err)
		}
		for _, row := range []int64{0, 257, 1023, 4095, 4096} {
			if row >= start && row < start+int64(f.N) {
				v, err := query.PointLookup(f, row-start)
				if err != nil {
					t.Fatalf("%s block %d: PointLookup(%d): %v", name, i, row, err)
				}
				got.points += v
			}
		}
		got.count, got.sum, got.sumSel, got.total = got.count+c, got.sum+s, got.sumSel+ss, got.total+tot
		got.selected += int64(picked.Count())
	}
	return got
}
