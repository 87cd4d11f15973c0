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

// deltaFixture is testdata/delta/nofirst.lwc: two 1,000-row columns in
// 256-row blocks, written before delta forms carried their first value
// as a parameter. "walk" is a drifting walk near 2^30 stored as
// delta(deltas=ns); "runs" is run-heavy sorted days stored as
// rle(lengths=ns, values=delta(deltas=ns)). Neither has a "first"
// parameter, so every delta in them starts from zero.
const deltaFixture = "testdata/delta/nofirst.lwc"

// deltaFixtureAnswers pins what each column of the fixture answers:
// an FNV-1a hash of its decoded values, and, over the range
// [lo, lo+span], the count and sum of the rows in it and the sum of the
// rows an every-third-row selection holds. The numbers were taken from
// the readers that wrote the fixture.
var deltaFixtureAnswers = map[string]struct {
	lo, span      int64
	decodeHash    uint64
	count, sum    int64
	sumSel, total int64
}{
	"walk": {lo: 500, span: 600, decodeHash: 0x3ed14b8ad9b7673d, count: 182, sum: 195421159270, sumSel: 358630262469, total: 1073743300825},
	"runs": {lo: 20, span: 60, decodeHash: 0xc9494d1721ed77d4, count: 464, sum: 338799911, sumSel: 243884724, total: 730193798},
}

// TestDeltaFixtureWithoutFirst: containers whose delta forms predate
// the first-value parameter still decode and answer every verb as they
// did, block by block, through OpenFile.
func TestDeltaFixtureWithoutFirst(t *testing.T) {
	for name, want := range deltaFixtureAnswers {
		col, err := lwcomp.OpenFile(filepath.FromSlash(deltaFixture), lwcomp.WithColumn(name))
		if err != nil {
			t.Fatal(err)
		}
		vals, err := col.Decompress()
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		h := fnv.New64a()
		for _, v := range vals {
			h.Write(strconv.AppendInt(nil, v, 10))
			h.Write([]byte{'\n'})
		}
		lo := vals[0] + want.lo
		hi := lo + want.span
		var count, sum, sumSel, total int64
		for i := range col.Blocks {
			f, err := col.BlockForm(i)
			if err != nil {
				t.Fatal(err)
			}
			bm := sel.New(f.N)
			for r := 0; r < f.N; r++ {
				if (col.Blocks[i].Start+int64(r))%3 == 0 {
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
			ss, err := query.SumSel(f, bm, 0)
			if err != nil {
				t.Fatalf("%s block %d: SumSel: %v", name, i, err)
			}
			tot, err := query.Sum(f)
			if err != nil {
				t.Fatalf("%s block %d: Sum: %v", name, i, err)
			}
			count, sum, sumSel, total = count+c, sum+s, sumSel+ss, total+tot
		}
		if h.Sum64() != want.decodeHash || count != want.count || sum != want.sum ||
			sumSel != want.sumSel || total != want.total {
			t.Errorf("%s: decodeHash %#x, count %d, sum %d, sumSel %d, total %d; want %#x, %d, %d, %d, %d", name,
				h.Sum64(), count, sum, sumSel, total, want.decodeHash, want.count, want.sum, want.sumSel, want.total)
		}
	}
}
