package blocked_test

import (
	"bytes"
	"fmt"
	"testing"

	"lwcomp/internal/blocked"
	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/storage"
	"lwcomp/internal/workload"
)

// certified counts the blocks of col stamped with the current search
// fingerprint, failing on a stamp under any other.
func certified(t *testing.T, name string, col *blocked.Column) int {
	t.Helper()
	n := 0
	for i := range col.Blocks {
		switch col.Blocks[i].Certificate {
		case 0:
		case scheme.SearchFingerprint():
			n++
		default:
			t.Fatalf("%s block %d: stamped %08x, the search is %08x", name, i, col.Blocks[i].Certificate, scheme.SearchFingerprint())
		}
	}
	return n
}

// TestEncodeTiled: every column Encode builds is tiled the way Encode
// tiles it; a builder's lone block under a block size above the row
// count is not (Encode would record block size 0), and neither is a
// column cut at other boundaries.
func TestEncodeTiled(t *testing.T) {
	data := workload.Sorted(10000, 1<<20, 1)
	for _, bs := range []int{0, 1000, 4096, 9999, 10000, 20000} {
		col, err := blocked.Encode(data, blocked.EncodeOptions{BlockSize: bs})
		if err != nil {
			t.Fatal(err)
		}
		if !col.EncodeTiled() {
			t.Fatalf("block size %d: Encode's own column is not tiled", bs)
		}
		if len(col.Blocks) > 1 {
			col.Blocks[0].Count--
			col.Blocks[1].Count++
			if col.EncodeTiled() {
				t.Fatalf("block size %d: a moved boundary still counts as tiled", bs)
			}
		}
	}
	b := blocked.NewBuilder(blocked.EncodeOptions{BlockSize: 20000})
	if err := b.Append(data); err != nil {
		t.Fatal(err)
	}
	col, err := b.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if col.EncodeTiled() {
		t.Fatal("a builder's lone short block under block size 20000 counts as tiled")
	}
}

// naiveForm is the form compressing every default candidate picks for
// a block: the smallest, the first in input order among equals.
func naiveForm(t *testing.T, block []int64) *core.Form {
	t.Helper()
	st := core.CollectStats(block, nil)
	var best *core.Form
	for _, c := range scheme.DefaultCandidates(&st) {
		f, err := c.Compress(block)
		if err != nil {
			continue
		}
		if best == nil || f.PayloadBits() < best.PayloadBits() {
			best = f
		}
	}
	if best == nil {
		t.Fatal("no default candidate compresses the block")
	}
	return best
}

// TestCertificateMatchesExhaustive pins what a block certificate
// claims: every block the encoder searches whole is stamped, and its
// form bytes are those compressing every candidate picks — on the
// maintenance shapes at several block sizes (ragged tails included)
// and on the estimator workloads. It also pins that the claim is never made where
// the encoder cannot make it.
func TestCertificateMatchesExhaustive(t *testing.T) {
	type column struct {
		name string
		data []int64
		bs   int
	}
	var cols []column
	for _, bs := range []int{4096, 16384, 65536} {
		for _, sh := range workload.MaintainShapes(65536, 1) {
			cols = append(cols, column{fmt.Sprintf("%s/%d", sh.Name, bs), sh.Data, bs})
		}
	}
	for _, sh := range workload.MaintainShapes(65536+777, 2) {
		cols = append(cols, column{sh.Name + "/ragged", sh.Data, 65536})
	}
	for i, data := range [][]int64{
		workload.OrderShipDates(5000, 18, 730120, 42),
		workload.RandomWalk(5000, 18, 1<<30, 42),
		workload.OutlierWalk(5000, 18, 0.01, 1<<38, 42),
		workload.TrendNoise(5000, 1.5, 18, 42),
		workload.LowCardinality(5000, 19, 42),
		workload.SkewedMagnitude(5000, 21, 42),
		workload.UniformBits(5000, 17, 42),
		workload.Sorted(5000, 1<<40, 42),
		workload.Runs(5000, 18, 1<<16, 42),
		workload.StepData(5000, 768, 42),
	} {
		cols = append(cols, column{fmt.Sprintf("estimate%d", i), data, 4096}, column{fmt.Sprintf("estimate%d/100", i), data[:100], 0})
	}

	for _, c := range cols {
		col, err := blocked.Encode(c.data, blocked.EncodeOptions{BlockSize: c.bs})
		if err != nil {
			t.Fatal(err)
		}
		if n := certified(t, c.name, col); n != len(col.Blocks) {
			t.Fatalf("%s: %d of %d blocks certified", c.name, n, len(col.Blocks))
		}
		for i := range col.Blocks {
			b := &col.Blocks[i]
			got, err := storage.EncodeForm(b.Form)
			if err != nil {
				t.Fatal(err)
			}
			naive := naiveForm(t, c.data[b.Start:b.Start+int64(b.Count)])
			want, err := storage.EncodeForm(naive)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s block %d: certified %s, but compressing every candidate picks %s",
					c.name, i, b.Form.Describe(), naive.Describe())
			}
		}
	}

	// Never certified: a block encoded with no search at all, or
	// searched over a sample of a block longer than SearchSample.
	data := workload.MaintainShapes(8192, 3)[0].Data
	long := workload.MaintainShapes(blocked.SearchSample+1, 3)[0].Data
	for name, enc := range map[string]struct {
		data []int64
		opt  blocked.EncodeOptions
	}{
		"scheme": {data, blocked.EncodeOptions{BlockSize: 4096, Scheme: scheme.NS{}}},
		"sample": {long, blocked.EncodeOptions{}},
	} {
		col, err := blocked.Encode(enc.data, enc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if n := certified(t, name, col); n != 0 {
			t.Fatalf("%s: %d block(s) certified", name, n)
		}
	}
}
