package compact

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"lwcomp/internal/blocked"
	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/storage"
	"lwcomp/internal/workload"
)

// naiveContainer serializes data as the v3 container an all-candidates
// search yields: per block, every default candidate is compressed and
// the first smallest wins — no estimate spares a compression. Being
// the search's result, every block carries the search certificate.
func naiveContainer(t *testing.T, name string, data []int64, blockSize int) []byte {
	t.Helper()
	col := &blocked.Column{N: len(data), BlockSize: blockSize}
	for lo := 0; lo < len(data); lo += blockSize {
		block := data[lo:min(lo+blockSize, len(data))]
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
		col.Blocks = append(col.Blocks, blocked.Block{Form: best, Start: int64(lo), Count: len(block),
			Min: st.Min, Max: st.Max, HasStats: true, Certificate: scheme.SearchFingerprint()})
	}
	var buf bytes.Buffer
	if err := storage.WriteContainerV3(&buf, []storage.BlockedColumn{{Name: name, Col: col}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExhaustiveCompactionMatchesNaiveSearch re-pins the compaction
// contract on the bound-ordered search: the compactor's candidate is
// byte-identical to the container the all-candidates search yields,
// whether it starts from a container the encoder wrote (where the
// certificates skip it from the index) or from a cheaply written one
// (where the candidate is swapped in).
func TestExhaustiveCompactionMatchesNaiveSearch(t *testing.T) {
	const blockSize = 1 << 14
	dir := t.TempDir()
	c := New(Options{MinGainBytes: -1})
	for _, sh := range workload.MaintainShapes(4*blockSize+777, 11) {
		want := naiveContainer(t, sh.Name, sh.Data, blockSize)

		// The encoder's output, which is also the compactor's re-encode.
		enc, err := blocked.Encode(sh.Data, blocked.EncodeOptions{BlockSize: blockSize})
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := storage.WriteContainerV3(&got, []storage.BlockedColumn{{Name: sh.Name, Col: enc}}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: re-encode (%d bytes) differs from the all-candidates container (%d bytes)",
				sh.Name, got.Len(), len(want))
		}

		for start, write := range map[string]func(path string){
			"default": func(path string) {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			"cheap": func(path string) { writeCheap(t, path, blockSize, map[string][]int64{sh.Name: sh.Data}) },
		} {
			path := filepath.Join(dir, start+"."+sh.Name+".lwc")
			write(path)
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.CompactFile(path)
			if err != nil || res.Action == ActionFailed {
				t.Fatalf("%s/%s: compact: %v %v", sh.Name, start, err, res.Err)
			}
			if res.CandidateBytes != int64(len(want)) {
				t.Fatalf("%s/%s: candidate is %d bytes, the all-candidates container %d", sh.Name, start, res.CandidateBytes, len(want))
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			switch res.Action {
			case ActionRewritten:
				if !bytes.Equal(after, want) {
					t.Fatalf("%s/%s: rewritten container differs from the all-candidates container", sh.Name, start)
				}
			default:
				if !bytes.Equal(after, before) || len(before) > len(want) {
					t.Fatalf("%s/%s: %s left %d bytes (was %d) with a %d-byte candidate on offer", sh.Name, start, res.Action, len(after), len(before), len(want))
				}
			}
		}
	}
}
