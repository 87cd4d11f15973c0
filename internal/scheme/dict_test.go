package scheme

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lwcomp/internal/core"
)

// dirtyScratch returns a scratch whose freelists hold buffers full of
// plausible stale contents — values of src, table numbers, zeros — so
// a compressor that trusts borrowed memory reads them as its own.
func dirtyScratch(src []int64) *core.Scratch {
	s := &core.Scratch{}
	var bufs [][]int64
	for _, n := range []int{len(src), len(src), 1 << 10, 1 << 10, 1 << 12, 1 << 12, 1 << 14, 1 << 14, 1 << 16, 1 << 16, 1 << 18, 1 << 18} {
		b := s.I64(n)
		for i := range b {
			switch {
			case len(src) > 0 && i%3 == 0:
				b[i] = src[i%len(src)]
			case i%3 == 1:
				b[i] = int64(i%7) + 1
			default:
				b[i] = 0
			}
		}
		bufs = append(bufs, b)
	}
	for _, b := range bufs {
		s.PutI64(b)
	}
	return s
}

// TestDictCompressPartsEdges pins the hash-built dictionary: sorted
// strictly ascending, codes resolving every element back to itself,
// and the composed form round-tripping — across the value 0 (an empty
// table slot must not read as key 0), the int64 extremes, the
// degenerate cardinalities, every table growth step, and a scratch
// reused dirty across calls.
func TestDictCompressPartsEdges(t *testing.T) {
	distinct := func(d, n int) []int64 {
		// d distinct scattered values (0 among them) over n elements,
		// every value present at least once.
		rng := rand.New(rand.NewSource(int64(d)))
		vals := make([]int64, d)
		for i := range vals {
			vals[i] = int64(uint64(i) * 0x9E3779B97F4A7C15) // distinct: odd multiplier
		}
		out := make([]int64, n)
		for i := range out {
			if i < d {
				out[i] = vals[i]
			} else {
				out[i] = vals[rng.Intn(d)]
			}
		}
		rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	cases := map[string][]int64{
		"empty":        nil,
		"zero-only":    {0, 0, 0},
		"zero-among":   {5, 0, -3, 0, 5, 7, 0},
		"extremes":     {math.MaxInt64, math.MinInt64, 0, -1, 1, math.MinInt64, math.MaxInt64},
		"all-equal":    distinct(1, 5000),
		"all-distinct": distinct(5000, 5000),
	}
	for _, d := range []int{255, 256, 257, 1023, 1024, 1025, 4095, 4096, 4097, 16383, 16384, 16385} {
		cases[fmt.Sprintf("distinct-%d", d)] = distinct(d, d+d/2+3)
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			s := dirtyScratch(src)
			for call := 0; call < 2; call++ { // the second call reuses what the first left behind
				var codes, dict []int64
				_, err := Dict{}.CompressParts(src, s, func(col string, vals []int64) (*core.Form, error) {
					if col == "codes" {
						codes = append([]int64{}, vals...)
					} else {
						dict = append([]int64{}, vals...)
					}
					return NewIDForm(append([]int64{}, vals...)), nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i < len(dict); i++ {
					if dict[i-1] >= dict[i] {
						t.Fatalf("call %d: dict not strictly ascending at %d: %d, %d", call, i, dict[i-1], dict[i])
					}
				}
				if len(codes) != len(src) {
					t.Fatalf("call %d: %d codes for %d values", call, len(codes), len(src))
				}
				for i, c := range codes {
					if c < 0 || c >= int64(len(dict)) || dict[c] != src[i] {
						t.Fatalf("call %d: code %d at %d does not resolve to %d", call, c, i, src[i])
					}
				}
				f, err := core.CompressScratch(DictComposite(), src, s)
				if err != nil {
					t.Fatal(err)
				}
				back, err := core.Decompress(f)
				if err != nil {
					t.Fatal(err)
				}
				if len(back) != len(src) {
					t.Fatalf("call %d: roundtrip length %d, want %d", call, len(back), len(src))
				}
				for i := range src {
					if back[i] != src[i] {
						t.Fatalf("call %d: roundtrip mismatch at %d", call, i)
					}
				}
				want, err := DictComposite().Compress(src)
				if err != nil {
					t.Fatal(err)
				}
				if !formsEqual(want, f) {
					t.Fatalf("call %d: pooled form differs from the map-built form", call)
				}
			}
		})
	}
}
