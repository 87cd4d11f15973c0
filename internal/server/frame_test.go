package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// referenceInt64s is what appendInt64s must produce, byte for byte:
// strconv.AppendInt and a comma per value. It lives here only — the
// server has one encoder.
func referenceInt64s(buf []byte, vs []int64) []byte {
	buf = append(buf, '[')
	for i, v := range vs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, v, 10)
	}
	return append(buf, ']')
}

// checkInt64s compares the encoder with the reference on vs, appended
// to an empty buffer and to a non-empty one, each with no spare
// capacity and with more than the encoder reserves.
func checkInt64s(t testing.TB, name string, vs []int64) {
	t.Helper()
	for _, prefix := range []string{"", `{"rows":`} {
		want := referenceInt64s([]byte(prefix), vs)
		for _, spare := range []int{0, 64 + 32*len(vs)} {
			dst := append(make([]byte, 0, len(prefix)+spare), prefix...)
			if got := appendInt64s(dst, vs); !bytes.Equal(got, want) {
				t.Fatalf("%s onto %q (+%d spare):\n got %s\nwant %s", name, prefix, spare, clip(got), clip(want))
			}
		}
	}
}

func clip(b []byte) string {
	if len(b) > 400 {
		return string(b[:400]) + "…"
	}
	return string(b)
}

func TestAppendInt64s(t *testing.T) {
	cases := map[string][]int64{
		"empty":                  {},
		"nil":                    nil,
		"zero":                   {0},
		"one":                    {1},
		"minus one":              {-1},
		"min":                    {math.MinInt64},
		"max":                    {math.MaxInt64},
		"small":                  {0, 1, -1, 9, 10, -9, -10, 99, 100, -99, -100, 101, -101},
		"through 0":              {-3, -2, -1, 0, 1, 2, 3},
		"back to 0":              {3, 2, 1, 0, -1, -2, -3},
		"equal runs":             {7, 7, 7, 123456, 123456, 123456, -42, -42, -123456, -123456, 0, 0, 100, 100},
		"carries":                {198, 199, 200, 201, 999, 1000, 1001, 99998, 99999, 100000, -198, -199, -200, -201, -1001, -1000, -999},
		"down":                   {201, 200, 199, 198, 100, 99, 98, 10, 9, -99, -100, -101},
		"alternate":              {5, -5, 500, -500, 123456789, -123456789, math.MaxInt64, math.MinInt64, math.MaxInt64},
		"same pair across signs": {1234, -1234, 1234, 1250, -1250, -1234},
		// The wrap the fast path must not take: base+99 overflows for a
		// previous value this close to the ends.
		"near max": {math.MaxInt64 - 7, math.MinInt64 + 91, math.MaxInt64 - 7, math.MaxInt64 - 6, math.MaxInt64},
		"near min": {math.MinInt64 + 8, math.MaxInt64 - 91, math.MinInt64 + 8, math.MinInt64 + 7, math.MinInt64},
		// Nothing of the reservation is left over but the overshoot.
		"longest then shortest": {math.MinInt64, math.MinInt64, math.MinInt64, 7},
		"around 2^62":           {1<<62 - 2, 1<<62 - 1, 1 << 62, 1<<62 + 1, -(1<<62 - 1), -(1 << 62), -(1<<62 + 1)},
	}
	for name, vs := range cases {
		checkInt64s(t, name, vs)
	}

	// Every power of ten with its neighbours, both signs, in both
	// directions: the digit count changes between neighbours, and the
	// successor of 99…9 is a carry through every digit.
	var pows []int64
	for k, p := 0, int64(1); k <= 18; k, p = k+1, p*10 {
		pows = append(pows, p-1, p, p+1)
	}
	var seq []int64
	for _, p := range pows {
		seq = append(seq, p)
	}
	for i := len(pows) - 1; i >= 0; i-- {
		seq = append(seq, pows[i])
	}
	for _, p := range pows {
		seq = append(seq, -p)
	}
	for i := len(pows) - 1; i >= 0; i-- {
		seq = append(seq, -pows[i])
	}
	checkInt64s(t, "powers of ten", seq)
	for _, p := range pows {
		checkInt64s(t, fmt.Sprintf("lone %d", p), []int64{p})
		checkInt64s(t, fmt.Sprintf("lone %d", -p), []int64{-p})
	}
}

// TestDigits8 checks the word-parallel digit split: both lane
// divisions exhaustively over their ranges, and the eight digits
// against fmt on every boundary and a sample.
func TestDigits8(t *testing.T) {
	for x := uint64(0); x < 1e4; x++ {
		if x*10486>>20 != x/100 {
			t.Fatalf("%d·10486>>20 = %d, want %d", x, x*10486>>20, x/100)
		}
	}
	for y := uint64(0); y < 100; y++ {
		if y*103>>10 != y/10 {
			t.Fatalf("%d·103>>10 = %d, want %d", y, y*103>>10, y/10)
		}
	}
	check := func(u uint32) {
		var got [8]byte
		binary.LittleEndian.PutUint64(got[:], digits8(u)|ascii)
		if want := fmt.Sprintf("%08d", u); string(got[:]) != want {
			t.Fatalf("digits8(%d) = %q, want %q", u, got, want)
		}
	}
	for p := uint32(1); p <= 1e8; p *= 10 {
		check(p - 1)
		if p < 1e8 {
			check(p)
			check(p + 1)
		}
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		check(uint32(r.Intn(1e8)))
	}
}

// TestAppendInt64sShapes runs the encoder over long arrays shaped like
// the columns it serves: row numbers, runs, narrow walks, uniform and
// low-cardinality values, and full-range noise.
func TestAppendInt64sShapes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for name, vs := range frameShapes(r, 20000) {
		checkInt64s(t, name, vs)
	}
	noise := make([]int64, 20000)
	for i := range noise {
		noise[i] = int64(r.Uint64()) >> uint(r.Intn(64))
	}
	checkInt64s(t, "noise", noise)
	walk := make([]int64, 20000)
	for i, v := 0, int64(-300); i < len(walk); i++ {
		v += r.Int63n(41) - 20
		walk[i] = v
	}
	checkInt64s(t, "walk through zero", walk)
}

// frameShapes returns n-value arrays shaped like the benchmark table's
// columns (see benchmark/data.go) and the row numbers of a window.
func frameShapes(r *rand.Rand, n int) map[string][]int64 {
	shapes := map[string][]int64{}
	for _, name := range []string{"rows", "ship", "amount", "qty", "status"} {
		shapes[name] = make([]int64, n)
	}
	var domain [8]int64
	for i := range domain {
		domain[i] = int64(r.Uint64() >> 24)
	}
	day, amount := int64(730120), int64(1<<30)
	for i := 0; i < n; i++ {
		shapes["rows"][i] = 1234567 + int64(i)
		if r.Intn(27) == 0 {
			day++
		}
		shapes["ship"][i] = day
		amount += r.Int63n(25) - 12
		shapes["amount"][i] = amount
		shapes["qty"][i] = r.Int63n(1 << 16)
		// Skewed towards the first codes, as 1/(k+1) is.
		k := 0
		for k < 7 && r.Intn(k+2) != 0 {
			k++
		}
		shapes["status"][i] = domain[k]
	}
	return shapes
}

// fuzzInt64s decodes fuzz bytes into an array: the first byte picks
// raw 8-byte words or a delta decoding of small signed steps, which
// makes equal and successor runs common.
func fuzzInt64s(data []byte) []int64 {
	if len(data) == 0 {
		return nil
	}
	mode, data := data[0], data[1:]
	var vs []int64
	if mode&1 == 0 {
		for ; len(data) >= 8; data = data[8:] {
			vs = append(vs, int64(binary.LittleEndian.Uint64(data)))
		}
		return vs
	}
	var v int64
	if len(data) >= 8 {
		v, data = int64(binary.LittleEndian.Uint64(data)), data[8:]
	}
	for _, b := range data {
		v += int64(int8(b)) / 16 // steps of -8..7, mostly 0 and ±1 on text-like input
		vs = append(vs, v)
	}
	return vs
}

func FuzzAppendInt64s(f *testing.F) {
	f.Add([]byte{0})
	f.Add(append([]byte{0}, bytes.Repeat([]byte{0xff}, 24)...))
	f.Add([]byte{1, 0xc6, 0, 0, 0, 0, 0, 0, 0, 0x10, 0x10, 0, 0x10, 0xf0, 0xf0})
	f.Add([]byte{1, 0xf9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x10, 0x10, 0x70, 0x70})
	f.Add([]byte{1, 0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x10, 0x10, 0x10, 0x10, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkInt64s(t, "fuzz", fuzzInt64s(data))
	})
}

// BenchmarkRowsFrame measures the frame encoder per integer over one
// 4,096-value array of each column shape op=rows serves.
func BenchmarkRowsFrame(b *testing.B) {
	shapes := frameShapes(rand.New(rand.NewSource(1)), 4096)
	for _, name := range []string{"rows", "ship", "amount", "qty", "status"} {
		vs := shapes[name]
		b.Run(name, func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = appendInt64s(buf[:0], vs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(vs)), "ns/int")
			b.SetBytes(int64(len(buf)))
		})
	}
}
