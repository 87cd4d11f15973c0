package lwcomp_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"lwcomp"
	"lwcomp/internal/sel"
	"lwcomp/internal/storage"
)

// FuzzTableScanEquivalence asserts the table-scan subsystem — the
// expression tree, the per-chunk cross-column planner (blocks on
// aligned tables, refined chunks on misaligned ones), the bitmap
// intersection ops and the late-materialized aggregation — answers
// identically to
// decompress-all-then-filter on random multi-column data and random
// expression trees. raw seeds three columns of different character
// (low-cardinality, signed walk, widened), shape steers block sizes
// (aligned and misaligned), worker counts and value derivation, and
// prog is a byte program the expression generator consumes.
func FuzzTableScanEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), []byte{4, 0, 1, 2, 5})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(7), []byte{5, 3, 0, 1, 2, 3, 4})
	f.Add([]byte{255, 0, 255, 0, 9, 9, 9, 9}, uint8(129), []byte{3, 4, 1, 1, 2, 2, 9})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(64), []byte{2, 0, 7, 7, 7})

	f.Fuzz(func(t *testing.T, raw []byte, shape uint8, prog []byte) {
		if len(raw) == 0 || len(raw) > 1024 || len(prog) == 0 || len(prog) > 48 {
			return
		}
		n := len(raw)
		data := [3][]int64{make([]int64, n), make([]int64, n), make([]int64, n)}
		var acc int64
		for i, b := range raw {
			data[0][i] = int64(b & 7) // low cardinality
			acc += int64(int8(b))
			data[1][i] = acc // signed walk
			data[2][i] = int64(b) << 20
		}
		names := [3]string{"a", "b", "c"}

		blockSizes := []int{0, 7, 64, 100}
		baseBS := blockSizes[int(shape)%len(blockSizes)]
		workers := 1 + int(shape>>6) // 1..4
		var cols []lwcomp.NamedColumn
		for ci := 0; ci < 3; ci++ {
			bs := baseBS
			if shape&0x20 != 0 {
				// Misaligned table: per-column block sizes.
				bs = blockSizes[(int(shape)+ci)%len(blockSizes)]
			}
			col, err := lwcomp.Encode(data[ci],
				lwcomp.WithBlockSize(bs), lwcomp.WithParallelism(workers))
			if err != nil {
				t.Fatalf("Encode %s: %v", names[ci], err)
			}
			cols = append(cols, lwcomp.NamedColumn{Name: names[ci], Col: col})
		}
		tbl, err := lwcomp.NewTable(cols)
		if err != nil {
			t.Fatalf("NewTable: %v", err)
		}

		// Build the expression and its naive row-filter reference in
		// lockstep from the program bytes.
		pos := 0
		read := func() byte {
			if pos < len(prog) {
				v := prog[pos]
				pos++
				return v
			}
			return 0
		}
		// value derives a comparison bound near the column's actual
		// values, so predicates are neither always-false nor
		// always-true.
		value := func(ci int) int64 {
			return data[ci][int(read())%n] + int64(int8(read()))
		}
		var gen func(depth int) (lwcomp.Expr, func(i int) bool)
		gen = func(depth int) (lwcomp.Expr, func(i int) bool) {
			op := int(read()) % 6
			if depth >= 3 {
				op %= 3 // force a leaf
			}
			ci := int(read()) % 3
			col, d := names[ci], data[ci]
			switch op {
			case 0: // range (possibly inverted: matches nothing)
				lo, hi := value(ci), value(ci)
				return lwcomp.Range(col, lo, hi),
					func(i int) bool { return d[i] >= lo && d[i] <= hi }
			case 1:
				v := value(ci)
				return lwcomp.Eq(col, v), func(i int) bool { return d[i] == v }
			case 2:
				k := 1 + int(read())%4
				vals := make([]int64, k)
				for j := range vals {
					vals[j] = value(ci)
				}
				return lwcomp.In(col, vals...), func(i int) bool {
					for _, v := range vals {
						if d[i] == v {
							return true
						}
					}
					return false
				}
			case 3:
				k, kr := gen(depth + 1)
				return lwcomp.Not(k), func(i int) bool { return !kr(i) }
			case 4:
				k1, r1 := gen(depth + 1)
				k2, r2 := gen(depth + 1)
				return lwcomp.And(k1, k2), func(i int) bool { return r1(i) && r2(i) }
			default:
				k1, r1 := gen(depth + 1)
				k2, r2 := gen(depth + 1)
				return lwcomp.Or(k1, k2), func(i int) bool { return r1(i) || r2(i) }
			}
		}
		expr, ref := gen(0)

		wantRows := []int64{}
		var wantSum int64
		wantVals := []int64{}
		for i := 0; i < n; i++ {
			if ref(i) {
				wantRows = append(wantRows, int64(i))
				wantSum += data[2][i]
				wantVals = append(wantVals, data[2][i])
			}
		}

		scan, err := tbl.Scan(expr)
		if err != nil {
			t.Fatalf("Scan(%s): %v", expr, err)
		}
		defer scan.Release()
		if got := scan.Rows(); !equal(got, wantRows) {
			t.Fatalf("Scan(%s): got %d rows, want %d (bs=%d workers=%d aligned=%v)",
				expr, len(got), len(wantRows), baseBS, workers, tbl.Aligned())
		}
		if got := scan.Count(); got != len(wantRows) {
			t.Fatalf("Count = %d, want %d", got, len(wantRows))
		}
		gotSum, err := scan.Sum("c")
		if err != nil {
			t.Fatalf("Sum: %v", err)
		}
		if gotSum != wantSum {
			t.Fatalf("Sum(%s) = %d, want %d", expr, gotSum, wantSum)
		}
		gotVals, err := scan.Materialize("c")
		if err != nil {
			t.Fatalf("Materialize: %v", err)
		}
		if !equal(gotVals, wantVals) {
			t.Fatalf("Materialize(%s): %d values, want %d", expr, len(gotVals), len(wantVals))
		}

		// The parser round-trips the rendered expression to the same
		// row set.
		back, err := lwcomp.ParsePredicate(expr.String())
		if err != nil {
			t.Fatalf("ParsePredicate(%q): %v", expr, err)
		}
		scan2, err := tbl.Scan(back)
		if err != nil {
			t.Fatalf("Scan(parsed %q): %v", expr, err)
		}
		defer scan2.Release()
		if scan2.Count() != len(wantRows) {
			t.Fatalf("parsed scan = %d rows, want %d", scan2.Count(), len(wantRows))
		}
	})
}

// FuzzFusedSchemeEquivalence asserts the fused scan+aggregate path —
// CountWhere, SumWhere and Aggregate, including the leaf fast paths
// that answer Range/Eq/In on the packed words without a selection —
// agrees exactly with both naive decompress-then-filter and the
// Scan → Count → Sum route, which runs the same driver into the
// selection sink instead of the count/sum sink. The mode bits steer
// the data generator toward different scheme families
// (low-cardinality → dict and RLE, signed walk → model and FOR, wide →
// shifted NS, sorted → linear, constant-with-outliers → RPE), so every
// fused kernel family faces its own scheme; narrow values with rare 2^30
// spikes — the benchmark's price shape — make the analyzer emit
// patch(for), the composite no kernel was written for.
func FuzzFusedSchemeEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), int64(1), int64(6))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(17), int64(-40), int64(40))
	f.Add([]byte{255, 0, 255, 0, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(34), int64(1<<22), int64(200)<<22)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(51), int64(0), int64(0))
	f.Add([]byte{7, 7, 7, 7, 200, 7, 7, 7, 7, 7, 7, 90}, uint8(68), int64(7), int64(7))
	spiky := spikySeed(f)
	f.Add(spiky, uint8(80), int64(100), int64(700))       // between the spikes
	f.Add(spiky, uint8(80), int64(900), int64(1<<30+252)) // some of them
	f.Add(spiky, uint8(80), int64(0), int64(1)<<31)       // all of them

	f.Fuzz(func(t *testing.T, raw []byte, shape uint8, lo, hi int64) {
		if len(raw) == 0 || len(raw) > 1024 {
			return
		}
		n := len(raw)
		v := make([]int64, n) // predicate + fused-sum column
		w := make([]int64, n) // second column: forces the selection path
		var acc int64
		for i, b := range raw {
			switch shape >> 4 & 7 {
			case 0: // low cardinality → dict / RLE
				v[i] = int64(b & 7)
			case 1: // signed random walk → model / FOR
				acc += int64(int8(b))
				v[i] = acc
			case 2: // wide values → shifted NS
				v[i] = int64(b) << 22
			case 3: // non-decreasing → linear / delta
				acc += int64(b)
				v[i] = acc
			case 5: // narrow with rare 2^30 spikes → patch(for)
				v[i] = spike(b)
			default: // constant with rare outliers → RPE
				v[i] = 7
				if b > 250 {
					v[i] = int64(b) << 10
				}
			}
			w[i] = int64(b) - 128
		}
		blockSizes := []int{0, 7, 64, 100}
		bs := blockSizes[int(shape)%len(blockSizes)]
		workers := 1 + int(shape>>6) // 1..4
		var cols []lwcomp.NamedColumn
		for _, c := range []struct {
			name string
			data []int64
		}{{"v", v}, {"w", w}} {
			col, err := lwcomp.Encode(c.data, lwcomp.WithBlockSize(bs), lwcomp.WithParallelism(workers))
			if err != nil {
				t.Fatalf("Encode %s: %v", c.name, err)
			}
			cols = append(cols, lwcomp.NamedColumn{Name: c.name, Col: col})
		}
		tbl, err := lwcomp.NewTable(cols)
		if err != nil {
			t.Fatalf("NewTable: %v", err)
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		inVals := []int64{v[int(shape)%n], v[(int(shape)+n/2)%n] + 1, lo}

		for _, tc := range []struct {
			expr lwcomp.Expr
			ref  func(int) bool
		}{
			{lwcomp.Range("v", lo, hi), func(i int) bool { return v[i] >= lo && v[i] <= hi }},
			{lwcomp.Eq("v", lo), func(i int) bool { return v[i] == lo }},
			{lwcomp.In("v", inVals...), func(i int) bool {
				for _, x := range inVals {
					if v[i] == x {
						return true
					}
				}
				return false
			}},
			{lwcomp.And(lwcomp.Range("v", lo, hi), lwcomp.Range("w", -64, 64)),
				func(i int) bool { return v[i] >= lo && v[i] <= hi && w[i] >= -64 && w[i] <= 64 }},
		} {
			var wantCnt, wantSumV, wantSumW int64
			wantRows := []int64{}
			for i := 0; i < n; i++ {
				if tc.ref(i) {
					wantCnt++
					wantSumV += v[i]
					wantSumW += w[i]
					wantRows = append(wantRows, int64(i))
				}
			}

			ctx := context.Background()
			cnt, err := tbl.CountWhere(ctx, tc.expr)
			if err != nil {
				t.Fatalf("CountWhere(%s): %v", tc.expr, err)
			}
			if cnt != wantCnt {
				t.Fatalf("CountWhere(%s) = %d, want %d (bs=%d workers=%d)", tc.expr, cnt, wantCnt, bs, workers)
			}
			sumV, matched, err := tbl.SumWhere(ctx, tc.expr, "v")
			if err != nil {
				t.Fatalf("SumWhere(%s, v): %v", tc.expr, err)
			}
			if sumV != wantSumV || matched != wantCnt {
				t.Fatalf("SumWhere(%s, v) = (%d, %d), want (%d, %d)", tc.expr, sumV, matched, wantSumV, wantCnt)
			}
			sumW, _, err := tbl.SumWhere(ctx, tc.expr, "w")
			if err != nil {
				t.Fatalf("SumWhere(%s, w): %v", tc.expr, err)
			}
			if sumW != wantSumW {
				t.Fatalf("SumWhere(%s, w) = %d, want %d", tc.expr, sumW, wantSumW)
			}
			agg, err := tbl.Aggregate(ctx, tc.expr, []string{"v", "w"}, lwcomp.ScanOptions{})
			if err != nil {
				t.Fatalf("Aggregate(%s): %v", tc.expr, err)
			}
			if agg.Matched != wantCnt || agg.Sums[0] != wantSumV || agg.Sums[1] != wantSumW {
				t.Fatalf("Aggregate(%s) = (%d, %v), want (%d, [%d %d])",
					tc.expr, agg.Matched, agg.Sums, wantCnt, wantSumV, wantSumW)
			}

			// The selection sink agrees with the count/sum sink — selection
			// words included.
			scan, err := tbl.Scan(tc.expr)
			if err != nil {
				t.Fatalf("Scan(%s): %v", tc.expr, err)
			}
			if got := scan.Rows(); !equal(got, wantRows) {
				scan.Release()
				t.Fatalf("Scan(%s): %d rows, want %d", tc.expr, len(got), len(wantRows))
			}
			scanSum, err := scan.Sum("v")
			scan.Release()
			if err != nil || scanSum != sumV {
				t.Fatalf("Scan.Sum(%s) = (%d, %v), fused = %d", tc.expr, scanSum, err, sumV)
			}
		}
	})
}

// FuzzSelectRangeEquivalence asserts the compressed-scan subsystem —
// bitmap selections, fused unpack-and-compare kernels, block
// skipping, parallel block merge — answers range queries identically
// to naive decompress-then-filter, across random columns, block
// sizes, worker counts and ranges. The value mode byte steers the
// generator toward different scheme families (low-cardinality, signed
// walks, wide values, sorted, narrow with rare spikes) so the analyzer
// picks diverse per-block composites, patch(for) among them.
func FuzzSelectRangeEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), int64(2), int64(6))
	f.Add([]byte{255, 0, 255, 0, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(17), int64(-5), int64(300))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(34), int64(100), int64(110))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(51), int64(0), int64(0))
	f.Add([]byte{128, 7, 3, 200, 90, 1, 1, 1, 64, 64, 64, 32}, uint8(70), int64(1<<20), int64(1)<<30)
	spiky := spikySeed(f)
	f.Add(spiky, uint8(80), int64(100), int64(700))       // one block, between the spikes
	f.Add(spiky, uint8(84), int64(900), int64(1<<30+252)) // 1000-row blocks, some of them

	f.Fuzz(func(t *testing.T, raw []byte, shape uint8, lo, hi int64) {
		if len(raw) == 0 || len(raw) > 2048 {
			return
		}
		data := make([]int64, len(raw))
		var acc int64
		for i, b := range raw {
			mode := shape >> 4 & 7
			if mode != 5 {
				mode &= 3
			}
			switch mode {
			case 5: // narrow with rare 2^30 spikes
				data[i] = spike(b)
			case 0: // low cardinality, non-negative
				data[i] = int64(b & 15)
			case 1: // signed random walk
				acc += int64(int8(b))
				data[i] = acc
			case 2: // wide values
				data[i] = int64(b) << 22
			case 3: // non-decreasing
				acc += int64(b)
				data[i] = acc
			}
		}
		blockSizes := []int{0, 7, 64, 100, 1000}
		bs := blockSizes[int(shape)%len(blockSizes)]
		workers := 1 + int(shape>>6) // 1..4
		col, err := lwcomp.Encode(data, lwcomp.WithBlockSize(bs), lwcomp.WithParallelism(workers))
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if lo > hi {
			lo, hi = hi, lo
		}

		// Naive reference: filter the raw data.
		wantRows := []int64{}
		for i, v := range data {
			if v >= lo && v <= hi {
				wantRows = append(wantRows, int64(i))
			}
		}

		rows, err := col.SelectRange(lo, hi)
		if err != nil {
			t.Fatalf("SelectRange: %v", err)
		}
		if !equal(rows, wantRows) {
			t.Fatalf("SelectRange mismatch: got %d rows, want %d (bs=%d workers=%d range=[%d,%d])",
				len(rows), len(wantRows), bs, workers, lo, hi)
		}
		count, err := col.CountRange(lo, hi)
		if err != nil {
			t.Fatalf("CountRange: %v", err)
		}
		if count != int64(len(wantRows)) {
			t.Fatalf("CountRange = %d, want %d", count, len(wantRows))
		}
		bm, err := col.SelectRangeSel(lo, hi)
		if err != nil {
			t.Fatalf("SelectRangeSel: %v", err)
		}
		if got := bm.Rows(); !equal(got, wantRows) {
			bm.Release()
			t.Fatalf("SelectRangeSel mismatch: got %d rows, want %d", len(got), len(wantRows))
		}
		bm.Release()

		// The decode path the scans are asserted against must itself
		// round-trip.
		back, err := col.Decompress()
		if err != nil || !equal(back, data) {
			t.Fatalf("Decompress roundtrip: %v", err)
		}
	})
}

// spike maps a fuzz byte to the benchmark's price shape: a narrow value,
// or for the few largest bytes a spike near 2^30.
func spike(b byte) int64 {
	if b > 250 {
		return 1<<30 + int64(b)
	}
	return int64(b) * 4
}

// spikySeed returns fuzz bytes whose spike column the analyzer encodes,
// as one block, as patch(base=for(...)) — checked here, so a seed that
// stopped reaching the patch rule says so.
func spikySeed(f *testing.F) []byte {
	raw := make([]byte, 700)
	data := make([]int64, len(raw))
	for i := range raw {
		raw[i] = byte(i * 37 % 250)
	}
	raw[0], raw[40], raw[41], raw[199], raw[263], raw[699] = 253, 255, 251, 254, 252, 255
	for i, b := range raw {
		data[i] = spike(b)
	}
	col, err := lwcomp.Encode(data, lwcomp.WithBlockSize(0))
	if err != nil {
		f.Fatal(err)
	}
	form, err := col.BlockForm(0)
	if err != nil {
		f.Fatal(err)
	}
	if got := form.Describe(); !strings.HasPrefix(got, "patch(base=for(") {
		f.Fatalf("spiky seed encodes as %s, want patch(base=for(...))", got)
	}
	return raw
}

// FuzzOpenCorrupt asserts the fault-tolerance contract of the whole
// read stack over arbitrary corruption: mutate any byte of a valid v3
// container, open it and query it, and nothing may panic or hang —
// every failure is a classified error (ErrCorrupt / ErrChecksum /
// ErrCorruptForm / ErrUnknownScheme / ErrQuarantined), and a degraded
// table scan over the same bytes either fails the same way or answers
// with the omission recorded in its manifest. The container is either
// one assembled here, whose last block is hostile, or — when fixture
// is set — the checked-in delta fixture (deltaFixture), whose delta
// forms have no first-value parameter and which intact answers every
// query.
func FuzzOpenCorrupt(f *testing.F) {
	vals := make([]int64, 1024)
	for i := range vals {
		vals[i] = int64((i * 31) % 257)
	}
	col, err := lwcomp.Encode(vals, lwcomp.WithBlockSize(128))
	if err != nil {
		f.Fatal(err)
	}
	// The container is assembled raw so that its last block can be one
	// no writer would emit: a checksum-valid payload whose patch
	// positions repeat. Left unmutated it must fail every query the way
	// any corrupt form does — decode and the pushed-down verbs alike.
	raw := storage.RawColumn{Name: "c", BlockSize: col.BlockSize}
	for i := range col.Blocks {
		b := &col.Blocks[i]
		enc, err := lwcomp.EncodeForm(b.Form)
		if err != nil {
			f.Fatal(err)
		}
		raw.Blocks = append(raw.Blocks, storage.RawBlock{Count: b.Count, HasStats: true, Min: b.Min, Max: b.Max,
			Certificate: b.Certificate, Payload: enc})
	}
	hostile, err := lwcomp.PFOR(64).Compress([]int64{5, 6, 1 << 40, 7, 5, 1 << 41, 6, 7})
	if err != nil {
		f.Fatal(err)
	}
	hostile.Children["positions"].Leaf[1] = hostile.Children["positions"].Leaf[0]
	enc, err := lwcomp.EncodeForm(hostile)
	if err != nil {
		f.Fatal(err)
	}
	raw.Blocks = append(raw.Blocks, storage.RawBlock{Count: hostile.N, HasStats: true, Min: 5, Max: 1 << 41, Payload: enc})
	var buf bytes.Buffer
	if err := storage.WriteContainerV3Raw(&buf, []storage.RawColumn{raw}); err != nil {
		f.Fatal(err)
	}
	template := buf.Bytes()
	// The index opens with ncols (1 byte), the name (2), the block size
	// and row count (2 each), nblocks (1) and block 0's count (2); then
	// comes block 0's flag, 3 for the certified blocks the encoder
	// writes.
	const flag0 = 14 + 1 + 2 + 2 + 2 + 1 + 2
	if template[flag0] != 3 {
		f.Fatalf("block 0 has index flag %d, want 3 (stats and certificate)", template[flag0])
	}

	f.Add(uint32(0), byte(0), false)                          // intact bytes: only the hostile block fails
	f.Add(uint32(0), byte(0xFF), false)                       // magic
	f.Add(uint32(5), byte(0x80), false)                       // version
	f.Add(uint32(9), byte(0x01), false)                       // index length
	f.Add(uint32(40), byte(0x10), false)                      // inside the index
	f.Add(uint32(uint32(len(template)-8)), byte(0x04), false) // payload tail
	f.Add(uint32(flag0), byte(0x07), false)                   // block 0's flag 3 -> 4
	fixture, err := os.ReadFile(filepath.FromSlash(deltaFixture))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint32(0), byte(0), true)                           // intact: every query answers
	f.Add(uint32(60), byte(0x01), true)                       // inside the index
	f.Add(uint32(uint32(len(fixture)-100)), byte(0x08), true) // a payload

	allowed := func(err error) bool {
		for _, sentinel := range []error{
			lwcomp.ErrCorrupt, lwcomp.ErrChecksum, lwcomp.ErrCorruptForm,
			lwcomp.ErrUnknownScheme, lwcomp.ErrQuarantined,
		} {
			if errors.Is(err, sentinel) {
				return true
			}
		}
		return false
	}

	f.Fuzz(func(t *testing.T, pos uint32, mut byte, useFixture bool) {
		data, col, lo, hi := append([]byte(nil), template...), "c", int64(10), int64(200)
		if useFixture {
			data, col, lo, hi = append([]byte(nil), fixture...), "walk", 1<<30+500, 1<<30+1100
		}
		data[int(pos)%len(data)] ^= mut
		// Intact, the hostile block is the template's only fault, and
		// each path must find it; the fixture has none.
		intact := mut == 0
		hostile := func(err error) bool {
			if useFixture {
				return err == nil
			}
			return errors.Is(err, lwcomp.ErrCorruptForm)
		}

		c, err := lwcomp.OpenReader(bytes.NewReader(data), int64(len(data)), lwcomp.WithBlockCache(-1), lwcomp.WithColumn(col))
		if err != nil {
			if !allowed(err) {
				t.Fatalf("open: unclassified error %v", err)
			}
		} else {
			_, err := c.Sum()
			if err != nil && !allowed(err) || intact && !hostile(err) {
				t.Fatalf("sum: error %v", err)
			}
			_, err = c.CountRange(lo, hi)
			if err != nil && !allowed(err) || intact && !hostile(err) {
				t.Fatalf("count: error %v", err)
			}
			// A block that failed permanently above must now be
			// quarantined: the second pass fails fast, same class.
			_, err = c.Decompress()
			if err != nil && !allowed(err) || intact && (err == nil) != useFixture {
				t.Fatalf("decompress: error %v", err)
			}
		}

		tbl, err := lwcomp.OpenTableReader(bytes.NewReader(data), int64(len(data)),
			lwcomp.WithBlockCache(-1), lwcomp.WithDegradedScan(true))
		if err != nil {
			if !allowed(err) {
				t.Fatalf("open table: unclassified error %v", err)
			}
			return
		}
		defer tbl.Close()
		scan, err := tbl.Scan(lwcomp.Range(col, lo, hi))
		if err != nil {
			if !allowed(err) {
				t.Fatalf("degraded scan: unclassified error %v", err)
			}
			return
		}
		defer scan.Release()
		if _, err := scan.Sum(col); err != nil && !allowed(err) {
			t.Fatalf("degraded sum: unclassified error %v", err)
		}
		// Whatever was skipped is accounted for, exactly once each.
		seen := map[int]bool{}
		for _, sb := range scan.Manifest().Skipped() {
			if seen[sb.Block] && sb.Column == col {
				t.Fatalf("manifest lists block %d twice", sb.Block)
			}
			seen[sb.Block] = true
			if sb.RowCount <= 0 || sb.Reason == "" {
				t.Fatalf("malformed manifest entry %+v", sb)
			}
		}
	})
}

// FuzzUpgrade drives the upgrade path — storage.ReadLegacy, then a v3
// write — over mutations of the checked-in v1 and v2 containers.
// ReadLegacy must never panic and must classify every rejection as
// ErrCorrupt or ErrChecksum; an input it accepts must write a v3
// container whose every column OpenReader opens and decodes to the
// legacy column's values, with the same block stats.
func FuzzUpgrade(f *testing.F) {
	for _, name := range []string{"v1.lwc", "v2.lwc"} {
		data := legacyFixture(f, name)
		for _, k := range []int{len(data), len(data) - 1, len(data) / 2, 10, 4, 0} {
			f.Add(data[:k])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cols, err := storage.ReadLegacy(data)
		if err != nil {
			if !errors.Is(err, lwcomp.ErrCorrupt) && !errors.Is(err, lwcomp.ErrChecksum) {
				t.Fatalf("unclassified rejection: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := lwcomp.WriteColumns(&buf, cols); err != nil {
			t.Fatalf("accepted input does not write as v3: %v", err)
		}
		v3 := buf.Bytes()
		seen := map[string]bool{}
		for _, c := range cols {
			if seen[c.Name] || c.Col.N > 1<<16 {
				// WithColumn picks the first column of a name. A form's
				// declared rows are not bounded by its bytes (a const
				// form of 2^31 rows is a dozen bytes), so columns far
				// larger than the fixtures' are not decoded here.
				continue
			}
			seen[c.Name] = true
			up, err := lwcomp.OpenReader(bytes.NewReader(v3), int64(len(v3)), lwcomp.WithColumn(c.Name))
			if err != nil {
				t.Fatalf("column %q: upgraded container does not open: %v", c.Name, err)
			}
			for i := range c.Col.Blocks {
				w, g := &c.Col.Blocks[i], &up.Blocks[i]
				if g.HasStats != w.HasStats || g.Min != w.Min || g.Max != w.Max || g.Count != w.Count {
					t.Fatalf("column %q block %d: index %+v, legacy %+v", c.Name, i, g, w)
				}
			}
			want, werr := c.Col.Decompress()
			got, gerr := up.Decompress()
			if (werr == nil) != (gerr == nil) || werr == nil && !equal(got, want) {
				t.Fatalf("column %q: legacy decodes (%v), upgraded decodes (%v) to other values", c.Name, werr, gerr)
			}
			up.Close()
		}
	})
}

// FuzzConjunctKeep asserts conjunct evaluation — the first leaf of an
// AND selects and each later Range/Eq leaf keeps, clearing the rows it
// fails in the running selection and reading only the rows that
// selection holds — answers as decompress-then-filter does, and, block
// by block, as selecting every leaf and ANDing the selections does.
// Three columns, a low-cardinality one, a 16-bit one and a signed walk,
// are each compressed with the scheme the byte program picks (ns, for,
// patch(for), dict, delta or rle), and an AND of two or three Range/Eq
// leaves filters them. Leaf bounds are quantiles of the column's own
// values, so the first leaf's density runs from a few rows to all of
// them, and blocks hold at least 128 rows, so the payload kernels walk
// runs of whole 64-row groups.
func FuzzConjunctKeep(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), []byte{0, 0, 10, 200, 1, 0, 255, 2, 50, 60})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(9), []byte{1, 1, 3, 3, 2, 30, 240, 0, 5, 5, 7, 8})
	f.Add([]byte{255, 0, 128, 64, 9, 9, 9, 1}, uint8(22), []byte{1, 4, 0, 128, 5, 128, 128, 3, 0, 255, 1, 2})
	f.Add([]byte{7, 7, 7, 7, 200, 100, 50, 25}, uint8(35), []byte{0, 2, 1, 2, 3, 250, 255, 4, 0, 20, 9, 9})
	schemes := []lwcomp.Scheme{lwcomp.NS(), lwcomp.FORNS(64), lwcomp.PFOR(64), lwcomp.DictNS(),
		lwcomp.Compose(lwcomp.Delta(), map[string]lwcomp.Scheme{"deltas": lwcomp.NS()}), lwcomp.RLENS()}
	names := []string{"low", "wide", "walk"}
	f.Fuzz(func(t *testing.T, raw []byte, shape uint8, prog []byte) {
		if len(raw) == 0 || len(raw) > 1024 || len(prog) < 10 {
			return
		}
		n := 256 + 197*int(shape%8) // 256..1635 rows
		bs := []int{128, 200, 256, 333}[shape>>3%4]
		data := [3][]int64{make([]int64, n), make([]int64, n), make([]int64, n)}
		var acc int64
		for i := range n {
			b, c := raw[i%len(raw)], raw[(7*i+3)%len(raw)]
			data[0][i] = int64((b ^ byte(i/len(raw))) & 7)
			data[1][i] = int64(b)<<8 | int64(c^byte(i))
			acc += int64(int8(b ^ c))
			data[2][i] = acc
		}
		cols := make([]lwcomp.NamedColumn, 3)
		for k := range cols {
			col, err := lwcomp.Encode(data[k], lwcomp.WithBlockSize(bs), lwcomp.WithParallelism(1),
				lwcomp.WithScheme(schemes[int(prog[1+k])%len(schemes)]))
			if err != nil {
				t.Fatalf("Encode %s: %v", names[k], err)
			}
			cols[k] = lwcomp.NamedColumn{Name: names[k], Col: col}
		}
		tbl, err := lwcomp.NewTable(cols)
		if err != nil {
			t.Fatal(err)
		}
		// The leaves, each on a column and a quantile range of it.
		type leaf struct {
			col    int
			lo, hi int64
		}
		leaves := make([]leaf, 2+int(prog[0])%2)
		exprs := make([]lwcomp.Expr, len(leaves))
		for j := range leaves {
			p := prog[4+2*j:]
			k := (j + int(prog[1+j%3])) % 3
			sorted := slices.Clone(data[k])
			slices.Sort(sorted)
			lo, hi := sorted[int(p[0])*(n-1)/255], sorted[int(p[1])*(n-1)/255]
			if lo > hi {
				lo, hi = hi, lo
			}
			if p[0]%5 == 0 {
				hi = lo // an Eq leaf
			}
			leaves[j] = leaf{k, lo, hi}
			exprs[j] = lwcomp.Range(names[k], lo, hi)
		}
		var wantN, wantSum int64
	rows:
		for i := range n {
			for _, l := range leaves {
				if v := data[l.col][i]; v < l.lo || v > l.hi {
					continue rows
				}
			}
			wantN++
			wantSum += data[1][i]
		}
		expr := lwcomp.And(exprs...)
		ctx := context.Background()
		if got, err := tbl.CountWhere(ctx, expr); err != nil || got != wantN {
			t.Fatalf("CountWhere(%v) = %d, %v; want %d", expr, got, err, wantN)
		}
		if got, matched, err := tbl.SumWhere(ctx, expr, "wide"); err != nil || got != wantSum || matched != wantN {
			t.Fatalf("SumWhere(%v) = %d over %d, %v; want %d over %d", expr, got, matched, err, wantSum, wantN)
		}
		// Block by block: keep each later leaf into the first leaf's
		// selection, against select-then-And.
		for b := range cols[0].Col.Blocks {
			count := cols[0].Col.Blocks[b].Count
			kept, anded, tmp := sel.New(count), sel.New(count), sel.New(count)
			l := leaves[0]
			for _, s := range []*sel.Selection{kept, anded} {
				if err := cols[l.col].Col.SelectBlockRangeSel(b, l.lo, l.hi, s, 0); err != nil {
					t.Fatalf("block %d: select: %v", b, err)
				}
			}
			for _, l := range leaves[1:] {
				if err := cols[l.col].Col.KeepBlockRange(b, l.lo, l.hi, kept); err != nil {
					t.Fatalf("block %d: keep: %v", b, err)
				}
				tmp.Reset(count)
				if err := cols[l.col].Col.SelectBlockRangeSel(b, l.lo, l.hi, tmp, 0); err != nil {
					t.Fatalf("block %d: select: %v", b, err)
				}
				if err := anded.And(tmp); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(kept.Rows(), anded.Rows()) {
					t.Fatalf("block %d (%s), leaf %s in [%d, %d]: keep holds %d rows, select-then-And %d",
						b, cols[l.col].Col.BlockSchemes()[b], names[l.col], l.lo, l.hi, kept.Count(), anded.Count())
				}
			}
		}
	})
}
