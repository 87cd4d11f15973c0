package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"lwcomp"
)

// rowsReply is an op=rows body taken apart: the header's match count,
// the frames' rows and per-column values in stream order, and the
// terminal frame.
type rowsReply struct {
	matched  int64
	rows     []int64
	cols     [][]int64
	done     bool
	streamed int64
}

// serveRows runs one op=rows request through the handler and parses
// the NDJSON body, failing the test on a frame over maxBatch rows or a
// frame whose columns and rows differ in length.
func serveRows(t *testing.T, h http.Handler, req queryRequest, maxBatch int) rowsReply {
	t.Helper()
	body, _ := json.Marshal(req)
	hr, err := http.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	h.ServeHTTP(rec, hr)
	if rec.status != http.StatusOK {
		t.Fatalf("status %d: %s", rec.status, rec.body.Bytes())
	}
	reply := rowsReply{cols: make([][]int64, len(req.Columns))}
	sc := bufio.NewScanner(&rec.body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for first := true; sc.Scan(); first = false {
		if first {
			var hdr queryResult
			if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
				t.Fatalf("bad header frame %s: %v", sc.Bytes(), err)
			}
			reply.matched = hdr.Matched
			continue
		}
		var frame struct {
			Rows     []int64   `json:"rows"`
			Cols     [][]int64 `json:"cols"`
			Done     *bool     `json:"done"`
			Streamed int64     `json:"streamed"`
			Error    string    `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
			t.Fatalf("bad frame %s: %v", sc.Bytes(), err)
		}
		if frame.Error != "" {
			t.Fatalf("stream error frame: %s", frame.Error)
		}
		if frame.Done != nil {
			reply.done, reply.streamed = *frame.Done, frame.Streamed
			continue
		}
		if reply.done {
			t.Fatal("row frame after the terminal frame")
		}
		if len(frame.Rows) == 0 || len(frame.Rows) > maxBatch {
			t.Fatalf("frame of %d rows, want 1..%d", len(frame.Rows), maxBatch)
		}
		if len(frame.Cols) != len(req.Columns) {
			t.Fatalf("frame has %d columns, want %d", len(frame.Cols), len(req.Columns))
		}
		reply.rows = append(reply.rows, frame.Rows...)
		for i, c := range frame.Cols {
			if len(c) != len(frame.Rows) {
				t.Fatalf("frame column %d has %d values for %d rows", i, len(c), len(frame.Rows))
			}
			reply.cols[i] = append(reply.cols[i], c...)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return reply
}

// TestRowsStreamGolden: whatever the frame size, the limit, the
// selection's density and the table's alignment, the op=rows body
// decodes to exactly the naive oracle's rows and values, no frame
// exceeds batch_rows, and matched / streamed / done are what they
// were before frames could alias decode buffers.
func TestRowsStreamGolden(t *testing.T) {
	d := makeData(3000)
	aligned := newTestDir(t, d)
	// The same table with every column cut differently: chunks are the
	// pieces no boundary crosses, far smaller than any block.
	misaligned := t.TempDir()
	for _, c := range []struct {
		name  string
		vals  []int64
		block int
	}{{"date", d.date, 256}, {"status", d.status, 384}, {"amount", d.amount, 100}} {
		col, err := lwcomp.Encode(c.vals, lwcomp.WithBlockSize(c.block))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := lwcomp.WriteColumns(&buf, []lwcomp.NamedColumn{{Name: c.name, Col: col}}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(misaligned, "orders."+c.name+".lwc"), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	predicates := []struct {
		where string
		keep  func(i int) bool
	}{
		// A window: a partial first block, whole blocks, a partial last.
		{"date >= 100 and date <= 600", func(i int) bool { return d.date[i] >= 100 && d.date[i] <= 600 }},
		// Every fifth row of the upper part: no block is fully selected.
		{"status = 2 and amount >= 500", func(i int) bool { return d.status[i] == 2 && d.amount[i] >= 500 }},
		{"", func(int) bool { return true }},
	}
	for name, dir := range map[string]string{"aligned": aligned, "misaligned": misaligned} {
		srv, err := New(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		h := srv.Handler()
		if tbl, _ := srv.Table("orders"); tbl.Aligned() != (name == "aligned") {
			t.Fatalf("%s table reports Aligned() = %v", name, tbl.Aligned())
		}
		for _, p := range predicates {
			var want rowsReply
			want.cols = make([][]int64, 2)
			for i := 0; i < d.n; i++ {
				if p.keep(i) {
					want.rows = append(want.rows, int64(i))
					want.cols[0] = append(want.cols[0], d.amount[i])
					want.cols[1] = append(want.cols[1], d.date[i])
				}
			}
			matched := len(want.rows)
			// Limits that end mid-frame and mid-block, and none.
			for _, limit := range []int{0, 77, matched/2 + 3} {
				for _, batch := range []int{1, 16, 4096, matched + 1000} {
					keep := matched
					if limit > 0 {
						keep = min(limit, matched)
					}
					got := serveRows(t, h, queryRequest{Table: "orders", Where: p.where, Op: "rows",
						Columns: []string{"amount", "date"}, BatchRows: batch, Limit: int64(limit)}, batch)
					id := fmt.Sprintf("%s %q limit=%d batch_rows=%d", name, p.where, limit, batch)
					if got.matched != int64(matched) || !got.done || got.streamed != int64(keep) {
						t.Fatalf("%s: matched=%d done=%v streamed=%d, want %d true %d",
							id, got.matched, got.done, got.streamed, matched, keep)
					}
					if !slices.Equal(got.rows, want.rows[:keep]) {
						t.Fatalf("%s: rows diverge from the oracle (%d streamed, want %d)", id, len(got.rows), keep)
					}
					for c := range want.cols {
						if !slices.Equal(got.cols[c], want.cols[c][:keep]) {
							t.Fatalf("%s: column %d diverges from the oracle", id, c)
						}
					}
				}
			}
		}
	}
}

// TestBatchRowsCap: a batch_rows past maxBatchRows, asked by a request
// or by the server's default, streams frames of at most maxBatchRows
// rows, and the frame buffer such a stream grows is not kept in
// framePool.
func TestBatchRowsCap(t *testing.T) {
	n := maxBatchRows + 4500
	// Three columns of 20-character values: a full frame's text alone
	// is larger than maxPooledFrame.
	names := []string{"a", "b", "c"}
	cols := make([][]int64, len(names))
	dir := t.TempDir()
	for c, name := range names {
		cols[c] = make([]int64, n)
		for i := range cols[c] {
			cols[c][i] = math.MinInt64 + int64(i*len(names)+c)
		}
		writeColumnFile(t, filepath.Join(dir, "wide."+name+".lwc"), cols[c])
	}
	for _, tc := range []struct {
		name         string
		cfg, request int
	}{{"request", 0, 1 << 30}, {"default", 1 << 30, 0}} {
		srv, err := New(Config{Dir: dir, BatchRows: tc.cfg})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		got := serveRows(t, srv.Handler(), queryRequest{Table: "wide", Op: "rows", Columns: names, BatchRows: tc.request}, maxBatchRows)
		if !got.done || got.streamed != int64(n) {
			t.Fatalf("%s: streamed %d rows (done=%v), want all %d", tc.name, got.streamed, got.done, n)
		}
		for c := range cols {
			if !slices.Equal(got.cols[c], cols[c]) {
				t.Fatalf("%s: column %s diverges", tc.name, names[c])
			}
		}
		for i := 0; i < 4; i++ {
			if frame := framePool.Get().(*[]byte); cap(*frame) > maxPooledFrame {
				t.Fatalf("%s: framePool holds a %d-byte frame buffer, bound %d", tc.name, cap(*frame), maxPooledFrame)
			}
		}
	}
}
