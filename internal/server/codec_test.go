package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lwcomp"
)

// pointBody is a point-cold request as the benchmark's client writes
// it: json.Marshal, whose HTML-safe escaping turns >= and <= into
// \u003e= and \u003c=.
func pointBody(tb testing.TB, op, where string, cols ...string) []byte {
	tb.Helper()
	b, err := json.Marshal(struct {
		Table   string   `json:"table"`
		Op      string   `json:"op"`
		Where   string   `json:"where"`
		Columns []string `json:"columns,omitempty"`
	}{"orders", op, where, cols})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// checkRequestCodec: whenever the fast path takes a body, json.Unmarshal
// takes it too and decodes the same request; decodeQueryRequest agrees
// with json.Unmarshal on every body.
func checkRequestCodec(t *testing.T, body []byte) (fast bool) {
	t.Helper()
	var got, want, dec queryRequest
	fast = parseQueryRequest(body, &got)
	refErr := json.Unmarshal(body, &want)
	if fast && (refErr != nil || !reflect.DeepEqual(got, want)) {
		t.Fatalf("body %q: fast path %+v, json.Unmarshal %+v (%v)", body, got, want, refErr)
	}
	if err := decodeQueryRequest(body, &dec); (err == nil) != (refErr == nil) || err == nil && !reflect.DeepEqual(dec, want) {
		t.Fatalf("body %q: decodeQueryRequest %+v (%v), json.Unmarshal %+v (%v)", body, dec, err, want, refErr)
	}
	return fast
}

// wireResult is a reply's JSON shape as encoding/json renders it: the
// reference appendQueryResult is held to.
type wireResult struct {
	Table     string                `json:"table"`
	Op        string                `json:"op"`
	Where     string                `json:"where"`
	Matched   int64                 `json:"matched"`
	Sums      map[string]int64      `json:"sums,omitempty"`
	Columns   []string              `json:"columns,omitempty"`
	ElapsedMS float64               `json:"elapsed_ms,omitempty"`
	Degraded  []lwcomp.SkippedBlock `json:"degraded,omitempty"`
}

// checkResultCodec: appendQueryResult writes json.Encoder's bytes for
// res's wireResult.
func checkResultCodec(t *testing.T, res *queryResult) {
	t.Helper()
	ref := wireResult{Table: res.Table, Op: res.Op, Matched: res.Matched,
		Columns: res.Columns, ElapsedMS: res.ElapsedMS, Degraded: res.Degraded}
	if res.Where != nil {
		ref.Where = res.Where.String()
	}
	if len(res.Sums) > 0 {
		ref.Sums = make(map[string]int64, len(res.Sums))
		for i, c := range res.SumColumns {
			ref.Sums[c] = res.Sums[i]
		}
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(ref); err != nil {
		t.Fatal(err)
	}
	if got := appendQueryResult(nil, res); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("appendQueryResult\n got %q\nwant %q", got, want.Bytes())
	}
}

// codecSeeds are request bodies for the codec test and fuzzer: the
// shapes a client sends, which the fast path must take, and the ones
// it hands to json.Unmarshal.
var codecSeeds = []struct {
	body string
	fast bool
}{
	{`{"table":"orders","op":"count","where":"ship = 12345"}`, true},
	{`{"table":"orders","op":"sum","where":"ship \u003e= 12345 and ship \u003c= 12347","columns":["qty"]}`, true},
	{` { "table" : "orders" ,` + "\n\t\r" + `"op":"rows", "columns" : [ "a" , "b" ] , "limit" : 3 , "batch_rows":0, "timeout_ms":-0, "allow_degraded":true } ` + "\n", true},
	{`{}`, true},
	{`{"columns":[]}`, true},
	{`{"columns":["a"],"columns":[]}`, true},
	{`{"table":"a","table":"b","allow_degraded":true,"allow_degraded":false}`, true},
	{`{"where":"a\"b\\c\/d\b\f\n\r\t\u0000\u007FA"}`, true},
	{`{"limit":9223372036854775807,"timeout_ms":-9223372036854775808}`, true},
	{`{"limit":9223372036854775808}`, false},
	{`{"limit":99999999999999999999}`, false},
	{`{"limit":01}`, false},
	{`{"limit":1.5}`, false},
	{`{"limit":1e3}`, false},
	{`{"limit":-}`, false},
	{`{"allow_degraded":truex}`, false},
	{`{"table":"caf\u00e9"}`, false},
	{"{\"table\":\"caf\xc3\xa9\"}", false},
	{`{"table":"\ud83d\ude00"}`, false},
	{`{"TABLE":"orders"}`, false},
	{`{"Op":"sum"}`, false},
	{`{"table":"orders","extra":1}`, false},
	{`{"x":` + strings.Repeat("[", 1500) + strings.Repeat("]", 1500) + `}`, false},
	{`null`, false},
	{`{"table":null}`, false},
	{`{"columns":null}`, false},
	{`{"columns":["a",null]}`, false},
	{`{"table":"orders","op":"count"} garbage`, false},
	{`{"table":"orders"}{}`, false},
	{`[]`, false},
	{``, false},
	{`{"table":"orders",}`, false},
	{`{"table":"a` + "\x01" + `"}`, false},
	{`{"table":"\x"}`, false},
	{`{"table":"\u00"}`, false},
	{`{"table":"\u00zz"}`, false},
	{`{"table":`, false},
	{`{"table":"orders"`, false},
	{`{"table" "orders"}`, false},
}

// TestQueryCodec: the fast path takes exactly the seeds marked fast,
// decodes each like json.Unmarshal, and a reply renders like
// json.Encoder, escapes, omitted fields and float formats included.
func TestQueryCodec(t *testing.T) {
	for _, s := range codecSeeds {
		if fast := checkRequestCodec(t, []byte(s.body)); fast != s.fast {
			t.Errorf("body %q: fast path took it = %v, want %v", s.body, fast, s.fast)
		}
	}
	for _, where := range []string{"ship >= 1 and ship <= 3", "amount = -5", "status in (1, 2)"} {
		if !checkRequestCodec(t, pointBody(t, "sum", where, "qty", "price")) {
			t.Errorf("a benchmark body with where %q left the fast path", where)
		}
	}

	for _, res := range []queryResult{
		{},
		{Table: "orders", Op: "count", Where: lwcomp.Eq("ship", 1), Matched: 7, ElapsedMS: 0.123456},
		{Table: "orders", Op: "sum", Where: lwcomp.And(lwcomp.Range("ship", 1, 3), lwcomp.In("& <x>")), Matched: -1,
			SumColumns: []string{"qty", "amount", "b"}, Sums: []int64{math.MaxInt64, math.MinInt64, 0}, ElapsedMS: 1e-7},
		{Table: "a\"\\\b\f\n\r\t\x00\x1f\x7f", Op: "\u00e9\u2028\u2029\xff\xc3", Where: lwcomp.Eq("\U0001F600", -3), ElapsedMS: 3e21},
		{Table: "t", Op: "rows", Where: lwcomp.And(), Columns: []string{"a", "<b>"}},
		{Table: "t", Op: "count", ElapsedMS: -2.5e-9, Degraded: []lwcomp.SkippedBlock{
			{Column: "amount", Block: 3, RowStart: 768, RowCount: 256, Reason: "storage: checksum mismatch"},
			{Block: -1, Reason: "a & b"},
		}},
		{SumColumns: []string{}, Sums: []int64{}, Columns: []string{}, Degraded: []lwcomp.SkippedBlock{}},
	} {
		checkResultCodec(t, &res)
	}
}

// FuzzQueryCodec: on any body up to 4 KiB the fast path decodes what
// json.Unmarshal does, or leaves the body to it; on any reply built
// from the fuzzed strings, ints and float, appendQueryResult writes
// json.Encoder's bytes.
func FuzzQueryCodec(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s.body), "orders", "sum", "ship >= 1", int64(3), 0.25)
	}
	f.Add(pointBody(f, "count", "amount >= 10 and amount <= 20"), "a<b>&", "\u2028", "\xff", int64(-1), 1e-7)
	f.Add(pointBody(f, "sum", "ship = 9", "qty"), "", "", "", int64(0), 1e21)
	f.Fuzz(func(t *testing.T, body []byte, table, op, where string, n int64, elapsed float64) {
		if len(body) > 4<<10 {
			return
		}
		checkRequestCodec(t, body)
		if math.IsNaN(elapsed) || math.IsInf(elapsed, 0) {
			return // encoding/json refuses them; msSince never makes one
		}
		res := queryResult{Table: table, Op: op, Where: lwcomp.Range(where, n, n/3), Matched: n, ElapsedMS: elapsed}
		if n%2 != 0 {
			for i, c := range []string{table, op, where} {
				if !slices.Contains(res.SumColumns, c) {
					res.SumColumns = append(res.SumColumns, c)
					res.Sums = append(res.Sums, n/int64(1-2*i))
				}
			}
			res.Columns = []string{where, table}
		}
		if n%3 == 0 {
			res.Degraded = []lwcomp.SkippedBlock{{Column: op, Block: int(n % 1000), RowStart: n, RowCount: 7, Reason: where}}
		}
		checkResultCodec(t, &res)
	})
}

// TestQueryRejectsTrailingBytes: a request body is exactly one JSON
// object. Bytes after it, or a body that is not an object, answer 400;
// whitespace after it does not.
func TestQueryRejectsTrailingBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{Dir: newTestDir(t, makeData(500))})
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"table":"orders","op":"count"} garbage`, http.StatusBadRequest},
		{`{"table":"orders","op":"count"}{"op":"sum"}`, http.StatusBadRequest},
		{`{"table":"orders","op":"count"} 1`, http.StatusBadRequest},
		{`[]`, http.StatusBadRequest},
		{`"orders"`, http.StatusBadRequest},
		{`{"table":"orders","op":"count"}` + " \n\t\r\n", http.StatusOK},
	} {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("body %q: code %d (%s), want %d", tc.body, resp.StatusCode, msg, tc.code)
		}
		if tc.code == http.StatusBadRequest && !bytes.Contains(msg, []byte("decoding request body")) {
			t.Fatalf("body %q: error %s does not name the body", tc.body, msg)
		}
	}
}

// BenchmarkQueryCodec decodes a point-cold request body and encodes a
// sum reply: the per-query cost of the wire around a point query.
func BenchmarkQueryCodec(b *testing.B) {
	body := pointBody(b, "sum", "ship >= 12345 and ship <= 12347", "qty")
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req queryRequest
			if err := decodeQueryRequest(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	where, err := lwcomp.ParsePredicate("ship >= 12345 and ship <= 12347")
	if err != nil {
		b.Fatal(err)
	}
	res := queryResult{Table: "orders", Op: "sum", Where: where, Matched: 71,
		SumColumns: []string{"qty"}, Sums: []int64{2345678}, ElapsedMS: 0.048213}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = appendQueryResult(buf[:0], &res)
		}
	})
}
