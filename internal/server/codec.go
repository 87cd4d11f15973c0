package server

import (
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// maxRequestBody is the largest POST /query body the server reads.
const maxRequestBody = 1 << 20

// readBody appends all of r to buf: the request body, read through the
// caller's http.MaxBytesReader.
func readBody(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(512, cap(buf)))
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeQueryRequest decodes a POST /query body: exactly one JSON
// object, with nothing but whitespace after it. The shape every client
// sends goes through parseQueryRequest; every other body goes to
// json.Unmarshal, which is the reference for all of them and the only
// path for escapes beyond ASCII, keys in another case, unknown keys,
// null, fractions, exponents and overflow.
func decodeQueryRequest(body []byte, req *queryRequest) error {
	if parseQueryRequest(body, req) {
		return nil
	}
	// json.Unmarshal keeps its target on the heap; ref keeps req, which
	// the fast path fills, off it.
	ref := new(queryRequest)
	err := json.Unmarshal(body, ref)
	*req = *ref
	return err
}

// reqParser walks a request body for parseQueryRequest. Every method
// reports false for input outside the shape it reads, which sends the
// body to json.Unmarshal.
type reqParser struct {
	b []byte
	i int
}

// parseQueryRequest is decodeQueryRequest's fast path. It reads one
// object whose keys equal queryRequest's tags exactly; strings of
// ASCII, whose escapes (\" \\ \/ \b \f \n \r \t, or \u00XX below 0x80)
// name an ASCII character; integers -?(0|[1-9][0-9]*) that fit their
// field; true and false; columns as an array of such strings;
// whitespace wherever JSON allows it; and a repeated key, where the
// last one wins, as in json.Unmarshal. It fills req only when the
// whole body is in that shape.
func parseQueryRequest(body []byte, req *queryRequest) bool {
	p := reqParser{b: body}
	var out queryRequest
	p.ws()
	if !p.lit('{') {
		return false
	}
	p.ws()
	if !p.lit('}') {
		for {
			key, ok := p.key()
			if !ok {
				return false
			}
			p.ws()
			if !p.lit(':') {
				return false
			}
			p.ws()
			switch key {
			case "table":
				out.Table, ok = p.str()
			case "where":
				out.Where, ok = p.str()
			case "op":
				out.Op, ok = p.str("count", "sum", "rows")
			case "columns":
				out.Columns, ok = p.strs()
			case "timeout_ms":
				out.TimeoutMS, ok = p.int(64)
			case "batch_rows":
				var v int64
				v, ok = p.int(strconv.IntSize)
				out.BatchRows = int(v)
			case "limit":
				out.Limit, ok = p.int(64)
			case "allow_degraded":
				out.AllowDegraded, ok = p.bool()
			default:
				ok = false
			}
			if !ok {
				return false
			}
			p.ws()
			if p.lit('}') {
				break
			}
			if !p.lit(',') {
				return false
			}
			p.ws()
		}
	}
	p.ws()
	if p.i != len(p.b) {
		return false
	}
	*req = out
	return true
}

// ws skips JSON whitespace.
func (p *reqParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// lit consumes c if it is the next byte.
func (p *reqParser) lit(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// requestKeys are queryRequest's JSON tags, the only keys the fast
// path reads.
var requestKeys = [...]string{"table", "where", "op", "columns", "timeout_ms", "batch_rows", "limit", "allow_degraded"}

// key reads an object key, which must be one of requestKeys exactly,
// and returns that constant: a key costs no allocation.
func (p *reqParser) key() (string, bool) {
	if !p.lit('"') {
		return "", false
	}
	start := p.i
	for p.i < len(p.b) && p.b[p.i] != '"' {
		p.i++
	}
	if p.i == len(p.b) {
		return "", false
	}
	k := p.b[start:p.i]
	p.i++
	for _, name := range requestKeys {
		if string(k) == name {
			return name, true
		}
	}
	return "", false
}

// str reads a string value. A value with no escape that equals one of
// known is returned as that constant, with no allocation.
func (p *reqParser) str(known ...string) (string, bool) {
	if !p.lit('"') {
		return "", false
	}
	start := p.i
	for p.i < len(p.b) {
		switch c := p.b[p.i]; {
		case c == '"':
			raw := p.b[start:p.i]
			p.i++
			for _, k := range known {
				if string(raw) == k {
					return k, true
				}
			}
			return string(raw), true
		case c == '\\':
			return p.escaped(start)
		case c < 0x20 || c >= utf8.RuneSelf:
			return "", false
		}
		p.i++
	}
	return "", false
}

// escaped finishes a string that starts at start and has an escape at
// p.i. It takes the escapes that name an ASCII character: \" \\ \/ \b
// \f \n \r \t, and \u00XX below \u0080.
func (p *reqParser) escaped(start int) (string, bool) {
	var scratch [256]byte
	esc := append(scratch[:0], p.b[start:p.i]...)
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			p.i++
			return string(esc), true
		case c < 0x20 || c >= utf8.RuneSelf:
			return "", false
		case c != '\\':
			esc = append(esc, c)
			p.i++
			continue
		}
		rest := p.b[p.i+1:]
		if len(rest) == 0 {
			return "", false
		}
		if k := strings.IndexByte(`"\/bfnrt`, rest[0]); k >= 0 {
			esc = append(esc, "\"\\/\b\f\n\r\t"[k])
			p.i += 2
			continue
		}
		if len(rest) < 5 || string(rest[:3]) != "u00" {
			return "", false
		}
		hi, lo := unhex(rest[3]), unhex(rest[4])
		if hi > 7 || lo > 15 {
			return "", false
		}
		esc = append(esc, hi<<4|lo)
		p.i += 6
	}
	return "", false
}

// unhex is the value of hex digit c, or 16 when c is not one.
func unhex(c byte) byte {
	switch {
	case '0' <= c && c <= '9':
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10
	}
	return 16
}

// strs reads an array of strings: never nil, as json.Unmarshal makes
// even an empty array.
func (p *reqParser) strs() ([]string, bool) {
	if !p.lit('[') {
		return nil, false
	}
	out := make([]string, 0, 2)
	p.ws()
	if p.lit(']') {
		return out, true
	}
	for {
		s, ok := p.str()
		if !ok {
			return nil, false
		}
		out = append(out, s)
		p.ws()
		if p.lit(']') {
			return out, true
		}
		if !p.lit(',') {
			return nil, false
		}
		p.ws()
	}
}

// int reads an integer -?(0|[1-9][0-9]*) that fits a signed field of
// the given bits.
func (p *reqParser) int(bits int) (int64, bool) {
	neg := p.lit('-')
	start := p.i
	var u uint64
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		if p.i-start == 19 {
			return 0, false // past every int64
		}
		u = u*10 + uint64(p.b[p.i]-'0')
		p.i++
	}
	// A fraction or an exponent stops the caller at its next byte.
	if digits := p.i - start; digits == 0 || digits > 1 && p.b[start] == '0' {
		return 0, false
	}
	limit := uint64(1) << (bits - 1) // |min|; max is one less
	if neg {
		if u > limit {
			return 0, false
		}
		return -int64(u), true
	}
	if u >= limit {
		return 0, false
	}
	return int64(u), true
}

// bool reads true or false. A letter after either stops the caller at
// its next byte.
func (p *reqParser) bool() (bool, bool) {
	rest := p.b[p.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		p.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		p.i += 5
		return false, true
	}
	return false, false
}

// appendQueryResult renders res as the JSON object
//
//	{"table":…,"op":…,"where":…,"matched":…,"sums":{…},"columns":[…],"elapsed_ms":…,"degraded":[…]}
//
// followed by a newline: the fields in that order, "sums" (keyed by
// column, in key order), "columns", "elapsed_ms" and "degraded" left
// out when empty or zero, and every string, number and float written
// as json.NewEncoder's Encode writes it, HTML-safe escaping included.
// It renders the count and sum reply and the rows header frame.
// ElapsedMS must be finite, as msSince always is: encoding/json
// refuses NaN and the infinities.
func appendQueryResult(buf []byte, res *queryResult) []byte {
	buf = append(buf, `{"table":`...)
	buf = appendJSONString(buf, res.Table)
	buf = append(buf, `,"op":`...)
	buf = appendJSONString(buf, res.Op)
	buf = append(buf, `,"where":`...)
	if res.Where == nil {
		buf = append(buf, `""`...)
	} else {
		// The predicate renders at the end of the buffer, its quoted
		// copy after it, and the copy then moves down over it.
		raw := len(buf)
		buf = res.Where.AppendString(buf)
		end := len(buf)
		buf = appendJSONString(buf, buf[raw:end])
		buf = append(buf[:raw], buf[end:]...)
	}
	buf = append(buf, `,"matched":`...)
	buf = strconv.AppendInt(buf, res.Matched, 10)
	if len(res.Sums) > 0 {
		buf = append(buf, `,"sums":{`...)
		// Selection by key, smallest first: the columns are few and
		// distinct, and sorting a copy would allocate.
		var prev string
		for i := range res.SumColumns {
			next := -1
			for j, c := range res.SumColumns {
				if (i == 0 || c > prev) && (next < 0 || c < res.SumColumns[next]) {
					next = j
				}
			}
			if i > 0 {
				buf = append(buf, ',')
			}
			prev = res.SumColumns[next]
			buf = appendJSONString(buf, prev)
			buf = append(buf, ':')
			buf = strconv.AppendInt(buf, res.Sums[next], 10)
		}
		buf = append(buf, '}')
	}
	if len(res.Columns) > 0 {
		buf = append(buf, `,"columns":[`...)
		for i, c := range res.Columns {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, c)
		}
		buf = append(buf, ']')
	}
	if res.ElapsedMS != 0 {
		buf = append(buf, `,"elapsed_ms":`...)
		buf = appendJSONFloat(buf, res.ElapsedMS)
	}
	if len(res.Degraded) > 0 {
		// Only a degraded query carries the list, so it keeps
		// encoding/json, whose Marshal escapes as its Encoder does. A
		// SkippedBlock holds only strings and ints: it cannot fail.
		deg, _ := json.Marshal(res.Degraded)
		buf = append(buf, `,"degraded":`...)
		buf = append(buf, deg...)
	}
	return append(buf, "}\n"...)
}

// appendJSONFloat renders a finite float64 as encoding/json does: 'f'
// format, or 'e' outside [1e-6, 1e21) with a one-digit negative
// exponent's leading zero trimmed.
func appendJSONFloat(buf []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
}

// jsonSafe marks the ASCII bytes encoding/json writes as they are in a
// string with HTML escaping on: everything from space up but ", \, <,
// > and &.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s as encoding/json does with HTML escaping
// on: \" \\ \b \f \n \r \t, \u00XX for the other control bytes and for
// < > &, \ufffd for each byte of invalid UTF-8, and U+2028 and
// U+2029 escaped.
func appendJSONString[S string | []byte](buf []byte, s S) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch c {
			case '\\', '"':
				buf = append(buf, '\\', c)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}
