package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// leaf is one comparison of a predicate: lo ≤ column ≤ hi, with
// math.MinInt64 / math.MaxInt64 standing for an open side. It mirrors
// what lwcd's parser builds — a two-sided range in the request text
// is two leaves, exactly as the server evaluates it.
type leaf struct {
	col    int
	lo, hi int64
}

func (l leaf) String() string {
	name := colNames[l.col]
	switch {
	case l.lo == l.hi:
		return name + " = " + strconv.FormatInt(l.lo, 10)
	case l.lo == math.MinInt64:
		return name + " <= " + strconv.FormatInt(l.hi, 10)
	default:
		return name + " >= " + strconv.FormatInt(l.lo, 10)
	}
}

func atMost(col int, v int64) leaf  { return leaf{col, math.MinInt64, v} }
func atLeast(col int, v int64) leaf { return leaf{col, v, math.MaxInt64} }
func equals(col int, v int64) leaf  { return leaf{col, v, v} }

// request is one pre-generated operation against lwcd: the conjunction
// of its leaves, the op, and the sum/projection columns, plus the
// exact POST /query body.
type request struct {
	op     string // count | sum | rows
	leaves []leaf
	cols   []int
	where  string
	body   []byte
}

func (r *request) columnNames() []string {
	names := make([]string, len(r.cols))
	for i, c := range r.cols {
		names[i] = colNames[c]
	}
	return names
}

// key identifies the request's parameters; two requests with the same
// key would be one cacheable query, which the generators never emit.
func (r *request) key() string { return r.op + "|" + r.where + "|" + fmt.Sprint(r.cols) }

func (r *request) finish() {
	parts := make([]string, len(r.leaves))
	for i, l := range r.leaves {
		parts[i] = l.String()
	}
	r.where = strings.Join(parts, " and ")
	body := struct {
		Table   string   `json:"table"`
		Op      string   `json:"op"`
		Where   string   `json:"where"`
		Columns []string `json:"columns,omitempty"`
	}{"orders", r.op, r.where, r.columnNames()}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // strings and string slices always marshal
	}
	r.body = b
}

// generateRequests builds n distinct requests for a serve workload
// from the seed and the dataset. Op i instantiates template i mod
// len(templates): the mix of query shapes is the same fixed rotation
// under every seed, and the seed draws only the constants — from
// values the data actually holds, so no query is vacuous. (Drawing the
// shape at random too made the share of expensive shapes, and with it
// every latency percentile, wander by several percent from seed to
// seed.) stream separates the warm-up list from the timed list.
func generateRequests(workload string, d *dataset, seed int64, stream uint64, n int) []request {
	templates, ok := templatesOf[workload]
	if !ok {
		panic("benchmark: no request templates for " + workload)
	}
	p := &params{r: newRNG(seed, 5000+stream), d: d, domain: statusDomain(seed)}
	seen := make(map[string]struct{}, n)
	out := make([]request, 0, n)
	for dups := 0; len(out) < n; {
		req := templates[len(out)%len(templates)](p)
		req.finish()
		k := req.key()
		if _, dup := seen[k]; dup {
			if dups++; dups > 100*n+1000 {
				panic(fmt.Sprintf("benchmark: %s template %d cannot yield %d distinct requests", workload, len(out)%len(templates), n))
			}
			continue
		}
		seen[k] = struct{}{}
		out = append(out, req)
	}
	return out
}

// requestsSHA256 fingerprints a request list for the determinism test.
func requestsSHA256(reqs []request) string {
	h := sha256.New()
	for i := range reqs {
		h.Write(reqs[i].body)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// params is what a template draws its constants from.
type params struct {
	r      *rng
	d      *dataset
	domain [8]int64
}

// Conditions on the unclustered columns — every block spans the whole
// value range, so block stats can neither skip nor prove anything.
func (p *params) qtyBelow() []leaf { return []leaf{atMost(colQty, p.r.between(3000, 40000))} }
func (p *params) qtyAbove() []leaf { return []leaf{atLeast(colQty, p.r.between(25000, 62000))} }
func (p *params) qtyRange() []leaf {
	a := p.r.between(0, 45000)
	return []leaf{atLeast(colQty, a), atMost(colQty, a+p.r.between(2000, 20000))}
}
func (p *params) statusIs() []leaf   { return []leaf{equals(colStatus, p.domain[p.r.intn(8)])} }
func (p *params) priceBelow() []leaf { return []leaf{atMost(colPrice, p.r.between(64, 960))} }
func (p *params) priceAbove() []leaf { return []leaf{atLeast(colPrice, p.r.between(64, 960))} }

// Conditions on the clustered columns, anchored at a value some row
// holds — block stats refute nearly every block.
func (p *params) shipDay() []leaf {
	return []leaf{equals(colShip, p.d.cols[colShip][p.r.intn(int64(p.d.rows))])}
}
func (p *params) shipDays() []leaf {
	day := p.d.cols[colShip][p.r.intn(int64(p.d.rows))]
	return []leaf{atLeast(colShip, day), atMost(colShip, day+p.r.between(1, 3))}
}
func (p *params) amountNear() []leaf {
	a, w := p.d.cols[colAmount][p.r.intn(int64(p.d.rows))], p.r.intn(40)
	return []leaf{atLeast(colAmount, a-w), atMost(colAmount, a+w)}
}

// rowsWindowDays is the width of a rows-stream ship window; with ~23
// rows per day it selects ~35k rows across 2–4 blocks.
const rowsWindowDays = 1500

func (p *params) shipWindow() []leaf {
	ship := p.d.cols[colShip]
	width := rowsWindowDays - 100 + p.r.intn(201)
	first, last := ship[0], ship[len(ship)-1]
	if span := last - first; width > span {
		width = span // smoke-scale tables are shorter than one window
	}
	day := ship[p.r.intn(int64(p.d.rows))]
	if day+width > last {
		day = last - width
	}
	return []leaf{atLeast(colShip, day), atMost(colShip, day+width)}
}

// count and sum build a template from condition drawers.
func count(conds ...func(*params) []leaf) func(*params) request {
	return func(p *params) request {
		req := request{op: "count"}
		for _, c := range conds {
			req.leaves = append(req.leaves, c(p)...)
		}
		return req
	}
}

func sum(col int, conds ...func(*params) []leaf) func(*params) request {
	return func(p *params) request {
		req := count(conds...)(p)
		req.op, req.cols = "sum", []int{col}
		return req
	}
}

// rowsPairs are the 30 ordered pairs of distinct columns, each a
// template streaming a ship window projected onto that pair.
func rowsPairs() []func(*params) request {
	var ts []func(*params) request
	for a := 0; a < numCols; a++ {
		for b := 0; b < numCols; b++ {
			if a != b {
				ts = append(ts, func(p *params) request {
					return request{op: "rows", leaves: p.shipWindow(), cols: []int{a, b}}
				})
			}
		}
	}
	return ts
}

// templatesOf is each serve workload's fixed rotation of query
// shapes. scan-hot leans on qty and status, whose NS and DICT blocks
// the fused kernels scan in place; price, whose patched-FOR blocks
// fall back to decode-then-filter at several times the cost, takes
// part in a quarter of the ops so the fallback is measured without
// drowning the fused engine.
var templatesOf = map[string][]func(*params) request{
	"scan-hot": {
		count((*params).qtyBelow),
		count((*params).statusIs, (*params).qtyAbove),
		sum(colQty, (*params).qtyBelow),
		count((*params).qtyRange),
		count((*params).priceBelow),
		sum(colQty, (*params).statusIs, (*params).qtyAbove),
		count((*params).qtyAbove),
		count((*params).qtyBelow, (*params).statusIs),
		sum(colAmount, (*params).qtyBelow),
		count((*params).qtyAbove),
		count((*params).priceAbove, (*params).statusIs),
		sum(colLevel, (*params).qtyAbove),
		count((*params).qtyBelow),
		sum(colPrice, (*params).statusIs, (*params).qtyBelow),
		count((*params).qtyRange, (*params).statusIs),
		sum(colAmount, (*params).qtyRange),
		count((*params).qtyBelow, (*params).statusIs, (*params).priceAbove),
		sum(colQty, (*params).qtyAbove),
		sum(colPrice, (*params).priceAbove),
		sum(colLevel, (*params).statusIs, (*params).qtyBelow),
	},
	"point-cold": {
		count((*params).shipDay),
		count((*params).amountNear),
		sum(colAmount, (*params).shipDay),
		count((*params).shipDays),
		count((*params).shipDay, (*params).qtyBelow),
		count((*params).amountNear, (*params).qtyBelow),
		sum(colQty, (*params).shipDays),
		count((*params).shipDays, (*params).statusIs),
		count((*params).shipDay),
		sum(colPrice, (*params).amountNear),
	},
	"rows-stream": rowsPairs(),
}

// answer is the oracle's result for one request, computed by a plain
// loop over the raw []int64 columns.
type answer struct {
	matched int64
	sums    []int64   // op=sum: parallel to request.cols
	rows    []int64   // op=rows: matching row numbers, ascending
	vals    [][]int64 // op=rows: projected values, parallel to request.cols
}

// oracle evaluates req the slow, obviously-correct way.
func (d *dataset) oracle(req *request) answer {
	var a answer
	if req.op == "sum" {
		a.sums = make([]int64, len(req.cols))
	}
	if req.op == "rows" {
		a.vals = make([][]int64, len(req.cols))
	}
rows:
	for i := 0; i < d.rows; i++ {
		for _, l := range req.leaves {
			if v := d.cols[l.col][i]; v < l.lo || v > l.hi {
				continue rows
			}
		}
		a.matched++
		switch req.op {
		case "sum":
			for k, c := range req.cols {
				a.sums[k] += d.cols[c][i]
			}
		case "rows":
			a.rows = append(a.rows, int64(i))
			for k, c := range req.cols {
				a.vals[k] = append(a.vals[k], d.cols[c][i])
			}
		}
	}
	return a
}
