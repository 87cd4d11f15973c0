package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"slices"
	"time"

	"lwcomp/internal/blocked"
	"lwcomp/internal/query"
	"lwcomp/internal/sel"
	"lwcomp/internal/server"
	"lwcomp/internal/table"
)

// traceShare is the part of the op list the traced replay covers: the
// first eighth.
const traceShare = 8

// span is one timed call into a layer. Parent is the span that caused
// it (0 for an op's root); spans of one op share Op. Start and End are
// nanoseconds since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Replay marks a span that re-executes a call its parent made
	// internally: the benchmark can only wrap a layer's public
	// functions from outside, so it calls the same function with the
	// same arguments again, right beside the parent, instead of inside
	// it. Its duration counts as time the parent spent in that child.
	Replay bool `json:"replay,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so the untraced and traced passes share one code
// path.
type tracer struct {
	t0    time.Time
	spans []span
	ops   []opRecord
}

// opRecord says what op number Op of the span file was, so a span
// can be read against the request (or chunk) that caused it.
type opRecord struct {
	Op      int      `json:"op"`
	Kind    string   `json:"kind"`
	Where   string   `json:"where,omitempty"`
	Columns []string `json:"columns,omitempty"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, op int, replay bool) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Replay: replay,
		Start: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// layerTimes aggregates the spans by name: total duration, call count,
// and self time — a span's duration minus the durations of its direct
// children, floored at zero.
type layerTimes struct {
	total, self map[string]int64
	calls       map[string]int64
}

func (t *tracer) aggregate() layerTimes {
	lt := layerTimes{total: map[string]int64{}, self: map[string]int64{}, calls: map[string]int64{}}
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.End - s.Start
	}
	for _, s := range t.spans {
		d := s.End - s.Start
		lt.total[s.Name] += d
		lt.calls[s.Name]++
		lt.self[s.Name] += max(0, d-children[s.ID])
	}
	return lt
}

// writeTo writes the span file: one header line, one line per op,
// then one line per span.
func (t *tracer) writeTo(path string, cfg *config, fp fingerprint) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	header := struct {
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Seconds  float64     `json:"seconds"`
		Scale    string      `json:"scale"`
		Env      fingerprint `json:"env"`
		Ops      int         `json:"ops"`
		Spans    int         `json:"spans"`
	}{cfg.workload, cfg.seed, cfg.seconds, cfg.scale.name, fp, len(t.ops), len(t.spans)}
	err = enc.Encode(header)
	for i := 0; i < len(t.ops) && err == nil; i++ {
		err = enc.Encode(&t.ops[i])
	}
	for i := 0; i < len(t.spans) && err == nil; i++ {
		err = enc.Encode(&t.spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// memWriter is the in-process replay's http.ResponseWriter: it keeps
// the reply in a reused buffer so the same structural check applies.
type memWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.header }
func (w *memWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *memWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}
func (w *memWriter) Flush() {}

func (w *memWriter) reset() {
	w.header, w.status = http.Header{}, 0
	w.body.Reset()
}

// inProcess is lwcd's server mounted inside the benchmark process for
// the replay: same directory, same cache budget as the daemon had.
// Scans run on one worker so that a parent span and the replays of
// its children are all serial and their durations subtract cleanly.
type inProcess struct {
	srv     *server.Server
	handler http.Handler
	tbl     *table.Table
	cols    [numCols]*blocked.Column
	w       memWriter
}

func openInProcess(cfg *config, dir string) (*inProcess, error) {
	sc := server.Config{Dir: dir, Parallelism: 1}
	if cfg.workload == "point-cold" {
		sc.CacheBytes = pointColdCacheBytes
	}
	srv, err := server.New(sc)
	if err != nil {
		return nil, err
	}
	ip := &inProcess{srv: srv, handler: srv.Handler()}
	tbl, ok := srv.Table("orders")
	if !ok {
		srv.Close()
		return nil, errors.New("in-process server mounted no table orders")
	}
	ip.tbl = tbl
	for c, name := range colNames {
		if ip.cols[c], err = tbl.Column(name); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return ip, nil
}

// serve runs one request through Server.Handler().ServeHTTP and
// checks the reply like any other.
func (ip *inProcess) serve(ctx context.Context, req *request) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, "/query", bytes.NewReader(req.body))
	if err != nil {
		return err
	}
	ip.w.reset()
	ip.handler.ServeHTTP(&ip.w, hr)
	return checkResponse(req, ip.w.status, ip.w.body.Bytes())
}

// tableCalls replays the calls the handler makes into the table
// layer for req — Parse, then Aggregate or ScanWith + StreamBatches —
// each under its own span, children of parent.
func (ip *inProcess) tableCalls(ctx context.Context, tr *tracer, parent, op int, req *request) (tableSpan int, matched int64, err error) {
	id := tr.begin("table.parse", parent, op, true)
	expr, err := table.Parse(req.where)
	tr.end(id)
	if err != nil {
		return 0, 0, err
	}
	if req.op == "rows" {
		id = tr.begin("table.scan", parent, op, true)
		scan, err := ip.tbl.ScanWith(ctx, expr, table.ScanOptions{})
		tr.end(id)
		if err != nil {
			return 0, 0, err
		}
		defer scan.Release()
		matched = int64(scan.Count())
		sid := tr.begin("table.stream", parent, op, true)
		err = scan.StreamBatches(ctx, req.columnNames(), 4096, func([]int64, [][]int64) error { return nil })
		tr.end(sid)
		return id, matched, err
	}
	var sumCols []string
	if req.op == "sum" {
		sumCols = req.columnNames()
	}
	id = tr.begin("table.aggregate", parent, op, true)
	agg, err := ip.tbl.Aggregate(ctx, expr, sumCols, table.ScanOptions{})
	tr.end(id)
	return id, agg.Matched, err
}

// blockCalls replays, block by block, the calls the table layer makes
// into blocked/query for req: classify every block against every leaf
// from the index, then for each undecided block evaluate the leaves
// (a lone count leaf through query.CountRange on the block's form,
// everything else through Column.SelectBlockRangeSel and a bitmap
// AND) and sum the requested columns over the survivors. One
// blocked.block_eval span per undecided block, child of parent. It
// returns the match count, which must equal the handler's.
func (ip *inProcess) blockCalls(tr *tracer, parent, op int, req *request) (matched int64, err error) {
	first := ip.cols[req.leaves[0].col]
	var vals []int64
	for i := range first.Blocks {
		count := first.Blocks[i].Count
		undecided, refuted := false, false
		for _, l := range req.leaves {
			switch ip.cols[l.col].Blocks[i].ClassifyRange(l.lo, l.hi) {
			case blocked.RangeMiss:
				refuted = true
			case blocked.RangePart:
				undecided = true
			}
		}
		if refuted {
			continue
		}
		if !undecided && req.op != "sum" {
			matched += int64(count)
			continue
		}
		id := tr.begin("blocked.block_eval", parent, op, true)
		var n int64
		if len(req.leaves) == 1 && req.op == "count" {
			l := req.leaves[0]
			f, ferr := ip.cols[l.col].BlockForm(i)
			if ferr != nil {
				return 0, ferr
			}
			n, err = query.CountRange(f, l.lo, l.hi)
		} else {
			n, vals, err = ip.evalBlock(req, i, count, vals)
		}
		tr.end(id)
		if err != nil {
			return 0, err
		}
		matched += n
	}
	return matched, nil
}

// evalBlock evaluates req's leaves on block i into a bitmap and, for
// a sum, folds the requested columns over the surviving rows.
func (ip *inProcess) evalBlock(req *request, i, count int, vals []int64) (int64, []int64, error) {
	acc := sel.Get(count)
	defer acc.Release()
	for k, l := range req.leaves {
		if k == 0 {
			if err := ip.cols[l.col].SelectBlockRangeSel(i, l.lo, l.hi, acc, 0); err != nil {
				return 0, vals, err
			}
		} else {
			tmp := sel.Get(count)
			err := ip.cols[l.col].SelectBlockRangeSel(i, l.lo, l.hi, tmp, 0)
			if err == nil {
				err = acc.And(tmp)
			}
			tmp.Release()
			if err != nil {
				return 0, vals, err
			}
		}
		if acc.Count() == 0 {
			return 0, vals, nil
		}
	}
	n := acc.Count()
	if req.op == "sum" {
		for _, c := range req.cols {
			if n == count {
				if _, err := ip.cols[c].SumBlock(i); err != nil {
					return 0, vals, err
				}
				continue
			}
			if cap(vals) < count {
				vals = make([]int64, count)
			}
			vals = vals[:count]
			if err := ip.cols[c].DecompressBlock(i, vals); err != nil {
				return 0, vals, err
			}
			var sum int64
			acc.Iterate(func(r int) bool { sum += vals[r]; return true })
			sink += sum
		}
	}
	return int64(n), vals, nil
}

// sink keeps results the replay computes but does not otherwise use
// from being optimised away.
var sink int64

// traceServe is the -trace 1 run of a serve workload. It never
// reports end-to-end metrics; it reports where the time of the first
// eighth of the op list goes.
func traceServe(ctx context.Context, cfg *config, out *outcome) error {
	fp := takeFingerprint()
	st, err := setupServe(ctx, cfg, nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	describeTable(out, st)
	prefix := st.reqs[:max(1, len(st.reqs)/traceShare)]
	n := float64(len(prefix))
	out.attempted = len(prefix)

	// (a) The prefix over HTTP against the real daemon: generator-side
	// diagnostics and the daemon's own counters.
	m0, err := scrapeMetrics(ctx, st.daemon.url)
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	res, _ := driveAll(ctx, st.daemon.url, prefix, sampleStride(len(prefix)))
	m1, err := scrapeMetrics(ctx, st.daemon.url)
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	st.daemon.stop()
	for _, f := range res.failures {
		out.fail(f)
	}
	for _, f := range checkSamples(ctx, st.data, prefix, res.samples) {
		out.fail(f)
	}
	clientMetrics(out, res.stats)
	out.set("server.rejected", float64(m1.Queries.Rejected))
	out.set("server.timeouts", float64(m1.Queries.Timeouts))
	if m1.Queries.Rejected != 0 || m1.Queries.Timeouts != 0 || m1.Queries.Errors != 0 {
		out.fail(fmt.Sprintf("lwcd counted %d rejected, %d timed-out and %d errored queries; all must be 0",
			m1.Queries.Rejected, m1.Queries.Timeouts, m1.Queries.Errors))
	}
	t0, t1 := m0.Tables["orders"], m1.Tables["orders"]
	skipped := float64(t1.BlocksSkipped - t0.BlocksSkipped)
	proved := float64(t1.BlocksProved - t0.BlocksProved)
	fetched := float64(t1.BlocksFetched - t0.BlocksFetched)
	out.set("table.blocks_skipped_per_op", skipped/n)
	out.set("table.blocks_proved_per_op", proved/n)
	out.set("table.blocks_fetched_per_op", fetched/n)
	out.set("table.skip_ratio", perOr0(skipped, skipped+proved+fetched))
	hits := float64(m1.Cache.Hits - m0.Cache.Hits)
	misses := float64(m1.Cache.Misses - m0.Cache.Misses)
	out.set("storage.cache_hit_rate", perOr0(hits, hits+misses))
	out.set("storage.cache_misses_per_op", misses/n)
	out.set("storage.cache_evictions_per_op", float64(m1.Cache.Evictions-m0.Cache.Evictions)/n)
	out.set("storage.read_retries", float64(t1.ReadRetries-t0.ReadRetries))

	// (b) The same prefix in-process, single client: once untraced,
	// once with a span around every layer call.
	ip, err := openInProcess(cfg, st.dir)
	if err != nil {
		return fmt.Errorf("mounting in-process: %w", err)
	}
	defer ip.srv.Close()
	for i := range st.warm {
		if err := ip.serve(ctx, &st.warm[i]); err != nil {
			return fmt.Errorf("in-process warm-up: %w", err)
		}
	}
	var untracedNs int64
	for i := range prefix {
		if ctx.Err() != nil {
			break
		}
		t := time.Now()
		err := ip.serve(ctx, &prefix[i])
		untracedNs += time.Since(t).Nanoseconds()
		if err != nil {
			out.fail(fmt.Sprintf("in-process op %d: %v", i, err))
		}
	}
	tr := newTracer()
	var wire int64
	for i := range prefix {
		if ctx.Err() != nil {
			break
		}
		tr.ops = append(tr.ops, opRecord{Op: i, Kind: prefix[i].op, Where: prefix[i].where, Columns: prefix[i].columnNames()})
		if err := ip.traceOp(ctx, tr, i, &prefix[i], &wire); err != nil {
			out.fail(fmt.Sprintf("traced op %d (%s %q): %v", i, prefix[i].op, prefix[i].where, err))
		}
	}
	lt := tr.aggregate()
	handler := float64(lt.total["server.handler"])
	out.set("server.handler_ms_per_op", handler/n/1e6)
	out.set("server.self_ms_per_op", float64(lt.self["server.handler"])/n/1e6)
	out.set("server.wire_bytes_per_op", float64(wire)/n)
	out.set("table.parse_us_per_op", float64(lt.total["table.parse"])/n/1e3)
	out.set("table.aggregate_ms_per_op", perOr0(float64(lt.total["table.aggregate"]), float64(lt.calls["table.aggregate"]))/1e6)
	out.set("table.scan_ms_per_op", perOr0(float64(lt.total["table.scan"]), float64(lt.calls["table.scan"]))/1e6)
	out.set("table.stream_ms_per_op", perOr0(float64(lt.total["table.stream"]), float64(lt.calls["table.stream"]))/1e6)
	out.set("table.self_ms_per_op", float64(lt.self["table.aggregate"]+lt.self["table.scan"])/n/1e6)
	out.set("blocked.block_eval_us_per_block", perOr0(float64(lt.total["blocked.block_eval"]), float64(lt.calls["blocked.block_eval"]))/1e3)
	out.set("trace.overhead_pct", (handler-float64(untracedNs))/float64(untracedNs)*100)
	out.notef("traced replay: %d ops (first 1/%d of %d), %d spans; untraced in-process mean %.3f ms/op, traced handler mean %.3f ms/op",
		len(prefix), traceShare, len(st.reqs), len(tr.spans), float64(untracedNs)/n/1e6, handler/n/1e6)

	// (c) Kernels, on this table's own blocks and files.
	bcols := make([]benchColumn, numCols)
	paths := make([]string, numCols)
	for c, name := range colNames {
		bcols[c] = benchColumn{name: name, raw: st.data.cols[c], col: st.table.cols[c]}
		paths[c] = st.dir + "/orders." + name + ".lwc"
	}
	if err := benchKernels(ctx, out, bcols, cfg.scale.blockSize); err != nil {
		return err
	}
	if err := benchStorage(out, paths); err != nil {
		return err
	}
	values := float64(st.data.rows * numCols)
	out.set("blocked.encode_ns_per_value", float64(st.table.encodeNs)/values)
	out.set("storage.write_ms_per_chunk", msOf(st.table.writeNs)/numCols)

	if err := tr.writeTo(cfg.traceOut, cfg, fp); err != nil {
		return fmt.Errorf("writing -trace-out: %w", err)
	}
	out.notef("spans written to %s", cfg.traceOut)
	if ctx.Err() != nil {
		return errors.New("deadline reached before the traced run finished")
	}
	return nil
}

// traceOp records one op's spans: the handler call as the root, the
// replayed table-layer calls as its children, the replayed
// block-level calls as theirs. Handler and table replays alternate
// which goes first, so on a cache smaller than the working set each
// meets a cold cache half the time and their difference is not a
// cache artefact. The three levels must agree on the match count.
func (ip *inProcess) traceOp(ctx context.Context, tr *tracer, i int, req *request, wire *int64) error {
	root := tr.begin("server.handler", 0, i, false)
	runHandler := func() (int64, error) {
		tr.spans[root-1].Start = time.Since(tr.t0).Nanoseconds()
		err := ip.serve(ctx, req)
		tr.end(root)
		if err != nil {
			return 0, err
		}
		*wire += int64(ip.w.body.Len())
		a, err := parseHead(ip.w.body.Bytes())
		return a, err
	}
	var served, viaTable int64
	var tableSpan int
	var err error
	if i%2 == 0 {
		if served, err = runHandler(); err != nil {
			return err
		}
		tableSpan, viaTable, err = ip.tableCalls(ctx, tr, root, i, req)
	} else {
		if tableSpan, viaTable, err = ip.tableCalls(ctx, tr, root, i, req); err != nil {
			return err
		}
		served, err = runHandler()
	}
	if err != nil {
		return err
	}
	viaBlocks, err := ip.blockCalls(tr, tableSpan, i, req)
	if err != nil {
		return err
	}
	if served != viaTable || served != viaBlocks {
		return fmt.Errorf("layers disagree on the match count: handler %d, table %d, blocks %d", served, viaTable, viaBlocks)
	}
	return nil
}

// parseHead returns the match count of a reply.
func parseHead(body []byte) (int64, error) {
	head, _ := splitLine(body)
	var h replyHead
	if err := json.Unmarshal(head, &h); err != nil || h.Matched == nil {
		return 0, fmt.Errorf("undecodable reply %q", firstLine(body))
	}
	return *h.Matched, nil
}

// clientMetrics fills the client.* diagnostics from generator-side
// timings.
func clientMetrics(out *outcome, stats []opStat) {
	lat := make([]int64, len(stats))
	ttfb := make([]int64, len(stats))
	var body int64
	for i, s := range stats {
		lat[i], ttfb[i] = s.latencyNs, s.ttfbNs
		body += s.bodyNs
	}
	slices.Sort(lat)
	slices.Sort(ttfb)
	out.set("client.op_p99_ms", msOf(percentile(lat, 0.99)))
	out.set("client.op_max_ms", msOf(lat[len(lat)-1]))
	out.set("client.ttfb_p50_ms", msOf(percentile(ttfb, 0.50)))
	out.set("client.body_read_ms_per_op", msOf(body)/float64(len(stats)))
}
