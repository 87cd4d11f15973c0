package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// serveClients is the closed-loop client count: one keep-alive
// connection and one goroutine per core of the 2-core reference box,
// all from this one process. Two callers never exceed lwcd's four
// default admission slots, so nothing is ever queued or rejected.
const serveClients = 2

// pointColdCacheBytes is the block-cache budget of the point-cold
// daemon: about 1/20 of the stored table, so the working set never
// fits and every op pays fetch + CRC + form decode for its blocks.
const pointColdCacheBytes = 1 << 20

// childArgs are the lwcd flags a serve workload starts its daemon
// with; everything not listed is the daemon's default.
func childArgs(workload string) []string {
	if workload == "point-cold" {
		return []string{"-cache-bytes", strconv.Itoa(pointColdCacheBytes)}
	}
	return nil
}

// serveState is one completed set-up of a serve workload: the raw
// data (the oracle's truth), the encoded table on disk, the request
// lists, and the running daemon.
type serveState struct {
	dir    string
	data   *dataset
	table  *encodedTable
	warm   []request
	reqs   []request
	daemon *child
}

func (st *serveState) close() {
	if st == nil {
		return
	}
	if st.daemon != nil {
		st.daemon.stop()
	}
	os.RemoveAll(st.dir)
}

// setupServe does everything setup_s covers: generate the table,
// encode and write it, generate the request lists, start lwcd on it,
// wait for /readyz and replay the warm-up prefix. It takes a probe
// reading after each stage.
func setupServe(ctx context.Context, cfg *config, probes *probeLog) (st *serveState, err error) {
	dir, err := os.MkdirTemp(cfg.workDir, "run-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	st = &serveState{dir: dir}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	st.data = generateDataset(cfg.scale.rows, cfg.seed)
	probes.read()
	if st.table, err = writeTable(st.data, dir, cfg.scale.blockSize); err != nil {
		return
	}
	probes.read()
	st.warm = generateRequests(cfg.workload, st.data, cfg.seed, 0, cfg.scale.sizes[cfg.workload].warmupOps)
	st.reqs = generateRequests(cfg.workload, st.data, cfg.seed, 1, cfg.scale.ops(cfg.workload, cfg.seconds))
	probes.read()
	if st.daemon, err = startChild(ctx, dir, childArgs(cfg.workload)...); err != nil {
		return
	}
	warm, _ := driveAll(ctx, st.daemon.url, st.warm, 0)
	if len(warm.failures) > 0 {
		err = fmt.Errorf("warm-up: %d of %d ops failed, first: %s", len(warm.failures), len(st.warm), warm.failures[0])
	}
	return
}

// opStat is the generator-side timing of one op.
type opStat struct {
	latencyNs int64 // request written → last body byte read
	ttfbNs    int64 // request written → response headers
	bodyNs    int64 // response headers → last body byte
	wire      int   // response body bytes
}

// driveResult accumulates closed-loop replays of a request list.
type driveResult struct {
	stats    []opStat       // by op index
	mu       sync.Mutex     // guards failures and samples
	failures []string       // one reason per failed op
	samples  map[int][]byte // bodies of the ops kept for the oracle, by op index
}

func newDriveResult(ops int) *driveResult {
	return &driveResult{stats: make([]opStat, ops), samples: map[int][]byte{}}
}

// conn is one keep-alive HTTP/1.1 connection to the daemon, driven
// synchronously by the goroutine that owns it: the request is written
// with one Write and the reply is parsed on the same goroutine
// (http.ReadResponse handles Content-Length and chunked bodies).
// net/http's client would put two more goroutines and three channel
// hand-offs between the caller and the socket; with sub-millisecond
// ops on two cores that generator-side scheduling was a sizeable part
// of every latency and of its run-to-run spread.
type conn struct {
	c   net.Conn
	br  *bufio.Reader
	out []byte       // reused request buffer
	buf bytes.Buffer // reused reply-body buffer
}

// dialAll opens n connections to the daemon at url. Cancelling ctx
// unblocks any read or write in flight on them; the returned function
// closes them.
func dialAll(ctx context.Context, url string, n int) ([]*conn, func(), error) {
	addr := strings.TrimPrefix(url, "http://")
	var conns []*conn
	closeConns := func() {
		for _, cn := range conns {
			cn.c.Close()
		}
	}
	for len(conns) < n {
		c, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
		if err != nil {
			closeConns()
			return nil, nil, err
		}
		conns = append(conns, &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)})
	}
	unwatch := context.AfterFunc(ctx, func() {
		for _, cn := range conns {
			cn.c.SetDeadline(time.Unix(1, 0))
		}
	})
	return conns, func() { unwatch(); closeConns() }, nil
}

// drive replays reqs against the daemon in a closed loop: one
// goroutine per connection, each sending its next request only when
// the previous reply is complete, all pulling from the one list.
// Every response is checked structurally; the body of every op whose
// index (base + its position in reqs) divides by sampleEvery is also
// kept for the oracle (0 keeps none). Results accumulate in res, whose
// stats must have room for the indexes used. It returns the wall time
// from the first request to the last reply.
func drive(ctx context.Context, conns []*conn, reqs []request, base, sampleEvery int, res *driveResult) time.Duration {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for _, cn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(reqs) || ctx.Err() != nil {
					return
				}
				req, i := &reqs[k], base+k
				stat, err := cn.do(req)
				res.stats[i] = stat
				keep := sampleEvery > 0 && i%sampleEvery == 0
				if err == nil && !keep {
					continue
				}
				res.mu.Lock()
				if err != nil {
					res.failures = append(res.failures, fmt.Sprintf("op %d (%s %q): %v", i, req.op, req.where, err))
				} else {
					res.samples[i] = bytes.Clone(cn.buf.Bytes())
				}
				res.mu.Unlock()
				if err != nil && ctx.Err() == nil {
					// The connection's framing is unknown after a
					// failed exchange; this client stops, the op
					// stays failed.
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if done := int(next.Load()); done < len(reqs) && ctx.Err() != nil {
		res.failures = append(res.failures, fmt.Sprintf("stopped after %d of %d ops: %v", base+min(done, len(reqs)), base+len(reqs), ctx.Err()))
	}
	return wall
}

// driveAll is drive over a whole list on connections of its own.
func driveAll(ctx context.Context, url string, reqs []request, sampleEvery int) (*driveResult, time.Duration) {
	res := newDriveResult(len(reqs))
	conns, closeAll, err := dialAll(ctx, url, serveClients)
	if err != nil {
		res.failures = append(res.failures, "connecting to lwcd: "+err.Error())
		return res, 0
	}
	defer closeAll()
	return res, drive(ctx, conns, reqs, 0, sampleEvery, res)
}

// do sends one request, reads the whole reply into cn.buf and checks
// its structure.
func (cn *conn) do(req *request) (opStat, error) {
	cn.out = append(cn.out[:0], "POST /query HTTP/1.1\r\nHost: lwcd\r\nContent-Type: application/json\r\nContent-Length: "...)
	cn.out = strconv.AppendInt(cn.out, int64(len(req.body)), 10)
	cn.out = append(cn.out, "\r\n\r\n"...)
	cn.out = append(cn.out, req.body...)
	t0 := time.Now()
	if _, err := cn.c.Write(cn.out); err != nil {
		return opStat{latencyNs: time.Since(t0).Nanoseconds()}, err
	}
	resp, err := http.ReadResponse(cn.br, nil)
	if err != nil {
		return opStat{latencyNs: time.Since(t0).Nanoseconds()}, err
	}
	t1 := time.Now()
	cn.buf.Reset()
	_, err = cn.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	t2 := time.Now()
	st := opStat{
		latencyNs: t2.Sub(t0).Nanoseconds(),
		ttfbNs:    t1.Sub(t0).Nanoseconds(),
		bodyNs:    t2.Sub(t1).Nanoseconds(),
		wire:      cn.buf.Len(),
	}
	if err != nil {
		return st, fmt.Errorf("reading body: %w", err)
	}
	return st, checkResponse(req, resp.StatusCode, cn.buf.Bytes())
}

// replyHead is a count/sum reply, and the header frame of a rows
// stream.
type replyHead struct {
	Table   string           `json:"table"`
	Op      string           `json:"op"`
	Matched *int64           `json:"matched"`
	Sums    map[string]int64 `json:"sums"`
	Columns []string         `json:"columns"`
}

// replyDone is the terminal frame of a rows stream.
type replyDone struct {
	Done     *bool  `json:"done"`
	Streamed int64  `json:"streamed"`
	Error    string `json:"error"`
}

// checkResponse is the structural check every reply gets: 200, the
// request's table and op echoed, a match count, a sum per requested
// column, and for a stream a done:true terminal frame whose streamed
// count equals the header's matched.
func checkResponse(req *request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, firstLine(body))
	}
	head, rest := splitLine(body)
	var h replyHead
	if err := json.Unmarshal(head, &h); err != nil {
		return fmt.Errorf("undecodable reply %q: %v", firstLine(body), err)
	}
	if h.Table != "orders" || h.Op != req.op || h.Matched == nil {
		return fmt.Errorf("reply does not echo the request: %s", firstLine(body))
	}
	switch req.op {
	case "sum":
		for _, name := range req.columnNames() {
			if _, ok := h.Sums[name]; !ok {
				return fmt.Errorf("reply has no sum for %s", name)
			}
		}
	case "rows":
		if !slices.Equal(h.Columns, req.columnNames()) {
			return fmt.Errorf("stream header columns %v, want %v", h.Columns, req.columnNames())
		}
		last := lastLine(rest)
		var d replyDone
		if err := json.Unmarshal(last, &d); err != nil {
			return fmt.Errorf("truncated stream: undecodable terminal frame %q", firstLine(last))
		}
		if d.Done == nil || !*d.Done {
			return fmt.Errorf("stream did not complete: %s", firstLine(last))
		}
		if d.Streamed != *h.Matched {
			return fmt.Errorf("streamed %d rows of %d matched", d.Streamed, *h.Matched)
		}
	}
	return nil
}

func splitLine(b []byte) (line, rest []byte) {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return b[:i], b[i+1:]
	}
	return b, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

func firstLine(b []byte) string {
	line, _ := splitLine(b)
	if len(line) > 200 {
		line = line[:200]
	}
	return string(line)
}

// parseAnswer decodes a whole reply — every row frame of a stream —
// into the shape the oracle produces.
func parseAnswer(req *request, body []byte) (answer, error) {
	var a answer
	head, rest := splitLine(body)
	var h replyHead
	if err := json.Unmarshal(head, &h); err != nil || h.Matched == nil {
		return a, fmt.Errorf("undecodable reply %q", firstLine(body))
	}
	a.matched = *h.Matched
	switch req.op {
	case "sum":
		for _, name := range req.columnNames() {
			a.sums = append(a.sums, h.Sums[name])
		}
	case "rows":
		a.vals = make([][]int64, len(req.cols))
		for len(rest) > 0 {
			var line []byte
			line, rest = splitLine(rest)
			if len(line) == 0 || bytes.HasPrefix(line, []byte(`{"done"`)) {
				continue
			}
			var frame struct {
				Rows []int64   `json:"rows"`
				Cols [][]int64 `json:"cols"`
			}
			if err := json.Unmarshal(line, &frame); err != nil {
				return a, fmt.Errorf("undecodable row frame: %v", err)
			}
			if len(frame.Cols) != len(req.cols) {
				return a, fmt.Errorf("row frame has %d columns, want %d", len(frame.Cols), len(req.cols))
			}
			a.rows = append(a.rows, frame.Rows...)
			for k := range frame.Cols {
				a.vals[k] = append(a.vals[k], frame.Cols[k]...)
			}
		}
	}
	return a, nil
}

// sameAnswer compares a reply with the oracle's answer.
func sameAnswer(got, want answer) error {
	if got.matched != want.matched {
		return fmt.Errorf("matched %d, oracle %d", got.matched, want.matched)
	}
	if !slices.Equal(got.sums, want.sums) {
		return fmt.Errorf("sums %v, oracle %v", got.sums, want.sums)
	}
	if !slices.Equal(got.rows, want.rows) {
		return fmt.Errorf("streamed row numbers differ from the oracle's (%d vs %d rows)", len(got.rows), len(want.rows))
	}
	for k := range want.vals {
		if !slices.Equal(got.vals[k], want.vals[k]) {
			return fmt.Errorf("streamed values of projected column %d differ from the oracle's", k)
		}
	}
	return nil
}

// checkSamples compares every kept reply against the oracle, two
// workers wide, outside any timed phase. It returns one reason per
// mismatching op.
func checkSamples(ctx context.Context, d *dataset, reqs []request, samples map[int][]byte) []string {
	idx := make([]int, 0, len(samples))
	for i := range samples {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var (
		mu    sync.Mutex
		fails []string
		next  atomic.Int64
		wg    sync.WaitGroup
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(idx) || ctx.Err() != nil {
					return
				}
				i := idx[k]
				got, err := parseAnswer(&reqs[i], samples[i])
				if err == nil {
					err = sameAnswer(got, d.oracle(&reqs[i]))
				}
				if err != nil {
					mu.Lock()
					fails = append(fails, fmt.Sprintf("op %d (%s %q): oracle mismatch: %v", i, reqs[i].op, reqs[i].where, err))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		fails = append(fails, "oracle check cut short: "+err.Error())
	}
	sort.Strings(fails)
	return fails
}

// sampleStride spreads at least 128 oracle-checked ops evenly over a
// list of n (every op when the list is shorter than that).
func sampleStride(n int) int { return max(1, n/128) }

// daemonMetrics is the slice of lwcd's /metrics document the
// benchmark reads.
type daemonMetrics struct {
	Queries struct {
		Total    int64 `json:"total"`
		Rejected int64 `json:"rejected"`
		Timeouts int64 `json:"timeouts"`
		Errors   int64 `json:"errors"`
	} `json:"queries"`
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Tables map[string]struct {
		BlocksSkipped int64 `json:"blocks_skipped"`
		BlocksProved  int64 `json:"blocks_proved"`
		BlocksFetched int64 `json:"blocks_fetched"`
		ReadRetries   int64 `json:"read_retries"`
	} `json:"tables"`
}

func scrapeMetrics(ctx context.Context, url string) (daemonMetrics, error) {
	var m daemonMetrics
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return m, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return m, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// runServe is the untraced run of a serve workload: repeated set-up,
// the timed closed loop against the real daemon, resource readings of
// the daemon process, then the oracle check.
func runServe(ctx context.Context, cfg *config, out *outcome) error {
	var st *serveState
	defer func() { st.close() }()
	var setups, rawSetups []float64
	for rep := 0; rep < cfg.scale.setupReps; rep++ {
		st.close()
		raw, took, err := timeSetup(cfg.scale.sizes[cfg.workload].hostShare, func(probes *probeLog) (err error) {
			st, err = setupServe(ctx, cfg, probes)
			return
		})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups, rawSetups = append(setups, took), append(rawSetups, raw)
	}
	describeTable(out, st)

	conns, closeAll, err := dialAll(ctx, st.daemon.url, serveClients)
	if err != nil {
		return fmt.Errorf("connecting to lwcd: %w", err)
	}
	defer closeAll()
	res := newDriveResult(len(st.reqs))
	stride := sampleStride(len(st.reqs))
	size := cfg.scale.sizes[cfg.workload]
	ph, err := runPhase(st.daemon.pid(), len(st.reqs), size, func(lo, hi int) time.Duration {
		return drive(ctx, conns, st.reqs[lo:hi], lo, stride, res)
	})
	if err != nil {
		return fmt.Errorf("lwcd is gone in the timed phase: %v: %s", err, st.daemon.stderrTail())
	}
	peak, err := procRSSMiB(st.daemon.pid(), "VmHWM:")
	if err != nil {
		return err
	}
	dm, err := scrapeMetrics(ctx, st.daemon.url)
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	st.daemon.stop()

	out.attempted = len(st.reqs)
	for _, f := range res.failures {
		out.fail(f)
	}
	if q := dm.Queries; q.Rejected != 0 || q.Timeouts != 0 || q.Errors != 0 {
		out.fail(fmt.Sprintf("lwcd counted %d rejected, %d timed-out and %d errored queries; all must be 0", q.Rejected, q.Timeouts, q.Errors))
	}
	for _, f := range checkSamples(ctx, st.data, st.reqs, res.samples) {
		out.fail(f)
	}
	if ctx.Err() != nil {
		return errors.New("deadline reached before the run finished")
	}

	lat := make([]int64, len(res.stats))
	for i, s := range res.stats {
		lat[i] = s.latencyNs
	}
	out.set("setup_s", median(setups))
	if err := ph.report(out, lat, peak); err != nil {
		return err
	}
	out.set("stored_bytes_per_value", float64(st.table.storedBytes)/float64(st.data.rows*numCols))
	out.notef("%d closed-loop clients; %d ops oracle-checked; set-up times (s) as measured %.3f, corrected %.3f", serveClients, len(res.samples), rawSetups, setups)
	return nil
}

// describeTable adds the dataset's identity and scheme mix to the
// report.
func describeTable(out *outcome, st *serveState) {
	out.notef("table orders: %d rows x %d columns, stored %d bytes, dataset sha256 %s, requests sha256 %s",
		st.data.rows, numCols, st.table.storedBytes, st.data.sha256Hex()[:16], requestsSHA256(st.reqs)[:16])
	for c, col := range st.table.cols {
		mix := map[string]int{}
		for _, s := range col.BlockSchemes() {
			mix[s]++
		}
		names := make([]string, 0, len(mix))
		for s := range mix {
			names = append(names, s)
		}
		sort.Strings(names)
		line := colNames[c] + ":"
		for _, s := range names {
			line += fmt.Sprintf(" %dx %s", mix[s], s)
		}
		out.notef("%s", line)
	}
}
