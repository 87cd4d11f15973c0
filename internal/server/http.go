package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"lwcomp"
	"lwcomp/internal/blocked"
)

// The Content-Type values of the replies. A reply's header map takes
// one of these shared slices by direct assignment — net/http allows
// it, and never writes to a header's values — where Header().Set
// would allocate a fresh one per reply.
var (
	jsonContentType   = []string{"application/json"}
	ndjsonContentType = []string{"application/x-ndjson"}
)

// Handler returns the server's HTTP mux, wrapped in the panic
// recovery barrier.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /tables", s.handleTables)
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /-/reload", s.handleReload)
	mux.HandleFunc("POST /-/compact", s.handleCompact)
	mux.HandleFunc("POST /-/scrub", s.handleScrub)
	// /healthz is pure liveness: the process is up and serving HTTP.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header()["Content-Type"] = jsonContentType
		w.Write([]byte(`{"ok":true}` + "\n"))
	})
	// /readyz is readiness: 503 while closed, mid-reload, or draining a
	// retired mount set. A deploy should pull a draining server from
	// rotation, not restart it — which is why the two probes differ.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header()["Content-Type"] = jsonContentType
		if !s.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"ready":false}` + "\n"))
			return
		}
		w.Write([]byte(`{"ready":true}` + "\n"))
	})
	return s.recovered(mux)
}

// recovered is the handler-level crash barrier: a panic escaping a
// request handler becomes a 500 and a panics_recovered tick instead of
// a dead connection (net/http would recover it anyway, but silently
// and without a response). http.ErrAbortHandler re-panics — that is
// net/http's own abort protocol, not a crash.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if err, ok := rec.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(rec)
			}
			s.met.panics.Add(1)
			s.met.errors.Add(1)
			writeError(w, http.StatusInternalServerError, "internal error: %v", rec)
		}()
		next.ServeHTTP(w, r)
	})
}

// errorBody is every non-200's JSON shape. Offset and Token are set
// only for predicate parse failures, pointing at the offending byte.
type errorBody struct {
	// Error is the human-readable failure.
	Error string `json:"error"`
	// Offset is the byte offset of a predicate parse failure.
	Offset *int `json:"offset,omitempty"`
	// Token is the offending predicate token, when one was read.
	Token string `json:"token,omitempty"`
}

// writeError sends a JSON error with the given status.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeErrorBody(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// writeErrorBody sends a prebuilt error body.
func writeErrorBody(w http.ResponseWriter, status int, body errorBody) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// catalogColumn is one column's /tables entry, read from the block
// index alone.
type catalogColumn struct {
	// Name is the served column name.
	Name string `json:"name"`
	// Blocks is the column's block count.
	Blocks int `json:"blocks"`
	// Min and Max bound the column's values, when every block carries
	// stats (v3 containers always do).
	Min *int64 `json:"min,omitempty"`
	// Max is the upper bound; see Min.
	Max *int64 `json:"max,omitempty"`
}

// catalogTable is one table's /tables entry.
type catalogTable struct {
	// Name is the table name (the filename prefix).
	Name string `json:"name"`
	// Rows is the table's row count.
	Rows int `json:"rows"`
	// Aligned reports whether the columns share block boundaries (the
	// precondition for cross-column per-block planning).
	Aligned bool `json:"aligned"`
	// Columns lists the table's columns in table order.
	Columns []catalogColumn `json:"columns"`
	// Files lists the container files behind the table.
	Files []string `json:"files"`
}

// handleTables serves the catalog. Everything here comes from the
// open containers' resident block indexes — no payload is fetched.
func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	ms := s.acquireMounts()
	defer ms.release()
	out := struct {
		Tables []catalogTable `json:"tables"`
	}{Tables: []catalogTable{}}
	for _, name := range ms.names {
		mt := ms.tables[name]
		ct := catalogTable{
			Name:    name,
			Rows:    mt.tbl.NumRows(),
			Aligned: mt.tbl.Aligned(),
			Files:   mt.files,
		}
		for _, colName := range mt.tbl.ColumnNames() {
			col, err := mt.tbl.Column(colName)
			if err != nil {
				continue
			}
			cc := catalogColumn{Name: colName, Blocks: col.NumBlocks()}
			if lo, hi, ok := indexMinMax(col); ok {
				cc.Min, cc.Max = &lo, &hi
			}
			ct.Columns = append(ct.Columns, cc)
		}
		out.Tables = append(out.Tables, ct)
	}
	w.Header()["Content-Type"] = jsonContentType
	json.NewEncoder(w).Encode(out)
}

// indexMinMax computes a column's [min, max] from block stats alone;
// ok is false when any non-empty block lacks stats (decoding to find
// out would defeat the catalog's no-payload-reads guarantee).
func indexMinMax(col *lwcomp.Column) (lo, hi int64, ok bool) {
	have := false
	for i := range col.Blocks {
		b := &col.Blocks[i]
		if b.Count == 0 {
			continue
		}
		if !b.HasStats {
			return 0, 0, false
		}
		if !have || b.Min < lo {
			lo = b.Min
		}
		if !have || b.Max > hi {
			hi = b.Max
		}
		have = true
	}
	return lo, hi, have
}

// queryRequest is the POST /query body.
type queryRequest struct {
	// Table names the mounted table to scan.
	Table string `json:"table"`
	// Where is the predicate in the scan mini-language; empty matches
	// every row.
	Where string `json:"where"`
	// Columns names the columns to aggregate (op=sum) or project
	// (op=rows), each at most once. Unused for count.
	Columns []string `json:"columns"`
	// Op is count, sum or rows; empty means count.
	Op string `json:"op"`
	// TimeoutMS shortens the server's per-query deadline; it can
	// never extend it.
	TimeoutMS int64 `json:"timeout_ms"`
	// BatchRows overrides the server's rows-per-frame for op=rows; more
	// than 65,536 (maxBatchRows) means 65,536.
	BatchRows int `json:"batch_rows"`
	// Limit caps the rows streamed by op=rows; 0 means all.
	Limit int64 `json:"limit"`
	// AllowDegraded opts this query into degraded execution: blocks
	// quarantined by permanent integrity failures are skipped (their
	// rows treated as non-matching) and the omission reported exactly
	// in the response's degraded list, instead of failing the query.
	AllowDegraded bool `json:"allow_degraded"`
}

// queryResult is the single-object response of count and sum queries,
// and the header frame of a rows stream. appendQueryResult renders it;
// its doc gives the JSON shape.
type queryResult struct {
	// Table and Op echo the request.
	Table string
	// Op is the executed operation.
	Op string
	// Where is the parsed predicate, rendered back (the canonical
	// form, not the request's spelling); nil renders as "".
	Where lwcomp.Expr
	// Matched is the number of rows the predicate selected.
	Matched int64
	// SumColumns names the summed columns (op=sum), each once; Sums
	// holds the sum over the matched rows of each, in the same order.
	SumColumns []string
	// Sums is parallel to SumColumns.
	Sums []int64
	// Columns lists the projected columns, in frame order (op=rows).
	Columns []string
	// ElapsedMS is the server-side query time (omitted on the rows
	// header frame, where the stream is still running).
	ElapsedMS float64
	// Degraded lists the blocks a degraded scan omitted — present only
	// when the request set allow_degraded and at least one block was
	// quarantined. Its presence means Matched and Sums undercount the
	// unreadable rows by exactly the listed row ranges.
	Degraded []lwcomp.SkippedBlock
}

// errStreamLimit aborts a rows stream cleanly once the limit is hit.
var errStreamLimit = errors.New("stream limit reached")

// handleQuery admits, parses, plans and runs one query, then streams
// or writes its result. Admission rejections answer 429 with
// Retry-After; deadline hits answer 504; predicate errors answer 400
// with the byte offset and offending token.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	// One pooled buffer holds the request body, then the reply or the
	// rows frames.
	frame := framePool.Get().(*[]byte)
	defer func() {
		if cap(*frame) <= maxPooledFrame {
			framePool.Put(frame)
		}
	}()
	var req queryRequest
	body, err := readBody((*frame)[:0], http.MaxBytesReader(w, r.Body, maxRequestBody))
	*frame = body
	if err == nil {
		err = decodeQueryRequest(body, &req)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding request body: %v", err)
		return
	}
	op := req.Op
	if op == "" {
		op = "count"
	}
	switch op {
	case "count", "sum", "rows":
	default:
		writeError(w, http.StatusBadRequest, "unknown op %q (want count, sum or rows)", op)
		return
	}
	if (op == "sum" || op == "rows") && len(req.Columns) == 0 {
		writeError(w, http.StatusBadRequest, "op %q needs at least one entry in columns", op)
		return
	}

	timeout := s.cfg.QueryTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Admission: bounded wait for a slot, O(1) rejection past the
	// queue bound. Retry-After names the configured deadline — the
	// time scale on which a slot is guaranteed to free up.
	if err := s.gate.acquire(ctx); err != nil {
		if errors.Is(err, errSaturated) {
			s.met.rejected.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.QueryTimeout)))
			writeError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		s.met.timeouts.Add(1)
		writeError(w, http.StatusGatewayTimeout, "request expired while queued for admission")
		return
	}
	defer s.gate.release()
	s.met.total.Add(1)
	defer func() { s.met.hist.record(time.Since(started)) }()

	ms := s.acquireMounts()
	defer ms.release()
	mt, ok := ms.tables[req.Table]
	if !ok {
		writeError(w, http.StatusNotFound, "no table %q mounted", req.Table)
		return
	}
	// Every listed column costs a rows request its batch state, decode
	// buffer and frame array, so a column may be listed once. Every
	// name must exist, so a repeat shows up within the table's first
	// columns+1 names and the quadratic check stays that small.
	for i, colName := range req.Columns {
		if _, err := mt.tbl.Column(colName); err != nil {
			writeError(w, http.StatusBadRequest, "table %q has no column %q", req.Table, colName)
			return
		}
		if slices.Contains(req.Columns[:i], colName) {
			writeError(w, http.StatusBadRequest, "column %q is listed more than once", colName)
			return
		}
	}

	expr := lwcomp.And()
	if req.Where != "" {
		expr, err = lwcomp.ParsePredicate(req.Where)
		if err != nil {
			var pe *lwcomp.ParseError
			if errors.As(err, &pe) {
				writeErrorBody(w, http.StatusBadRequest,
					errorBody{Error: pe.Error(), Offset: &pe.Offset, Token: pe.Token})
				return
			}
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	res := queryResult{Table: req.Table, Op: op, Where: expr}
	switch op {
	case "count", "sum":
		// Count and sum run through the fused aggregate: one pass over
		// the compressed blocks, no materialized selection.
		var sumCols []string
		if op == "sum" {
			sumCols = req.Columns
		}
		agg, err := mt.tbl.Aggregate(ctx, expr, sumCols, lwcomp.ScanOptions{Degraded: req.AllowDegraded})
		if err != nil {
			s.queryError(w, err)
			return
		}
		res.Matched = agg.Matched
		if op == "sum" {
			res.SumColumns, res.Sums = sumCols, agg.Sums
		}
		if m := agg.Manifest; m != nil && m.Len() > 0 {
			res.Degraded = m.Skipped()
		}
		res.ElapsedMS = msSince(started)
		*frame = appendQueryResult((*frame)[:0], &res)
		w.Header()["Content-Type"] = jsonContentType
		w.Write(*frame)
	case "rows":
		scan, err := mt.tbl.ScanWith(ctx, expr, lwcomp.ScanOptions{Degraded: req.AllowDegraded})
		if err != nil {
			s.queryError(w, err)
			return
		}
		defer scan.Release()
		res.Matched = int64(scan.Count())
		s.streamRows(ctx, w, scan, req, res, started, frame)
	}
}

// degradedBlocks extracts a scan's degradation manifest for the JSON
// surface; nil (omitted from the response) for a clean or fail-fast
// scan.
func degradedBlocks(scan *lwcomp.Scan) []lwcomp.SkippedBlock {
	if m := scan.Manifest(); m != nil && m.Len() > 0 {
		return m.Skipped()
	}
	return nil
}

// retryAfterSeconds rounds the query deadline up to whole seconds and
// adds random jitter of up to a quarter of it — the Retry-After a
// saturated server advertises. The jitter spreads the retry herd: a
// burst of 429s that all named the same second would come back as the
// same burst, re-saturating the gate on schedule.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if spread := secs / 4; spread > 0 {
		secs += rand.Intn(spread + 1)
	}
	return secs
}

// msSince is elapsed wall time in (fractional) milliseconds.
func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// writeJSON sends one JSON object.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header()["Content-Type"] = jsonContentType
	json.NewEncoder(w).Encode(v)
}

// streamRows streams an op=rows result as NDJSON: a header frame with
// the match count and column order, then row frames of at most
// batch_rows rows each, then a final frame. Frames are flushed as
// written, and each holds one batch — the server never materializes
// the full result, whatever its size. Frames are rendered into the
// request's pooled buffer, frame.
func (s *Server) streamRows(ctx context.Context, w http.ResponseWriter, scan *lwcomp.Scan, req queryRequest, header queryResult, started time.Time, frame *[]byte) {
	batch := req.BatchRows
	if batch <= 0 {
		batch = s.cfg.BatchRows
	}
	batch = min(batch, maxBatchRows)
	header.Columns = req.Columns
	buf := (*frame)[:0]
	defer func() { *frame = buf }()
	w.Header()["Content-Type"] = ndjsonContentType
	buf = appendQueryResult(buf, &header)
	w.Write(buf)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}

	var streamed int64
	err := scan.StreamBatches(ctx, req.Columns, batch, func(rows []int64, vals [][]int64) error {
		if req.Limit > 0 && streamed+int64(len(rows)) > req.Limit {
			keep := req.Limit - streamed
			rows = rows[:keep]
			for i := range vals {
				vals[i] = vals[i][:keep]
			}
		}
		if len(rows) == 0 {
			return errStreamLimit
		}
		buf = appendRowsFrame(buf[:0], rows, vals)
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		streamed += int64(len(rows))
		if req.Limit > 0 && streamed >= req.Limit {
			return errStreamLimit
		}
		return nil
	})
	// The done and error frames, written once a stream, keep
	// encoding/json.
	enc := json.NewEncoder(w)
	if err != nil && !errors.Is(err, errStreamLimit) {
		// The 200 and header frame are gone; the error becomes the
		// stream's terminal frame — with an explicit "done": false — so
		// clients can tell truncation from success and from a stream
		// cut mid-frame. Deadline hits still count as timeouts.
		if errors.Is(err, context.DeadlineExceeded) {
			s.met.timeouts.Add(1)
		} else if !errors.Is(err, context.Canceled) {
			s.met.errors.Add(1)
		}
		enc.Encode(struct {
			// Error is the failure that truncated the stream.
			Error string `json:"error"`
			// Done is false: frames before this one are valid, but the
			// stream is incomplete.
			Done bool `json:"done"`
		}{err.Error(), false})
		return
	}
	enc.Encode(struct {
		// Done marks a complete stream.
		Done bool `json:"done"`
		// Streamed is the number of rows emitted (≤ matched under a
		// limit).
		Streamed int64 `json:"streamed"`
		// ElapsedMS is the server-side query time.
		ElapsedMS float64 `json:"elapsed_ms"`
		// Degraded lists the blocks a degraded scan omitted; see
		// queryResult.Degraded.
		Degraded []lwcomp.SkippedBlock `json:"degraded,omitempty"`
	}{true, streamed, msSince(started), degradedBlocks(scan)})
}

// framePool holds each query's buffer: its request body, then its
// reply or its op=rows frames. A frame's worst-case reservation is a
// few hundred KiB, too much to make anew for every request. A buffer
// larger than maxPooledFrame — a wide projection at a large batch_rows
// — is left to the collector, so that one such request does not pin
// its memory for the life of the process.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledFrame is the largest frame buffer framePool keeps.
const maxPooledFrame = 4 << 20

// appendRowsFrame renders one NDJSON row frame:
// {"rows":[...],"cols":[[...],...]}\n — hand-built, because a server
// streaming millions of rows through reflect-driven json.Marshal
// would spend more time encoding than scanning.
func appendRowsFrame(buf []byte, rows []int64, vals [][]int64) []byte {
	buf = append(buf, `{"rows":`...)
	buf = appendInt64s(buf, rows)
	buf = append(buf, `,"cols":[`...)
	for i, col := range vals {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendInt64s(buf, col)
	}
	buf = append(buf, "]}\n"...)
	return buf
}

// queryError maps a scan failure onto a status: deadline → 504,
// client-cancel → a quiet 499-style abort, anything else → 500.
func (s *Server) queryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.met.timeouts.Add(1)
		writeError(w, http.StatusGatewayTimeout, "query deadline exceeded")
	case errors.Is(err, context.Canceled):
		// The client is gone; nothing useful to write.
	default:
		s.met.errors.Add(1)
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// metricsCache is the cache section of /metrics. In a table's section
// only Hits, Misses and HitRate are the table's own traffic; Evictions,
// BytesUsed, BytesBudget, Decodes and SlabsReused are the shared
// cache's pooled counters, the same figures as the top-level section.
type metricsCache struct {
	// Hits, Misses, Evictions, BytesUsed, BytesBudget and Decodes
	// mirror lwcomp.CacheStats.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	BytesUsed int64 `json:"bytes_used"`
	// BytesBudget is the configured capacity.
	BytesBudget int64 `json:"bytes_budget"`
	// HitRate is hits / (hits + misses), 0 with no traffic.
	HitRate float64 `json:"hit_rate"`
	// Decodes counts payload→form decodes: what the misses cost beyond
	// the read. A warm cache serves hits without adding to it.
	Decodes int64 `json:"decodes"`
	// SlabsReused counts the decodes whose words went into a slab an
	// evicted block had released instead of a new allocation.
	SlabsReused int64 `json:"slabs_reused"`
}

// toMetricsCache converts CacheStats for the JSON surface.
func toMetricsCache(st lwcomp.CacheStats) metricsCache {
	mc := metricsCache{
		Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions,
		BytesUsed: st.BytesUsed, BytesBudget: st.BytesBudget,
		Decodes: st.Decodes, SlabsReused: st.Reused,
	}
	if total := st.Hits + st.Misses; total > 0 {
		mc.HitRate = float64(st.Hits) / float64(total)
	}
	return mc
}

// metricsTable is one table's /metrics section.
type metricsTable struct {
	// Rows is the table's row count.
	Rows int `json:"rows"`
	// Cache is the table's own block-cache traffic under the shared
	// budget.
	Cache metricsCache `json:"cache"`
	// BlocksSkipped, BlocksProved and BlocksFetched are the
	// cumulative scan-plan outcomes (see blocked.ScanCounters).
	BlocksSkipped int64 `json:"blocks_skipped"`
	// BlocksProved counts stats-proved blocks (whole runs, no fetch).
	BlocksProved int64 `json:"blocks_proved"`
	// BlocksFetched counts undecided blocks whose payloads were read.
	BlocksFetched int64 `json:"blocks_fetched"`
	// ScanHelpers counts the goroutines the table's scans started
	// beside their callers: fan-out into cores no other scan was using.
	ScanHelpers int64 `json:"scan_helpers"`
	// BlocksQuarantined is the number of blocks currently quarantined
	// across the table's columns (permanent integrity failures pinned
	// at first detection).
	BlocksQuarantined int `json:"blocks_quarantined"`
	// ReadRetries counts transiently failed reads absorbed by the
	// retry policy across the table's containers.
	ReadRetries int64 `json:"read_retries"`
	// ReadGiveups counts reads that still failed after the retry
	// budget ran out.
	ReadGiveups int64 `json:"read_giveups"`
}

// metricsBody is the /metrics JSON shape (expvar-style: one flat
// document, no exposition format).
type metricsBody struct {
	// UptimeS is seconds since the server started.
	UptimeS float64 `json:"uptime_s"`
	// Queries groups the admission and outcome counters.
	Queries struct {
		// Total counts admitted queries.
		Total int64 `json:"total"`
		// InFlight and Queued are the admission gauges.
		InFlight int `json:"in_flight"`
		// Queued is the number of queries waiting for a slot.
		Queued int64 `json:"queued"`
		// Rejected counts 429s; Timeouts 504s; Errors 500s.
		Rejected int64 `json:"rejected"`
		// Timeouts counts queries that hit their deadline.
		Timeouts int64 `json:"timeouts"`
		// Errors counts queries that failed any other way.
		Errors int64 `json:"errors"`
	} `json:"queries"`
	// LatencyUs summarizes the query latency histogram in
	// microseconds.
	LatencyUs struct {
		// Count is the number of recorded queries.
		Count int64 `json:"count"`
		// MeanUs is the mean latency.
		MeanUs float64 `json:"mean"`
		// P50, P90 and P99 are bucket upper bounds (log2 buckets).
		P50 int64 `json:"p50"`
		// P90 is the 90th percentile bound.
		P90 int64 `json:"p90"`
		// P99 is the 99th percentile bound.
		P99 int64 `json:"p99"`
	} `json:"latency_us"`
	// PanicsRecovered counts panics caught and converted to errors —
	// by the handler crash barrier and by the scan engine's worker
	// recovery — instead of killing the process.
	PanicsRecovered int64 `json:"panics_recovered"`
	// Cache is the shared cache's pooled counters.
	Cache metricsCache `json:"cache"`
	// Tables holds each mounted table's counters.
	Tables map[string]metricsTable `json:"tables"`
	// Compaction holds the background compactor's tallies; present
	// only when the daemon is enabled.
	Compaction *metricsCompaction `json:"compaction,omitempty"`
	// Scrub holds the background scrubber's tallies.
	Scrub *metricsScrub `json:"scrub,omitempty"`
}

// metricsCompaction is the compaction section of /metrics.
type metricsCompaction struct {
	// ContainersScanned, Rewritten, Skipped, Failed and Merged are the
	// compactor's lifetime per-container outcome counters.
	ContainersScanned int64 `json:"containers_scanned"`
	// ContainersRewritten counts atomic rewrites that took effect.
	ContainersRewritten int64 `json:"containers_rewritten"`
	// ContainersSkipped counts containers under the rewrite threshold.
	ContainersSkipped int64 `json:"containers_skipped"`
	// ContainersFailed counts containers kept on their old generation
	// after an integrity failure.
	ContainersFailed int64 `json:"containers_failed"`
	// ContainersMerged counts merged containers written.
	ContainersMerged int64 `json:"containers_merged"`
	// BytesReclaimed is the cumulative on-disk byte win.
	BytesReclaimed int64 `json:"bytes_reclaimed"`
	// CPUSeconds is the wall time the compactor spent working.
	CPUSeconds float64 `json:"cpu_seconds"`
	// Sweeps counts sweeps started; SweepsAborted the ones cut short
	// by shutdown.
	Sweeps int64 `json:"sweeps"`
	// SweepsAborted counts sweeps that stopped before finishing.
	SweepsAborted int64 `json:"sweeps_aborted"`
	// Generation is the compactor's latest generation stamp.
	Generation uint64 `json:"generation"`
}

// metricsScrub is the scrub section of /metrics.
type metricsScrub struct {
	// ContainersScanned and BlocksScanned are the scrubber's lifetime
	// verification tallies.
	ContainersScanned int64 `json:"containers_scanned"`
	// BlocksScanned counts blocks verified (tombstones included).
	BlocksScanned int64 `json:"blocks_scanned"`
	// ErrorsFound counts integrity findings across all sweeps.
	ErrorsFound int64 `json:"errors_found"`
	// TombstonesSeen counts persisted tombstones encountered.
	TombstonesSeen int64 `json:"tombstones_seen"`
	// BytesScanned counts bytes pulled through the throttle.
	BytesScanned int64 `json:"bytes_scanned"`
	// RateBytesPerSec is the configured read-bandwidth cap (0 when
	// unthrottled).
	RateBytesPerSec int64 `json:"rate_bytes_per_sec"`
	// LastSweepAgeS is seconds since the last full sweep finished, or
	// -1 before the first completes.
	LastSweepAgeS float64 `json:"last_sweep_age_s"`
	// Quarantined counts blocks scrub sweeps quarantined on mounted
	// columns.
	Quarantined int64 `json:"quarantined"`
	// Healed counts containers salvage-repaired and swapped in.
	Healed int64 `json:"healed"`
	// Unrepairable counts containers repair had to leave untouched.
	Unrepairable int64 `json:"unrepairable"`
	// Sweeps counts sweeps started; SweepsAborted the ones cut short
	// by shutdown.
	Sweeps int64 `json:"sweeps"`
	// SweepsAborted counts sweeps that stopped before finishing.
	SweepsAborted int64 `json:"sweeps_aborted"`
}

// handleMetrics serves the counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ms := s.acquireMounts()
	defer ms.release()
	var body metricsBody
	body.UptimeS = time.Since(s.start).Seconds()
	body.Queries.Total = s.met.total.Load()
	body.Queries.InFlight = s.gate.inFlight()
	body.Queries.Queued = s.gate.waiting()
	body.Queries.Rejected = s.met.rejected.Load()
	body.Queries.Timeouts = s.met.timeouts.Load()
	body.Queries.Errors = s.met.errors.Load()
	snap := s.met.hist.snapshot()
	body.LatencyUs.Count = snap.count
	body.LatencyUs.MeanUs = snap.meanUs()
	body.LatencyUs.P50 = snap.quantile(0.50)
	body.LatencyUs.P90 = snap.quantile(0.90)
	body.LatencyUs.P99 = snap.quantile(0.99)
	body.PanicsRecovered = s.met.panics.Load() + blocked.RecoveredPanics()
	body.Cache = toMetricsCache(s.cache.Stats())
	body.Tables = make(map[string]metricsTable, len(ms.tables))
	for name, mt := range ms.tables {
		sc := mt.tbl.ScanCounters()
		quar := 0
		for _, colName := range mt.tbl.ColumnNames() {
			if col, err := mt.tbl.Column(colName); err == nil {
				quar += col.QuarantineCount()
			}
		}
		var rst lwcomp.ReadStats
		for _, cf := range mt.containers {
			st := cf.ReadStats()
			rst.Retries += st.Retries
			rst.Giveups += st.Giveups
		}
		body.Tables[name] = metricsTable{
			Rows:              mt.tbl.NumRows(),
			Cache:             toMetricsCache(mt.cacheStats()),
			BlocksSkipped:     sc.Skipped,
			BlocksProved:      sc.Proved,
			BlocksFetched:     sc.Fetched,
			ScanHelpers:       sc.Helpers,
			BlocksQuarantined: quar,
			ReadRetries:       rst.Retries,
			ReadGiveups:       rst.Giveups,
		}
	}
	if s.compactor != nil {
		ctr := s.compactor.Counters()
		body.Compaction = &metricsCompaction{
			ContainersScanned:   ctr.Scanned,
			ContainersRewritten: ctr.Rewritten,
			ContainersSkipped:   ctr.Skipped,
			ContainersFailed:    ctr.Failed,
			ContainersMerged:    ctr.Merged,
			BytesReclaimed:      ctr.BytesReclaimed,
			CPUSeconds:          ctr.CPUSeconds,
			Sweeps:              s.compactSweeps.started.Load(),
			SweepsAborted:       s.compactSweeps.aborted.Load(),
			Generation:          s.compactor.Generation(),
		}
	}
	sctr := s.scrubber.Counters()
	age := -1.0
	if sctr.LastSweepUnix > 0 {
		age = time.Since(time.Unix(sctr.LastSweepUnix, 0)).Seconds()
	}
	rate := s.cfg.ScrubRateBytes
	if rate < 0 {
		rate = 0
	}
	body.Scrub = &metricsScrub{
		ContainersScanned: sctr.ContainersScanned,
		BlocksScanned:     sctr.BlocksScanned,
		ErrorsFound:       sctr.ErrorsFound,
		TombstonesSeen:    sctr.TombstonesSeen,
		BytesScanned:      sctr.BytesScanned,
		RateBytesPerSec:   rate,
		LastSweepAgeS:     age,
		Quarantined:       s.scrubQuarantined.Load(),
		Healed:            s.scrubHealed.Load(),
		Unrepairable:      s.scrubUnrepairable.Load(),
		Sweeps:            s.scrubSweeps.started.Load(),
		SweepsAborted:     s.scrubSweeps.aborted.Load(),
	}
	writeJSON(w, body)
}

// handleCompact runs one synchronous compaction sweep — the HTTP
// trigger tests and benchmarks use for deterministic sweeps instead
// of waiting out the interval. 404 unless the daemon is configured;
// an empty result when a background sweep is already running.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if s.compactor == nil {
		writeError(w, http.StatusNotFound, "compaction daemon not enabled (start with -compact)")
		return
	}
	writeJSON(w, s.compactSweep())
}

// handleScrub runs one synchronous scrub sweep — the HTTP trigger
// tests and operators use for deterministic sweeps instead of waiting
// out the interval. It works whether or not the background daemon is
// enabled. ?heal=1 forces salvage repair of damaged containers this
// sweep, ?heal=0 forces detection only; absent, the configured
// ScrubHeal applies. An empty result means a background sweep was
// already running.
func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	heal := s.cfg.ScrubHeal
	switch r.URL.Query().Get("heal") {
	case "1", "true":
		heal = true
	case "0", "false":
		heal = false
	}
	writeJSON(w, s.scrubSweep(heal))
}

// handleReload re-mounts the directory — the HTTP twin of SIGHUP.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if err := s.Reload(); err != nil {
		writeError(w, http.StatusInternalServerError, "reload failed (previous set still serving): %v", err)
		return
	}
	writeJSON(w, struct {
		// Reloaded confirms the swap.
		Reloaded bool `json:"reloaded"`
		// Tables is the new table count.
		Tables int `json:"tables"`
	}{true, len(s.Tables())})
}
