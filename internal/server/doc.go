// Package server is the lwcd columnar query daemon: it mounts a
// directory of container files as named tables and serves the Table
// scan API over HTTP to many concurrent clients.
//
// The subsystem is resource governance around the existing scan
// engine, not a new engine. Every mounted container joins one
// SharedBlockCache, so cached blocks stay under a single
// byte budget however many tables are open; an admission gate bounds
// in-flight queries and queue depth, answering 429 with Retry-After
// at saturation instead of collapsing; every query runs under a
// deadline-carrying context threaded into the scan loop, so an
// expired or disconnected request stops fetching blocks mid-scan;
// and row results stream as NDJSON batches, so a million-row
// materialize never buffers whole.
//
// Endpoints:
//
//	GET  /tables    the catalog, from index reads only (no payload decode)
//	POST /query     {table, where, columns, op, timeout_ms, batch_rows, limit}
//	GET  /metrics   expvar-style JSON: latency histogram, admission gauges,
//	                per-table cache hit rates and block skip/prove/fetch counters
//	POST /-/reload  re-mount the directory (SIGHUP does the same)
//	GET  /healthz   liveness
//
// Mounting groups files by name: `<table>.<column>.lwc` contributes
// one column (the file must hold exactly one; the filename wins over
// the container's internal name) and `<table>.lwc` contributes every
// column the container holds. All columns of one table must have
// equal row counts. Reloads swap the mounted set atomically; queries
// running against the old set finish on it, and its containers close
// when the last one drains.
package server
