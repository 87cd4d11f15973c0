// Command lwcd is the lwcomp columnar query daemon: it mounts a
// directory of *.lwc containers as named tables and serves the Table
// scan API over HTTP to many concurrent clients.
//
// Usage:
//
//	lwcd -dir /data/containers -addr 127.0.0.1:7207
//	lwcd -dir /data/containers -compact -compact-interval 10m -compact-merge
//	lwcd -dir /data/containers -scrub -scrub-interval 10m -scrub-rate 8388608 -scrub-heal
//	curl localhost:7207/tables
//	curl -d '{"table":"orders","where":"status = 1","op":"count"}' localhost:7207/query
//	curl -d '{"table":"orders","op":"sum","columns":["amount"],"allow_degraded":true}' localhost:7207/query
//	curl localhost:7207/metrics
//	curl localhost:7207/healthz   # liveness: the process is up
//	curl localhost:7207/readyz    # readiness: 503 mid-reload or while draining
//
// SIGHUP (or POST /-/reload) re-mounts the directory without dropping
// in-flight queries; /readyz answers 503 while the swap is in progress
// or a retired table set is still draining, so load balancers route
// around the reload without the process restarting. /healthz stays
// pure liveness.
//
// Under failures the daemon degrades instead of dying: transient read
// errors are retried with capped backoff (-read-retries), a block that
// fails its CRC is quarantined on first touch (default queries on it
// answer 500; requests with "allow_degraded": true skip it and report
// the exact omission), and a panicking query answers 500 while the
// process keeps serving. /metrics exposes the retry, quarantine and
// panic counters.
//
// -compact runs the background recompaction daemon (internal/compact)
// over the mounted directory: low-priority sweeps re-analyze each
// container and atomically rewrite the ones whose byte win clears the
// -compact-min-gain threshold, yielding to query traffic so
// compaction never takes an admission slot. A sweep that changed the
// directory re-mounts it the same way SIGHUP does — in-flight queries
// drain on the retired generation while new ones open the compacted
// files. POST /-/compact triggers one synchronous sweep; /metrics
// gains a compaction section (containers scanned/rewritten/skipped,
// bytes reclaimed, compact cpu seconds).
//
// -scrub runs the background scrubber (internal/scrub): low-priority
// sweeps fsck-walk every mounted container from disk under a byte-rate
// budget (-scrub-rate) and quarantine rotten blocks on the mounted
// columns before any query trips over them. With -scrub-heal a sweep
// also salvage-repairs each damaged container — good blocks preserved
// byte-for-byte, falsified index stats re-derived, truly lost blocks
// tombstoned with their exact row range — and re-mounts so the healed
// generation serves and the quarantine ledger clears. POST /-/scrub
// triggers one synchronous sweep (?heal=1/?heal=0 override the
// configured healing); /metrics gains a scrub section (containers and
// blocks scanned, errors found, bytes scanned against the rate budget,
// last sweep age).
//
// Compaction and scrub sweeps share one maintenance plane: at most one
// sweep of either kind runs at a time, and shutdown stops both loops
// and aborts a sweep in flight at its next container.
//
// At startup the daemon also sweeps orphaned .<name>.tmp-* files — the
// only litter a crash mid-write can leave — so an interrupted compact,
// repair, or compress never accumulates garbage in the mount.
//
// See the internal/server package documentation for the endpoint
// contracts and resource-governance knobs; `lwc serve` is the same
// server embedded in the multi-tool.
package main

import (
	"fmt"
	"os"

	"lwcomp/internal/server"
)

func main() {
	if err := server.Main(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "lwcd: %v\n", err)
		os.Exit(1)
	}
}
