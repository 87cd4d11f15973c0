// Package compact is the background recompaction service: write fast
// now, shrink later. Ingest may encode blocks cheaply (a fixed scheme, a
// cost budget, extra candidates, a block longer than the search
// sample); a Compactor later walks the resulting v3 containers,
// re-analyzes every block with the encoder's search over the default
// candidates, and atomically rewrites a container when the byte win
// clears a configurable threshold. A container whose every block the
// encoder certified (blocked.Block.Certificate) is already that
// search's result and is skipped from its index alone, so a compacted
// directory is an index-only fixed point.
//
// A rewrite is a generation swap, not an in-place mutation: the
// candidate container is serialized to memory, verified by the same
// walk `lwc verify` runs (storage.VerifyContainer: every block
// CRC-checked, decoded, its re-derived [min, max] compared against the
// index) with a per-block visit adding value-for-value equality
// against the data the old generation held, and only then renamed over
// the old file through storage.AtomicWriteFile. Concurrent readers
// holding the old generation's file descriptor finish on the retired
// inode (POSIX rename semantics — the same drain the query server's
// refcounted mount sets rely on); new opens see the compacted
// generation. Any verification mismatch aborts the swap and keeps the
// old generation byte-for-byte intact.
//
// The package also coalesces directories of many tiny same-table
// single-column containers (`<table>.<column>.lwc`) into one
// multi-column `<table>.lwc` (Options.MergeSmall), and estimates
// per-container savings from block statistics alone — no trial encode,
// no write — for `lwc compact --dry-run` (Compactor.EstimateDir).
//
// Surfaces: the `lwc compact` subcommand runs a single-shot pass; the
// query server (internal/server) hosts the same Compactor as a
// low-priority background loop that yields to query traffic and
// re-mounts after each sweep that changed the directory.
package compact
