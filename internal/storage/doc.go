// Package storage serializes compressed Form trees to bytes and
// container files, and opens container files back.
//
// The form encoding mirrors the paper's columnar view directly: a
// form is a scheme tag, scalar parameters, named child forms, and (at
// leaves) a physical payload. Nothing else — no block headers, no
// padding — matching the paper's "pure columns, stripped bare of
// implementation-specific adornments". All integers are
// little-endian; lengths and parameters are LEB128 varints (zigzagged
// where signed).
//
// Container format v3 ("LWC3") wraps that encoding: a self-contained
// index at the front carries each block's stats, payload extent and
// per-block CRC-32C; payloads follow. OpenContainer reads only the
// prefix and index, then serves block payloads on demand, verifying
// each block's checksum at first touch; LoadContainer reads a whole
// container with every form resident. v3 is the only generation any
// open path reads: a file whose 4-byte magic is anything else is
// rejected before another byte is read, and for the two older
// generations (v1, one form per column; v2, blocked columns — both
// under one whole-body CRC) the error names `lwc upgrade`. legacy.go
// keeps their decoders behind one entry point that only that command
// calls, to rewrite such a file as v3.
//
// The lazy path is built from two pieces: one positioned-read method,
// ContainerFile.readAt, that every container byte — prefix, index,
// block payload — is read through (from the container's io.ReaderAt,
// retried under its RetryPolicy), and a byte-budgeted LRU cache of
// verified, decoded block forms shared by all queries on a
// ContainerFile (or by every container joined to one SharedCache).
// ContainerFile.Payload hands a block's raw bytes to the salvage pass
// (internal/scrub). A block payload is read into a pooled buffer that
// lives only for its fetch: its CRC is checked, then the decoder copies
// each word payload once into one slab the form owns, so the buffer
// goes back to the pool at once and the cache charges each form its
// encoded payload length. The slab comes from a free list (slab.go)
// that the cache refills: a form's slab goes back once the cache has
// evicted the form and the last reader's lease on it is released.
// DESIGN.md §1.8 states the invariants; the short version: the index
// alone decides truncation at open time, payload corruption surfaces
// as ErrChecksum at first touch of the affected block only, and a
// block is never resident unless a query touched it or the cache still
// holds it.
package storage
