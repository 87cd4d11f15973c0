package lwcomp

import (
	"lwcomp/internal/blocked"
	"lwcomp/internal/storage"
)

// DefaultBlockSize is the block length Encode uses when blocking is
// requested without an explicit size (WithBlockSize(0) on a
// ColumnBuilder, for example).
const DefaultBlockSize = blocked.DefaultBlockSize

// DefaultBlockCacheBytes is the block-cache budget OpenFile and
// OpenContainer use when WithBlockCache is not given.
const DefaultBlockCacheBytes = storage.DefaultBlockCacheBytes

// options is the merged configuration the functional Options fold
// into: encode-time knobs for Encode / NewColumnBuilder and open-time
// knobs for OpenFile / OpenContainer. One Option type serves both
// call sites; options irrelevant to a call are simply ignored by it.
type options struct {
	enc blocked.EncodeOptions
	// open mirrors storage.OpenOptions plus the column selector.
	cacheBytes   int64
	sharedCache  *storage.SharedCache
	retry        storage.RetryPolicy
	degraded     bool
	columnName   string
	columnChosen bool
}

// Option configures Encode, NewColumnBuilder, OpenFile and
// OpenContainer. Encode-time options (WithBlockSize, WithScheme, ...)
// are ignored by the open functions, and open-time options
// (WithBlockCache, WithColumn) are ignored by the encode
// functions — except WithParallelism, which both honor: at encode
// time it bounds concurrent block encoders, and on an opened column
// it bounds concurrent block scans.
type Option func(*options)

// WithBlockSize partitions the input into blocks of n values, each
// compressed with its own independently chosen composite scheme.
// n <= 0 encodes the whole column as a single block (the v1
// behavior). Smaller blocks adapt the scheme to local structure and
// sharpen block skipping; larger blocks amortize per-block headers.
func WithBlockSize(n int) Option {
	return func(o *options) { o.enc.BlockSize = n }
}

// WithScheme fixes the compression scheme for every block, skipping
// the analyzer. Use ParseScheme or the scheme constructors (RLENS,
// FORNS, ...) to build s.
func WithScheme(s Scheme) Option {
	return func(o *options) { o.enc.Scheme = s }
}

// WithParallelism bounds the number of blocks encoded, decoded and
// scanned concurrently. p <= 0 means GOMAXPROCS. It is an upper bound:
// a scan takes only the cores other running scans leave idle.
func WithParallelism(p int) Option {
	return func(o *options) { o.enc.Parallelism = p }
}

// WithBlockCache sets the byte budget of an opened container's block
// cache: checksum-verified, decoded block forms kept under an LRU
// policy, each charged at its encoded payload length, and shared
// read-only across every query on the container, so a hot block costs
// one lookup while cold blocks never enter memory. bytes <= 0 disables caching entirely; without this option,
// OpenFile and OpenContainer use DefaultBlockCacheBytes.
func WithBlockCache(bytes int64) Option {
	return func(o *options) { o.cacheBytes = bytes }
}

// WithSharedBlockCache makes the opened container join sc instead of
// creating its own block cache: the container's decoded blocks
// compete with every other member container's under sc's one byte
// budget. A server mounting a directory of containers opens them all
// with one shared cache, so the total of cached blocks stays bounded
// no matter how many tables are open. A nil sc opens the container
// uncached. Overrides WithBlockCache.
func WithSharedBlockCache(sc *SharedBlockCache) Option {
	return func(o *options) { o.sharedCache = sc }
}

// WithReadRetry makes an opened container re-issue transiently failed
// reads with capped exponential backoff before surfacing the error:
// p.MaxRetries attempts, sleeping p.BaseDelay doubling up to
// p.MaxDelay between them. Integrity failures — ErrChecksum,
// ErrCorrupt — are permanent and are never retried; only the
// transport saying it could not deliver the bytes is. The container's
// ReadStats reports the absorbed retries and final giveups.
func WithReadRetry(p RetryPolicy) Option {
	return func(o *options) { o.retry = p }
}

// WithDegradedScan sets the default failure mode of scans on a table
// opened with OpenTable: when enabled, a scan that hits a permanently
// unreadable block (bad CRC → quarantined) skips the block — treating
// its rows as non-matching — and records the exact omission in the
// scan's Manifest, instead of failing the query. Disabled, the
// default, keeps fail-fast semantics; Table.ScanWith can still opt a
// single scan in.
func WithDegradedScan(enabled bool) Option {
	return func(o *options) { o.degraded = enabled }
}

// WithColumn selects which named column OpenFile returns from a
// multi-column container. Without it, OpenFile requires the container
// to hold exactly one column.
func WithColumn(name string) Option {
	return func(o *options) { o.columnName = name; o.columnChosen = true }
}

// buildOptions folds opts into the merged options, applying open-path
// defaults.
func buildOptions(opts []Option) options {
	o := options{cacheBytes: DefaultBlockCacheBytes}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// openOptions projects the merged options onto the storage layer's
// open configuration.
func (o *options) openOptions() storage.OpenOptions {
	return storage.OpenOptions{CacheBytes: o.cacheBytes, Shared: o.sharedCache, Retry: o.retry}
}
