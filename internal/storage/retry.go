package storage

import (
	"time"

	"lwcomp/internal/blocked"
)

// This file is the transient-failure half of the fault-tolerance
// layer: the policy under which ContainerFile.readAt re-issues failed
// reads with capped exponential backoff. Only transient errors — the
// reader reporting it could not deliver the bytes — are retried;
// integrity failures (ErrCorrupt, ErrChecksum, undecodable forms) are
// permanent by definition and pass through untouched, to be
// quarantined by the blocked layer above.

// RetryPolicy configures capped-exponential-backoff retries of
// transient block-read failures. The zero value disables retries.
type RetryPolicy struct {
	// MaxRetries is how many times a failed read is re-issued before
	// giving up; 0 or negative disables retrying.
	MaxRetries int
	// BaseDelay is the sleep before the first retry; each subsequent
	// retry doubles it. 0 means 1ms.
	BaseDelay time.Duration
	// MaxDelay caps the doubling. 0 means 100ms.
	MaxDelay time.Duration
}

// withDefaults fills the zero delay fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 100 * time.Millisecond
	}
	return p
}

// ReadStats snapshots the container's transient-read retry counters:
// zero-valued when the container was opened without a retry policy.
func (cf *ContainerFile) ReadStats() blocked.ReadStats {
	return blocked.ReadStats{Retries: cf.retries.Load(), Giveups: cf.giveups.Load()}
}

// ReadStats implements blocked.ReadStatsSource: column handles report
// the owning container's retry counters. All columns of one container
// share one reader; per-column reads land in the same counters.
func (r *colReader) ReadStats() blocked.ReadStats { return r.cf.ReadStats() }
