package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// deadlineCtx is a query's context: its request's context with the
// query deadline on top, like context.WithDeadline, but with no timer
// until something waits on it. An admitted query only polls Err
// between chunks, and Err reads the clock, so the timer, its channel
// and the registration with the request's context are paid only by a
// request that blocks on Done — one queued for admission. Done arms
// them on its first call, the way a cancelCtx makes its channel on the
// first Done. Release it with stop once the query is over.
//
// A scan's parallel workers poll Err together, so Err takes no lock:
// the armed context is published through an atomic pointer, and the
// mutex is taken only by Done and stop.
type deadlineCtx struct {
	context.Context // the request's: cancelled when the client goes away
	deadline        time.Time

	// err is the first non-nil Err, returned from then on: without it
	// a request whose client leaves after the deadline passed would
	// turn DeadlineExceeded into Canceled.
	err   atomic.Pointer[error]
	armed atomic.Pointer[context.Context] // made by the first Done

	mu     sync.Mutex // serialises Done's arming with stop
	cancel context.CancelFunc
}

func newDeadlineCtx(parent context.Context, timeout time.Duration) *deadlineCtx {
	return &deadlineCtx{Context: parent, deadline: time.Now().Add(timeout)}
}

func (c *deadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// Err is the armed context's error once Done has been called, and
// before that the request's error or, past the deadline,
// DeadlineExceeded. Whatever it first reports it keeps reporting.
func (c *deadlineCtx) Err() error {
	if e := c.err.Load(); e != nil {
		return *e
	}
	var err error
	if a := c.armed.Load(); a != nil {
		err = (*a).Err()
	} else if err = c.Context.Err(); err == nil && time.Until(c.deadline) <= 0 {
		err = context.DeadlineExceeded // the monotonic clock alone
	}
	if err == nil {
		return nil
	}
	first := err // escapes, so only an error allocates
	c.err.CompareAndSwap(nil, &first)
	return *c.err.Load()
}

// Done arms the deadline's timer on its first call. A context whose
// Err has already reported an error is cancelled at once, so Done is
// closed whenever Err is non-nil.
func (c *deadlineCtx) Done() <-chan struct{} {
	if a := c.armed.Load(); a != nil {
		return (*a).Done()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.armed.Load()
	if a == nil {
		var armed context.Context
		armed, c.cancel = context.WithDeadline(c.Context, c.deadline)
		a = &armed
		c.armed.Store(a)
		if c.err.Load() != nil {
			c.cancel()
		}
	}
	return (*a).Done()
}

// stop releases the timer Done may have armed.
func (c *deadlineCtx) stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cancel != nil {
		c.cancel()
	}
}
