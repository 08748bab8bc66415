package serve

import (
	"context"
	"sync"
	"time"
)

// flightCall is one in-flight computation that any number of waiters share.
type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error

	// waiters counts callers currently blocked on done (leader included);
	// finished and cancel let the last abandoning waiter cancel the flight
	// context so a computation nobody wants stops burning a worker slot.
	waiters  int
	finished bool
	cancel   context.CancelFunc
}

// flightGroup deduplicates concurrent work per Key: the first caller for a
// key becomes the leader and starts the computation; everyone arriving
// before it finishes joins and shares the result. Unlike
// golang.org/x/sync/singleflight, waiters honour their own context — a
// joiner whose deadline expires unblocks with ctx.Err() while the shared
// computation keeps running (it is not owned by any single request) and
// still populates the cache for the next caller.
//
// Each flight gets its own context, handed to start: derived from
// context.Background() — NOT the leader's, so a leader whose client
// disconnects does not kill a computation other waiters still want — but
// carrying the leader's deadline shrunk by a small headroom, so a
// deadline-bound computation stops and publishes its degraded result
// before the waiters' own deadlines fire. When the last waiter abandons,
// the flight context is cancelled outright.
type flightGroup[V any] struct {
	mu    sync.Mutex
	calls map[Key]*flightCall[V]
}

// flightHeadroom shrinks the leader's deadline for the flight context: 5%
// of the remaining budget, clamped to [1ms, 50ms]. The slack covers
// publishing the degraded result and waking the waiters.
func flightHeadroom(remaining time.Duration) time.Duration {
	h := remaining / 20
	switch {
	case h < time.Millisecond:
		return time.Millisecond
	case h > 50*time.Millisecond:
		return 50 * time.Millisecond
	default:
		return h
	}
}

// do runs start exactly once per key among concurrent callers. start
// receives the flight's context (see flightGroup) and a finish callback
// that publishes the result; it must arrange for finish to be called
// exactly once (possibly on another goroutine). The returned bool reports
// whether this caller joined an existing flight.
func (g *flightGroup[V]) do(ctx context.Context, key Key,
	start func(fctx context.Context, finish func(V, error))) (V, bool, error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[Key]*flightCall[V])
	}
	if c, ok := g.calls[key]; ok {
		c.waiters++
		g.mu.Unlock()
		return g.wait(ctx, key, c, true)
	}
	c := &flightCall[V]{done: make(chan struct{}), waiters: 1}
	var fctx context.Context
	if dl, ok := ctx.Deadline(); ok {
		fctx, c.cancel = context.WithDeadline(context.Background(),
			dl.Add(-flightHeadroom(time.Until(dl))))
	} else {
		fctx, c.cancel = context.WithCancel(context.Background())
	}
	g.calls[key] = c

	g.mu.Unlock()

	start(fctx, func(v V, err error) {
		g.mu.Lock()
		c.val, c.err = v, err
		c.finished = true
		// An abandoned flight already left the map, and a fresh flight
		// for the key may hold the slot now.
		if g.calls[key] == c {
			delete(g.calls, key)
		}
		g.mu.Unlock()
		// Release the deadline timer; the computation is done, so the
		// cancellation signal itself is moot.
		c.cancel()
		close(c.done)
	})
	return g.wait(ctx, key, c, false)
}

func (g *flightGroup[V]) wait(ctx context.Context, key Key, c *flightCall[V], joined bool) (V, bool, error) {
	select {
	case <-c.done:
		return c.val, joined, c.err
	case <-ctx.Done():
		g.mu.Lock()
		c.waiters--
		abandon := c.waiters == 0 && !c.finished
		if abandon {
			// Retire the flight before cancelling it: a caller arriving
			// while the computation winds down starts a fresh flight
			// instead of sharing the cancelled result.
			delete(g.calls, key)
		}
		g.mu.Unlock()
		if abandon {
			// Nobody is listening any more: cancel the flight so the
			// computation winds down at its next check instead of holding
			// a worker slot.
			c.cancel()
		}
		var zero V
		return zero, joined, ctx.Err()
	}
}
