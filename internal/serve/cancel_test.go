package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestEngineCancelDuringQueueWait expires a caller's deadline while its
// computation is still parked in the admission queue: the caller must get
// DeadlineExceeded, the compute must never run, and — because the failed
// flight is removed from the singleflight map — the next caller for the
// same key must recompute fresh rather than inherit the dead flight.
func TestEngineCancelDuringQueueWait(t *testing.T) {
	e := New[int](Config{Workers: 1, QueueDepth: 1})
	defer e.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	// Occupy the worker and the single queue slot.
	go e.Do(context.Background(), key(1), false, func(context.Context) (int, int64, error) {
		close(started)
		<-block
		return 1, 8, nil
	})
	<-started
	go e.Do(context.Background(), key(2), false, value(2))
	waitFor(t, func() bool { return e.Pool().QueueDepth() == 1 })

	var ran atomic.Bool
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, _, err := e.Do(ctx, key(3), true, func(context.Context) (int, int64, error) {
		ran.Store(true)
		return 3, 8, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued caller err=%v, want DeadlineExceeded", err)
	}
	if ran.Load() {
		t.Fatal("compute ran despite the caller timing out in the queue")
	}

	// Drain the pool; the abandoned key must compute cleanly afterwards.
	close(block)
	waitFor(t, func() bool { return e.Pool().QueueDepth() == 0 })
	v, out, err := e.Do(context.Background(), key(3), true, value(3))
	if err != nil || v != 3 || out != OutcomeComputed {
		t.Fatalf("retry after queue timeout: v=%d out=%v err=%v", v, out, err)
	}
}

// TestEngineCancelDuringCompute abandons a running computation (the only
// waiter cancels) and checks that the flight context is cancelled so the
// compute can wind down, the worker slot comes back, and the singleflight
// map is not poisoned — the next caller recomputes and succeeds.
func TestEngineCancelDuringCompute(t *testing.T) {
	e := New[int](Config{Workers: 1, QueueDepth: 4})
	defer e.Close()

	computing := make(chan struct{})
	unblocked := make(chan struct{})
	go e.Do(context.Background(), key(7), false, value(7)) // warm nothing; distinct key below

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := e.Do(ctx, key(8), false, func(fctx context.Context) (int, int64, error) {
			close(computing)
			<-fctx.Done() // a deadline-aware compute parks on its flight ctx
			close(unblocked)
			return 0, 0, fctx.Err()
		})
		done <- err
	}()
	<-computing
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning caller err=%v, want Canceled", err)
	}
	// The last waiter abandoning must cancel the flight context, releasing
	// the worker the compute was holding.
	select {
	case <-unblocked:
	case <-time.After(2 * time.Second):
		t.Fatal("flight context not cancelled after the last waiter left")
	}

	// Fresh caller, same key: recomputes from scratch and succeeds.
	var calls atomic.Int64
	v, out, err := e.Do(context.Background(), key(8), true, func(context.Context) (int, int64, error) {
		calls.Add(1)
		return 88, 8, nil
	})
	if err != nil || v != 88 || out != OutcomeComputed || calls.Load() != 1 {
		t.Fatalf("recompute after abandon: v=%d out=%v err=%v calls=%d", v, out, err, calls.Load())
	}
}

// TestEngineFlightContextCarriesDeadline checks the compute sees the
// leader's deadline shrunk by the headroom — early enough to publish a
// degraded answer before the waiters' own deadlines fire.
func TestEngineFlightContextCarriesDeadline(t *testing.T) {
	e := New[int](Config{Workers: 1})
	defer e.Close()

	leaderDL := time.Now().Add(500 * time.Millisecond)
	ctx, cancel := context.WithDeadline(context.Background(), leaderDL)
	defer cancel()
	_, _, err := e.Do(ctx, key(4), false, func(fctx context.Context) (int, int64, error) {
		dl, ok := fctx.Deadline()
		if !ok {
			t.Error("flight context has no deadline")
		} else if !dl.Before(leaderDL) {
			t.Errorf("flight deadline %v not before leader deadline %v", dl, leaderDL)
		}
		return 4, 8, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEngineNegativeBytesNotCached checks the degraded-answer convention:
// a compute reporting bytes < 0 is served to the caller but never cached,
// so the next caller recomputes under its own (possibly generous) deadline.
func TestEngineNegativeBytesNotCached(t *testing.T) {
	e := New[int](Config{Workers: 1})
	defer e.Close()
	ctx := context.Background()

	var calls atomic.Int64
	degraded := func(context.Context) (int, int64, error) {
		calls.Add(1)
		return 6, -1, nil
	}
	for i := 0; i < 2; i++ {
		v, _, err := e.Do(ctx, key(6), false, degraded)
		if err != nil || v != 6 {
			t.Fatalf("call %d: v=%d err=%v", i, v, err)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("calls=%d, want 2 (negative bytes must not be cached)", calls.Load())
	}
	if e.Cache().Len() != 0 {
		t.Fatalf("cache holds %d entries after degraded-only traffic", e.Cache().Len())
	}
}

// TestFlightAbandonedIsNotJoined pins the flight bookkeeping the engine
// test above races on: once the last waiter abandons a flight, a new
// caller for the key starts a fresh flight instead of sharing the
// cancelled one, and the abandoned flight finishing late leaves the
// fresh flight in place.
func TestFlightAbandonedIsNotJoined(t *testing.T) {
	var g flightGroup[int]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var finishOld func(int, error)
	if _, _, err := g.do(ctx, key(1), func(_ context.Context, finish func(int, error)) {
		finishOld = finish // never called before the next flight starts
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning caller err=%v, want Canceled", err)
	}

	type result struct {
		v      int
		joined bool
		err    error
	}
	fresh := make(chan result, 1)
	started := make(chan func(int, error), 1)
	go func() {
		v, joined, err := g.do(context.Background(), key(1), func(_ context.Context, finish func(int, error)) {
			started <- finish
		})
		fresh <- result{v, joined, err}
	}()
	var finishNew func(int, error)
	select {
	case finishNew = <-started:
	case <-time.After(2 * time.Second):
		t.Fatal("the caller after the abandon joined the cancelled flight instead of starting one")
	}

	finishOld(0, context.Canceled)
	g.mu.Lock()
	_, live := g.calls[key(1)]
	g.mu.Unlock()
	if !live {
		t.Fatal("the abandoned flight finishing late removed the fresh flight")
	}
	finishNew(42, nil)
	if r := <-fresh; r.err != nil || r.v != 42 || r.joined {
		t.Fatalf("fresh flight: v=%d joined=%v err=%v, want 42 as leader", r.v, r.joined, r.err)
	}
}
