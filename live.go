package resacc

import (
	"errors"
	"time"

	"resacc/internal/live"
	"resacc/internal/obs"
)

// LiveOptions tunes a streaming write path (see Engine.StartLive). The
// zero value is usable: 500ms staleness bound and a 1024-edit pending cap.
type LiveOptions struct {
	// MaxStaleness bounds how long an accepted edit may stay invisible to
	// queries before a snapshot swap publishes it (≤ 0 = 500ms).
	MaxStaleness time.Duration
	// MaxPending forces an immediate swap once this many coalesced edits
	// are pending (≤ 0 = 1024).
	MaxPending int
	// MaxBacklog bounds the pending-edit backlog outright: an Apply batch
	// that would push past it is rejected whole with ErrEditBacklog
	// instead of growing the write queue without bound (≤ 0 =
	// 4×MaxPending).
	MaxBacklog int
	// MinSwapGap throttles MaxPending-triggered inline swaps so a write
	// storm cannot monopolise the writer with back-to-back snapshot
	// builds; the MaxStaleness timer ignores the gap, so visibility stays
	// bounded (≤ 0 = no throttle).
	MinSwapGap time.Duration
	// Metrics, when non-nil, receives the mutation metric families
	// (rwr_graph_swaps_total, rwr_edges_applied_total{op},
	// rwr_cache_invalidations_total, rwr_graph_swap_seconds,
	// pending/epoch gauges).
	Metrics *obs.Registry
	// OnSwap, when non-nil, observes every published swap — the new graph
	// plus the exact edit delta it applied — under the write lock. Tests
	// use it to replay the delta offline and demand bit-identity.
	OnSwap func(g *Graph, added, removed [][2]int32)
}

// ErrEditBacklog is returned by Live.Apply when accepting the batch would
// push the pending-edit backlog past LiveOptions.MaxBacklog. Nothing is
// applied; callers should back off for Live.RetryAfter and resubmit.
// Servers should map it to HTTP 429.
var ErrEditBacklog = live.ErrBacklog

// LiveApplyResult reports what one Live.Apply batch did.
type LiveApplyResult = live.ApplyResult

// LiveStats is a point-in-time snapshot of a write path's counters.
type LiveStats = live.Stats

// Live is a streaming write path attached to an Engine: concurrent
// callers feed edge insertions and deletions through Apply, the path
// batches and coalesces them, and snapshot swaps publish them to queries
// within the configured staleness bound. Every swap bumps the engine's
// epoch and purges the result cache. At most one Live may be attached to
// an Engine at a time.
type Live struct {
	m *live.Manager
	e *Engine
}

// StartLive attaches a streaming write path serving edits on top of the
// engine's current graph. While it is attached, all mutation must go
// through it: calling UpdateGraph concurrently would race the write path's
// view of the served graph. Close the Live to detach.
func (e *Engine) StartLive(opts LiveOptions) (*Live, error) {
	if !e.liveOn.CompareAndSwap(false, true) {
		return nil, errors.New("resacc: engine already has a live write path attached")
	}
	m := live.NewManager(e.Graph(), e.applyLiveSwap, live.Config{
		MaxStaleness: opts.MaxStaleness,
		MaxPending:   opts.MaxPending,
		MaxBacklog:   opts.MaxBacklog,
		MinSwapGap:   opts.MinSwapGap,
		Metrics:      opts.Metrics,
		OnSwap:       opts.OnSwap,
	})
	// The pending-edit watermark becomes a pressure signal: a backlog at
	// its bound is Critical, independently of queue sojourn or heap.
	e.monitor.SetSignal("edit_backlog", m.BacklogFrac)
	// Adopt the boot snapshot into the ownership bookkeeping so observers
	// can attribute queries still pinned to it after the first swap. The
	// ownership identity is the caller-id-space graph — the one query
	// events report — which differs from the snapshot's own graph when the
	// engine relabels.
	boot := e.snap.Load()
	m.AdoptAs(boot, e.eventGraph(boot))
	return &Live{m: m, e: e}, nil
}

// Apply validates and applies a batch of edge insertions and removals
// atomically with respect to snapshot swaps. An error means no change.
// The edits become visible to queries within the staleness bound, or
// immediately when the batch trips the pending cap.
func (l *Live) Apply(add, remove [][2]int32) (LiveApplyResult, error) {
	return l.m.Apply(add, remove)
}

// Flush forces any pending edits into a published snapshot and reports
// whether a swap happened.
func (l *Live) Flush() (bool, error) { return l.m.Flush() }

// RetryAfter estimates how long a writer rejected with ErrEditBacklog
// should back off: the time until the staleness deadline flushes the
// backlog plus the observed swap cost, in whole seconds clamped to
// [1s, 30s] — what an HTTP server should put in Retry-After next to the
// 429.
func (l *Live) RetryAfter() time.Duration { return l.m.RetryAfter() }

// BacklogFrac returns the pending-edit backlog as a fraction of
// MaxBacklog (1.0 = Apply is rejecting).
func (l *Live) BacklogFrac() float64 { return l.m.BacklogFrac() }

// Stats returns the write path's mutation counters.
func (l *Live) Stats() LiveStats { return l.m.Stats() }

// Owns reports whether g is a snapshot this write path published (or
// adopted) that still has in-flight readers or is current. Serving-layer
// observers use it to recognise per-query events from superseded but
// not-yet-retired snapshots.
func (l *Live) Owns(g *Graph) bool { return l.m.Owns(g) }

// Graph returns the most recently published snapshot's graph.
func (l *Live) Graph() *Graph { return l.m.Graph() }

// Close flushes pending edits, detaches the write path from the engine
// and shuts it down. Further Apply/Flush calls fail. The engine itself
// keeps serving; a new write path may be attached afterwards.
func (l *Live) Close() error {
	err := l.m.Close()
	l.e.monitor.SetSignal("edit_backlog", nil)
	l.e.liveOn.Store(false)
	return err
}
