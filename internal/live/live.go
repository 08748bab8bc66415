// Package live is the streaming-mutation subsystem: it turns graph edits
// into a first-class serving path instead of an offline rebuild. A Manager
// batches and coalesces concurrent edge insertions/deletions on top of a
// single-writer graph.Dynamic, materialises RCU-style immutable CSR
// snapshots (Snapshot), and publishes them through a caller-supplied swap
// callback under live query traffic; the serving layer purges its result
// cache on every swap.
//
// Staleness contract: an accepted edit becomes visible in served snapshots
// within Config.MaxStaleness, or sooner when Config.MaxPending edits pile
// up or Flush forces a swap. Queries keep serving the previous snapshot
// while the next one is built — the write path never blocks the read path.
package live

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"resacc/internal/crash"
	"resacc/internal/faultinject"
	"resacc/internal/graph"
	"resacc/internal/obs"
	"resacc/internal/pressure"
)

// ErrClosed is returned by Apply/Flush after Close.
var ErrClosed = errors.New("live: manager closed")

// ErrBacklog is returned by Apply when accepting the batch would push the
// pending-edit backlog past Config.MaxBacklog. Nothing is applied; the
// caller should back off for RetryAfter and resubmit. cmd/rwrd maps it to
// HTTP 429 + Retry-After.
var ErrBacklog = errors.New("live: pending-edit backlog full, batch rejected")

// SwapFunc publishes a freshly built snapshot to the serving layer and
// invalidates its cached answers. onRetire must be attached to the
// published snapshot so it runs when the last in-flight query releases it.
// It returns how many cache entries were invalidated. It is called with
// the manager's write lock held and must not call back into the Manager.
type SwapFunc func(g *graph.Graph, onRetire func()) (invalidated int)

// Config tunes a Manager. The zero value gets 500ms max staleness and a
// 1024-edit pending cap.
type Config struct {
	// MaxStaleness bounds how long an accepted edit may wait before a
	// snapshot swap makes it visible (≤ 0 = 500ms).
	MaxStaleness time.Duration
	// MaxPending forces an immediate swap once this many edits are
	// pending (≤ 0 = 1024), bounding the cost of one snapshot build.
	MaxPending int
	// MaxBacklog bounds the pending-edit backlog outright: an Apply batch
	// that would push past it is rejected whole with ErrBacklog instead of
	// growing the write queue without bound (≤ 0 = 4×MaxPending). The
	// backlog can exceed MaxPending only while swaps are failing or
	// MinSwapGap is deferring them, which is exactly when rejecting is
	// better than queueing.
	MaxBacklog int
	// MinSwapGap throttles MaxPending-triggered inline swaps: after a
	// swap, another inline swap is deferred until this much time has
	// passed, so a write storm cannot monopolise the writer with
	// back-to-back snapshot builds (read priority — queries pin snapshots
	// RCU-style and never wait on the writer, but every build burns CPU
	// the workers could use). The MaxStaleness timer ignores the gap, so
	// the staleness contract still holds (≤ 0 = no throttle).
	MinSwapGap time.Duration
	// Metrics, when non-nil, receives the mutation metric families
	// (rwr_graph_swaps_total, rwr_edges_applied_total{op},
	// rwr_cache_invalidations_total, rwr_graph_swap_seconds, and
	// pending/epoch gauges).
	Metrics *obs.Registry
	// OnSwap, when non-nil, observes every successful swap under the
	// write lock: the new snapshot graph plus the exact edit delta it
	// applied. Tests use it to replay the same edits offline and demand a
	// bit-identical graph.
	OnSwap func(g *graph.Graph, added, removed [][2]int32)
}

// Manager is the concurrency-safe write path over a graph.Dynamic. All
// mutation goes through Apply, which serialises writers (honouring
// Dynamic's single-writer contract), coalesces edits (add+remove of the
// same edge cancels inside Dynamic), and swaps snapshots per the staleness
// policy. It is safe for concurrent use.
type Manager struct {
	cfg  Config
	swap SwapFunc

	// mu serialises every Dynamic access and the swap pipeline — it IS
	// the single writer. Queries never take it.
	mu           sync.Mutex
	dyn          *graph.Dynamic
	base         *graph.Graph // graph dyn is based on = currently published
	pendingSince time.Time
	lastSwapAt   time.Time // last successful swap, for the MinSwapGap throttle
	timer        *time.Timer
	epoch        uint64 // successful swaps
	closed       bool

	// ownMu guards owned: every graph this manager has published (plus
	// the one it adopted at start) that has not yet retired. The serving
	// layer's per-query observers use it to recognise events from any
	// still-live snapshot.
	ownMu sync.Mutex
	owned map[*graph.Graph]struct{}

	added, removed, noops atomic.Uint64
	swaps, swapFailures   atomic.Uint64
	invalidated           atomic.Uint64
	retiredSnaps          atomic.Uint64
	rejected              atomic.Uint64
	lastSwapNanos         atomic.Int64
	mSwaps, mInv          *obs.Counter
	mAddOps, mRemOps      *obs.Counter
	mRejected             *obs.Counter
	mSwapDur              *obs.Histogram
}

// NewManager starts a write path over base, publishing snapshots through
// swap. base must be the graph the serving layer currently serves.
func NewManager(base *graph.Graph, swap SwapFunc, cfg Config) *Manager {
	if cfg.MaxStaleness <= 0 {
		cfg.MaxStaleness = 500 * time.Millisecond
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 1024
	}
	if cfg.MaxBacklog <= 0 {
		cfg.MaxBacklog = 4 * cfg.MaxPending
	}
	m := &Manager{
		cfg:   cfg,
		swap:  swap,
		dyn:   graph.NewDynamic(base),
		base:  base,
		owned: map[*graph.Graph]struct{}{base: {}},
	}
	if reg := cfg.Metrics; reg != nil {
		m.mSwaps = reg.Counter("rwr_graph_swaps_total",
			"Live snapshot swaps published under traffic.")
		m.mInv = reg.Counter("rwr_cache_invalidations_total",
			"Result-cache entries invalidated by live snapshot swaps.")
		const appHelp = "Edge edits applied through the live write path, by operation."
		m.mAddOps = reg.Counter("rwr_edges_applied_total", appHelp, "op", "add")
		m.mRemOps = reg.Counter("rwr_edges_applied_total", appHelp, "op", "remove")
		m.mSwapDur = reg.Histogram("rwr_graph_swap_seconds",
			"Latency of live snapshot swaps (build + publish + purge).",
			obs.DefBuckets)
		m.mRejected = reg.Counter("rwr_live_backlog_rejected_total",
			"Apply batches rejected because the pending-edit backlog was full.")
		reg.GaugeFunc("rwr_live_pending_edits",
			"Edge edits accepted but not yet visible in a served snapshot.",
			func() float64 { s := m.Stats(); return float64(s.PendingAdds + s.PendingRemoves) })
		reg.GaugeFunc("rwr_live_backlog_frac",
			"Pending-edit backlog as a fraction of MaxBacklog (1.0 = writes rejected).",
			m.BacklogFrac)
		reg.GaugeFunc("rwr_live_snapshot_epoch",
			"Monotonic count of live snapshot swaps published.",
			func() float64 { return float64(m.Stats().Epoch) })
	}
	return m
}

// ApplyResult reports what one Apply batch did.
type ApplyResult struct {
	// Applied counts ops that changed the pending edit state; Noops
	// counts ops the coalescer absorbed (re-adding an existing edge,
	// removing an absent one).
	Applied, Noops int
	// PendingAdds/PendingRemoves is the edit backlog after this batch.
	PendingAdds, PendingRemoves int
	// Swapped reports that this batch tripped MaxPending and a snapshot
	// was published inline.
	Swapped bool
	// Epoch is the swap epoch after this batch.
	Epoch uint64
}

// Apply validates and applies a batch of edge insertions and removals.
// The whole batch is validated before any op is applied, so an error means
// no change. Concurrent callers serialise; each batch lands atomically
// with respect to snapshot swaps (a swap sees whole batches only).
func (m *Manager) Apply(add, remove [][2]int32) (ApplyResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ApplyResult{}, ErrClosed
	}
	// Backpressure gate: the whole batch is rejected before anything is
	// applied when it could push the backlog past MaxBacklog (counting ops
	// that may turn out to be noops — conservative, but a rejected batch is
	// retryable while an unbounded backlog is not).
	if adds, removes := m.dyn.PendingEdits(); adds+removes+len(add)+len(remove) > m.cfg.MaxBacklog {
		m.rejected.Add(1)
		if m.mRejected != nil {
			m.mRejected.Inc()
		}
		return ApplyResult{}, ErrBacklog
	}
	n := int32(m.dyn.N())
	for i, e := range add {
		if err := checkEdge(e, n, "add", i); err != nil {
			return ApplyResult{}, err
		}
	}
	for i, e := range remove {
		if err := checkEdge(e, n, "remove", i); err != nil {
			return ApplyResult{}, err
		}
	}

	var res ApplyResult
	for _, e := range add {
		v0 := m.dyn.Version()
		if err := m.dyn.AddEdge(e[0], e[1]); err != nil {
			return res, err // unreachable after validation; belt and braces
		}
		if m.dyn.Version() != v0 {
			res.Applied++
			m.added.Add(1)
			if m.mAddOps != nil {
				m.mAddOps.Inc()
			}
		} else {
			res.Noops++
			m.noops.Add(1)
		}
	}
	for _, e := range remove {
		v0 := m.dyn.Version()
		if err := m.dyn.RemoveEdge(e[0], e[1]); err != nil {
			return res, err
		}
		if m.dyn.Version() != v0 {
			res.Applied++
			m.removed.Add(1)
			if m.mRemOps != nil {
				m.mRemOps.Inc()
			}
		} else {
			res.Noops++
			m.noops.Add(1)
		}
	}

	adds, removes := m.dyn.PendingEdits()
	if adds+removes > 0 {
		if m.pendingSince.IsZero() {
			m.pendingSince = time.Now()
			m.timer = time.AfterFunc(m.cfg.MaxStaleness, m.timerFlush)
		}
		if adds+removes >= m.cfg.MaxPending {
			// Read priority: defer an inline swap that would land within
			// MinSwapGap of the previous one — the staleness timer is
			// already armed, so visibility stays bounded while the writer
			// stops competing with query workers for CPU.
			if m.cfg.MinSwapGap <= 0 || time.Since(m.lastSwapAt) >= m.cfg.MinSwapGap {
				if err := m.swapLocked(); err == nil {
					res.Swapped = true
				}
			}
		}
	}
	adds, removes = m.dyn.PendingEdits()
	res.PendingAdds, res.PendingRemoves = adds, removes
	res.Epoch = m.epoch
	return res, nil
}

func checkEdge(e [2]int32, n int32, op string, i int) error {
	if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
		return fmt.Errorf("live: %s[%d]: edge (%d,%d) out of range [0,%d)", op, i, e[0], e[1], n)
	}
	if e[0] == e[1] {
		return fmt.Errorf("live: %s[%d]: self-loop (%d,%d) not allowed", op, i, e[0], e[1])
	}
	return nil
}

// timerFlush is the max-staleness deadline: publish whatever is pending.
// On failure (an injected or real swap panic) the pending edits survive
// and the timer re-arms, so staleness stays bounded by retry cadence
// rather than becoming unbounded after one bad swap.
func (m *Manager) timerFlush() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	if adds, removes := m.dyn.PendingEdits(); adds+removes == 0 {
		return
	}
	if err := m.swapLocked(); err != nil {
		m.timer = time.AfterFunc(m.cfg.MaxStaleness, m.timerFlush)
	}
}

// Flush forces a snapshot swap of any pending edits and reports whether
// one was published.
func (m *Manager) Flush() (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false, ErrClosed
	}
	if adds, removes := m.dyn.PendingEdits(); adds+removes == 0 {
		return false, nil
	}
	if err := m.swapLocked(); err != nil {
		return false, err
	}
	return true, nil
}

// swapLocked builds and publishes a snapshot of the pending edits. Called
// with mu held. A panic anywhere in the pipeline (chaos point "live.swap",
// or a real bug) is contained: the error is returned, the previous
// snapshot keeps serving untouched, and the pending edits remain queued
// for the next attempt.
func (m *Manager) swapLocked() (err error) {
	defer func() {
		if err != nil {
			m.swapFailures.Add(1)
		}
	}()
	defer crash.Recover("live: swap", &err)
	start := time.Now()

	added, removed := m.dyn.Edits()
	g, err := m.dyn.Snapshot()
	if err != nil {
		return err
	}

	// Chaos point: a fault here proves a failed swap leaves the previous
	// snapshot serving and the edit backlog intact.
	faultinject.Hit("live.swap")

	// Register ownership before publishing so the retire hook — and any
	// observer attributing queries to the snapshot the instant it becomes
	// current — always finds the entry. If the swap callback panics the
	// snapshot was never published, so the deferred rollback removes the
	// entry again; otherwise a failed retry per attempt would leak one
	// ownership record each, and Owns(g) would report an unpublished graph
	// forever.
	m.ownMu.Lock()
	m.owned[g] = struct{}{}
	m.ownMu.Unlock()
	published := false
	defer func() {
		if !published {
			m.ownMu.Lock()
			delete(m.owned, g)
			m.ownMu.Unlock()
		}
	}()
	invalidated := m.swap(g, func() {
		m.ownMu.Lock()
		delete(m.owned, g)
		m.ownMu.Unlock()
		m.retiredSnaps.Add(1)
	})
	published = true

	// Publication succeeded: re-base the edit session on the snapshot it
	// just produced, so the next delta is exactly "edits since the
	// currently served graph".
	m.dyn = graph.NewDynamic(g)
	m.base = g
	m.epoch++
	m.pendingSince = time.Time{}
	m.lastSwapAt = time.Now()
	if m.timer != nil {
		m.timer.Stop()
		m.timer = nil
	}

	m.swaps.Add(1)
	m.invalidated.Add(uint64(invalidated))
	dur := time.Since(start)
	m.lastSwapNanos.Store(int64(dur))
	if m.mSwaps != nil {
		m.mSwaps.Inc()
		m.mInv.Add(float64(invalidated))
		m.mSwapDur.Observe(dur.Seconds())
	}
	if m.cfg.OnSwap != nil {
		m.cfg.OnSwap(g, added, removed)
	}
	return nil
}

// BacklogFrac returns the pending-edit backlog as a fraction of
// MaxBacklog — the write-path load signal for a pressure.Monitor (1.0
// means Apply is rejecting).
func (m *Manager) BacklogFrac() float64 {
	m.mu.Lock()
	adds, removes := m.dyn.PendingEdits()
	m.mu.Unlock()
	return float64(adds+removes) / float64(m.cfg.MaxBacklog)
}

// RetryAfter estimates how long a rejected writer should back off: the
// time until the staleness deadline flushes the current backlog plus the
// cost of that swap (as observed on the last one), rounded up to whole
// seconds and clamped to [1s, pressure.MaxRetryAfter].
func (m *Manager) RetryAfter() time.Duration {
	m.mu.Lock()
	wait := m.cfg.MaxStaleness
	if !m.pendingSince.IsZero() {
		wait = m.cfg.MaxStaleness - time.Since(m.pendingSince)
		if wait < 0 {
			wait = 0
		}
	}
	m.mu.Unlock()
	wait += time.Duration(m.lastSwapNanos.Load())
	d := wait.Truncate(time.Second)
	if d < wait {
		d += time.Second
	}
	if d < time.Second {
		d = time.Second
	}
	if d > pressure.MaxRetryAfter {
		d = pressure.MaxRetryAfter
	}
	return d
}

// Graph returns the graph of the most recently published snapshot (the
// base of the pending edit session).
func (m *Manager) Graph() *graph.Graph {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.base
}

// Owns reports whether g is a snapshot this manager published (or
// adopted) that has not yet retired. Serving-layer observers use it to
// attribute per-query events from in-flight queries still pinned to a
// superseded snapshot.
func (m *Manager) Owns(g *graph.Graph) bool {
	m.ownMu.Lock()
	defer m.ownMu.Unlock()
	_, ok := m.owned[g]
	return ok
}

// adopt registers a graph published before the manager existed (the
// engine's boot snapshot) in the ownership set and returns the retire
// hook to install on its snapshot.
func (m *Manager) adopt(g *graph.Graph) (onRetire func()) {
	m.ownMu.Lock()
	m.owned[g] = struct{}{}
	m.ownMu.Unlock()
	return func() {
		m.ownMu.Lock()
		delete(m.owned, g)
		m.ownMu.Unlock()
		m.retiredSnaps.Add(1)
	}
}

// Adopt registers the currently served snapshot with the ownership
// bookkeeping and installs the retire hook on it.
func (m *Manager) Adopt(s *Snapshot) {
	m.AdoptAs(s, s.Graph())
}

// AdoptAs is Adopt with an explicit ownership identity: g is the graph by
// which observers will recognise this snapshot's query events. The serving
// engine needs the split when it relabels node ids — events are reported
// against the caller-id-space graph while the snapshot itself holds the
// relabeled copy.
func (m *Manager) AdoptAs(s *Snapshot, g *graph.Graph) {
	s.InstallRetire(m.adopt(g))
}

// Close flushes pending edits and shuts the write path down. Further
// Apply/Flush calls fail with ErrClosed. The final flush error (if any)
// is returned; the manager closes regardless.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	var err error
	if adds, removes := m.dyn.PendingEdits(); adds+removes > 0 {
		err = m.swapLocked()
	}
	m.closed = true
	if m.timer != nil {
		m.timer.Stop()
		m.timer = nil
	}
	return err
}

// Stats is a point-in-time snapshot of the mutation counters.
type Stats struct {
	// Epoch counts successful snapshot swaps.
	Epoch uint64
	// PendingAdds/PendingRemoves is the coalesced edit backlog not yet
	// visible in a served snapshot.
	PendingAdds, PendingRemoves int
	// EdgesAdded/EdgesRemoved/EdgeNoops count Apply ops by effect.
	EdgesAdded, EdgesRemoved, EdgeNoops uint64
	// Swaps counts published snapshot swaps; SwapFailures counts contained
	// swap panics/errors (the old snapshot kept serving).
	Swaps, SwapFailures uint64
	// Invalidated counts cache entries evicted by swaps.
	Invalidated uint64
	// RejectedBacklog counts Apply batches refused because the backlog
	// was full.
	RejectedBacklog uint64
	// MaxBacklog is the configured backlog bound the rejections enforce.
	MaxBacklog int
	// RetiredSnapshots counts snapshots whose last in-flight query has
	// released them.
	RetiredSnapshots uint64
	// LastSwap is the duration of the most recent successful swap.
	LastSwap time.Duration
}

// Stats returns current mutation counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	adds, removes := m.dyn.PendingEdits()
	epoch := m.epoch
	m.mu.Unlock()
	return Stats{
		Epoch:            epoch,
		PendingAdds:      adds,
		PendingRemoves:   removes,
		EdgesAdded:       m.added.Load(),
		EdgesRemoved:     m.removed.Load(),
		EdgeNoops:        m.noops.Load(),
		Swaps:            m.swaps.Load(),
		SwapFailures:     m.swapFailures.Load(),
		Invalidated:      m.invalidated.Load(),
		RejectedBacklog:  m.rejected.Load(),
		MaxBacklog:       m.cfg.MaxBacklog,
		RetiredSnapshots: m.retiredSnaps.Load(),
		LastSwap:         time.Duration(m.lastSwapNanos.Load()),
	}
}
