package resacc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"resacc/internal/core"
	"resacc/internal/graph"
	"resacc/internal/live"
	"resacc/internal/obs"
	"resacc/internal/pressure"
	"resacc/internal/serve"
	"resacc/internal/ws"
)

// ErrOverloaded is returned by Engine queries that were load-shed because
// the engine's wait queue was full. Servers should map it to HTTP 429.
var ErrOverloaded = serve.ErrOverloaded

// ComputeFunc produces a full single-source result; it is the pluggable
// core of an Engine (default: Query, i.e. ResAcc). Computations are shared
// by every request waiting on the same key, so they run detached from any
// single caller; ctx is the flight context — it carries the leading
// request's deadline (shrunk by a small headroom so the result publishes
// before the waiters give up) and is cancelled outright once every waiter
// has abandoned the flight. Implementations should honour it; returning a
// Result with Degraded set marks the answer as partial, which the engine
// serves to the current waiters but never caches.
type ComputeFunc func(ctx context.Context, g *Graph, source int32, p Params) (*Result, error)

// EngineOptions tunes NewEngine. The zero value is production-usable:
// 64 MiB cache in 16 shards, no TTL, GOMAXPROCS workers and a 4×workers
// wait queue.
type EngineOptions struct {
	// CacheBytes bounds the result cache in bytes (≤ 0 = 64 MiB). One
	// full result costs ≈ 8·n bytes.
	CacheBytes int64
	// CacheShards is the cache shard count (≤ 0 = 16).
	CacheShards int
	// CacheTTL expires cached results (≤ 0 = never).
	CacheTTL time.Duration
	// Workers bounds concurrent computations (≤ 0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds computations waiting for a worker (0 =
	// 4×workers); beyond it, interactive queries shed with ErrOverloaded.
	QueueDepth int
	// SojournTarget / SojournInterval tune adaptive admission: interactive
	// queries shed once the realized queue wait stays above the target for
	// a full interval — a standing queue — even while QueueDepth still has
	// room, and shed responses derive Retry-After from the observed drain
	// rate (0 = 25ms / 100ms defaults; a negative SojournTarget disables
	// sojourn control, falling back to fixed-depth shedding only).
	SojournTarget   time.Duration
	SojournInterval time.Duration
	// MemSoftLimit, when > 0, feeds live heap bytes into the engine's
	// pressure monitor as a fraction of this soft limit, so memory
	// pressure can drive brownout degradation alongside queue sojourn and
	// the pending-edit watermark.
	MemSoftLimit int64
	// Relabel renumbers each served graph snapshot in decreasing
	// total-degree order at load/swap time (graph.RelabelByDegree), which
	// improves push and walk cache locality on skewed graphs. The
	// relabeled graph is an internal artifact of the snapshot: callers
	// keep using original node ids everywhere — query sources, ranked
	// results, score vectors, edge edits, Graph(), and OnQuery events all
	// stay in the caller's id space, with the engine translating at the
	// serving boundary. Answers are equally valid but not
	// bit-identical to an unrelabeled engine's (float summation order and
	// walk RNG streams follow the internal labeling). A custom Compute
	// receives the relabeled graph and a translated source; its returned
	// scores are translated back before serving.
	Relabel bool
	// Metrics, when non-nil, receives the engine metric families (cache
	// hits/misses/evictions, dedup joins, sheds, queue depth, cache
	// size, cached-vs-computed latency). Note the registry type lives in
	// an internal package, so only code inside this module can set it.
	Metrics *obs.Registry
	// Compute overrides the solver (nil = Query, i.e. ResAcc). Top-k and
	// pair answers derive from the custom full result when set.
	Compute ComputeFunc
	// OnQuery, when non-nil, observes every ResAcc computation this engine
	// runs: one event per full query and one per top-k solver round
	// (failed rounds included), with the source in the caller's id space.
	// It runs synchronously on the computing goroutine and must be fast
	// and concurrency-safe. Cache hits, singleflight joins, pair queries
	// and a custom Compute fire nothing.
	OnQuery QueryHook
}

// Engine is the query-serving layer of the package: a result cache keyed
// by (query, params fingerprint, graph epoch), singleflight deduplication
// of concurrent identical queries, and admission control via a bounded
// worker pool. It is safe for concurrent use and is the recommended way to
// serve RWR traffic (cmd/rwrd routes every request through one).
//
// Serving workloads repeat sources heavily (hot users, trending items), so
// the cache converts the skew into sub-microsecond answers, while the
// admission pool keeps worst-case load from queueing unboundedly.
type Engine struct {
	params Params
	fp     uint64

	// snap is the RCU-published graph version: queries pin it (see pin)
	// for their whole computation, swaps replace it atomically, and a
	// superseded snapshot retires when its last reader releases it.
	snap atomic.Pointer[live.Snapshot]
	// epoch versions the cache keyspace: every snapshot swap (live,
	// UpdateGraph) and every Invalidate bumps it and purges the cache,
	// making every existing key unreachable at once.
	epoch atomic.Uint64
	// swapGen mints a unique, monotonic epoch for every published snapshot
	// (and counts Invalidate calls so the Swaps stat covers both). The
	// cache's put gate does NOT read it directly: each computation stamps
	// its entry with the epoch of the snapshot it pinned, and the gate
	// compares that against the epoch of the currently published snapshot
	// — see NewEngine. Gating on the counter itself would race: a swap
	// bumps the counter before storing the new pointer, and a query
	// loading the counter in that window would pair the new generation
	// with a pin of the still-old snapshot.
	swapGen atomic.Uint64
	inner   *serve.Engine[*engineEntry]
	monitor *pressure.Monitor
	compute ComputeFunc
	custom  bool
	onQuery QueryHook
	// liveOn enforces at most one attached live write path (StartLive).
	liveOn atomic.Bool

	// wsPool recycles per-query workspaces across the worker pool; it is
	// invalidated together with the result cache on every graph swap so
	// scratch sized for a retired snapshot is not pinned.
	wsPool  *ws.Pool
	relabel bool
}

// engineEntry is one cached answer; exactly one field group is set
// depending on the key kind. Degraded entries exist only in flight — they
// are handed to the current waiters and never put in the cache.
type engineEntry struct {
	res    *Result  // KindFull
	ranked []Ranked // KindTopK
	level  float64  // KindTopK: precision level (see TopK.Level)
	delta  float64  // KindTopK: certified threshold δ′ (see TopK.Delta)
	pair   float64  // KindPair
	gen    uint64   // epoch of the snapshot the computation pinned (cache gate)

	degraded bool    // KindTopK: ranking from a deadline-truncated round
	bound    float64 // KindTopK: additive score error when degraded
	phase    string  // KindTopK: interrupted phase when degraded
}

func (en *engineEntry) bytes() int64 {
	const overhead = 96 // entry + key + list bookkeeping, approximate
	s := int64(overhead)
	if en.res != nil {
		s += int64(len(en.res.Scores)) * 8
	}
	s += int64(len(en.ranked)) * 16
	return s
}

// snapMeta is the per-snapshot serving sidecar (live.Snapshot.Derived) of
// a relabeled snapshot: the id-relabel mappings. It is attached before the
// snapshot is published and immutable afterwards.
type snapMeta struct {
	// orig is the caller-id-space graph the snapshot was relabeled from.
	// Graph() and the live write path speak orig.
	orig *Graph
	// toOld/toNew translate between the snapshot's internal ids and the
	// caller's (graph.RelabelByDegree).
	toOld, toNew []int32
}

// metaOf returns the snapshot's serving sidecar, or nil for a plain
// snapshot (no relabeling — the zero-overhead path).
func metaOf(s *live.Snapshot) *snapMeta {
	if d := s.Derived(); d != nil {
		return d.(*snapMeta)
	}
	return nil
}

// newSnapshot wraps g — always in the caller's id space — as the next
// served snapshot, applying load-time degree relabeling and attaching the
// relabel sidecar when the engine's options call for it.
func (e *Engine) newSnapshot(g *Graph, gen uint64, onRetire func()) *live.Snapshot {
	if !e.relabel {
		return live.NewSnapshot(g, gen, onRetire)
	}
	rg, toOld, toNew := graph.RelabelByDegree(g)
	s := live.NewSnapshot(rg, gen, onRetire)
	s.SetDerived(&snapMeta{orig: g, toOld: toOld, toNew: toNew})
	return s
}

// ingressSource translates a caller-space source id into the snapshot's
// internal id space, validating the range (the solver would reject the
// translated id too late to produce a caller-meaningful message).
func ingressSource(m *snapMeta, g *Graph, source int32) (int32, error) {
	if m == nil {
		return source, nil
	}
	if source < 0 || int(source) >= g.N() {
		return 0, fmt.Errorf("resacc: source %d out of range [0,%d)", source, g.N())
	}
	return m.toNew[source], nil
}

// egressResult translates a result computed in the snapshot's internal id
// space back to the caller's: scores are permuted and Source restored.
// Identity when the snapshot is not relabeled.
func egressResult(m *snapMeta, source int32, res *Result) *Result {
	if m == nil {
		return res
	}
	return &Result{
		Source: source,
		Scores: graph.ApplyRelabeling(res.Scores, m.toOld),
		Stats:  res.Stats, Degraded: res.Degraded, Bound: res.Bound,
	}
}

// NewEngine returns a started engine serving queries on g with fixed
// parameters p. Close it to stop the worker pool.
func NewEngine(g *Graph, p Params, opts EngineOptions) *Engine {
	e := &Engine{
		params:  p,
		fp:      serve.Fingerprint(p),
		compute: opts.Compute,
		custom:  opts.Compute != nil,
		onQuery: opts.OnQuery,
		wsPool:  ws.NewPool(),
		relabel: opts.Relabel,
	}
	e.snap.Store(e.newSnapshot(g, 0, nil))
	e.wsPool.Refit(g.N())
	e.monitor = pressure.NewMonitor(pressure.MonitorConfig{})
	e.inner = serve.New[*engineEntry](serve.Config{
		CapacityBytes:   opts.CacheBytes,
		Shards:          opts.CacheShards,
		TTL:             opts.CacheTTL,
		Workers:         opts.Workers,
		QueueDepth:      opts.QueueDepth,
		SojournTarget:   opts.SojournTarget,
		SojournInterval: opts.SojournInterval,
		Pressure:        e.monitor,
		Metrics:         opts.Metrics,
	})
	// The monitor aggregates whatever load signals exist: queue sojourn
	// always (unless sojourn control is disabled), heap bytes when a soft
	// limit is set, and the pending-edit watermark once StartLive attaches
	// a write path.
	if c := e.inner.Codel(); c != nil {
		e.monitor.SetSignal("queue_sojourn", c.LoadFrac)
	}
	if opts.MemSoftLimit > 0 {
		e.monitor.SetSignal("heap_bytes", pressure.HeapFrac(opts.MemSoftLimit))
	}
	if reg := opts.Metrics; reg != nil {
		reg.GaugeFunc("rwr_pressure_level",
			"Aggregated load level (0=nominal, 1=elevated brownout, 2=critical shedding).",
			func() float64 { return float64(e.monitor.Level()) })
	}
	// The put gate runs under the cache shard lock: together with the
	// shard-locked purge it makes "compute on old snapshot, cache after the
	// swap" impossible (see Cache.SetGate). The entry carries the epoch of
	// the snapshot its computation pinned, and the gate compares it against
	// the epoch of the snapshot published right now — an identity tied to
	// the pointer itself, so there is no window (unlike gating on a
	// separate counter) where a new generation can pair with a pin of the
	// pre-swap snapshot. The key-epoch check covers Invalidate, which
	// retires the keyspace without publishing a snapshot: a computation
	// straddling it cannot park its entry under the retired keyspace.
	e.inner.Cache().SetGate(func(k serve.Key, en *engineEntry) bool {
		return en.gen == e.snap.Load().Epoch() && k.Epoch == e.epoch.Load()
	})
	return e
}

// pin takes a reference on the current snapshot for the duration of one
// computation. The load-acquire-recheck loop is the RCU discipline: if a
// swap lands between the load and the acquire, the recheck fails, the
// stray reference is dropped (the retired flag keeps the retire hook from
// double-firing) and the loop retries on the new snapshot.
func (e *Engine) pin() *live.Snapshot {
	for {
		s := e.snap.Load()
		s.Acquire()
		if e.snap.Load() == s {
			return s
		}
		s.Release()
	}
}

// snapSolver is the ResAcc solver default computations run with on snap:
// the engine's workspace pool plus the per-snapshot score remap back to
// caller ids.
func (e *Engine) snapSolver(snap *live.Snapshot) core.Solver {
	s := core.Solver{Pool: e.wsPool}
	if m := metaOf(snap); m != nil {
		s.ScoreRemap = m.toOld
	}
	return s
}

// Pressure returns the engine's load-level monitor. Servers use it to pick
// the brownout tier per request (tighten deadlines at Elevated, fail
// readiness at Critical); the engine itself already sheds non-waiting
// cache misses at Critical.
func (e *Engine) Pressure() *pressure.Monitor { return e.monitor }

// RetryAfter derives the backoff hint for a shed query from the admission
// queue's observed drain rate and current depth (whole seconds, clamped to
// [1s, 30s]) — what an HTTP server should put in Retry-After next to a 429.
func (e *Engine) RetryAfter() time.Duration { return e.inner.RetryAfter() }

// Close stops the engine's worker pool after draining admitted work.
// Queries after Close fail.
func (e *Engine) Close() { e.inner.Close() }

// Graph returns the current graph in the caller's id space. With
// EngineOptions.Relabel the engine internally serves a degree-relabeled
// copy; that copy never escapes — this accessor, query results and
// OnQuery events all speak original ids.
func (e *Engine) Graph() *Graph {
	s := e.snap.Load()
	if m := metaOf(s); m != nil {
		return m.orig
	}
	return s.Graph()
}

// Params returns the engine's fixed query parameters.
func (e *Engine) Params() Params { return e.params }

// Epoch returns the current graph epoch; it increments on every snapshot
// swap and Invalidate, and is part of every cache key.
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// key builds the cache key for the current epoch.
func (e *Engine) key(kind serve.Kind, source, aux int32) serve.Key {
	return serve.Key{
		Source: source, Aux: aux, Kind: kind,
		Fingerprint: e.fp, Epoch: e.epoch.Load(),
	}
}

// Query answers a full single-source query through the cache, dedup and
// admission layers. ctx bounds this caller's wait (queueing and joining)
// and its deadline propagates into the shared computation as the flight
// deadline: rather than timing out with nothing, a deadline that fires
// mid-computation yields a Result with Degraded set and an additive error
// Bound (never cached — the next unhurried caller recomputes). A full
// queue sheds the request with ErrOverloaded; a panic in the computation
// is contained and returned as an error.
func (e *Engine) Query(ctx context.Context, source int32) (*Result, error) {
	return e.queryFull(ctx, source, false)
}

func (e *Engine) queryFull(ctx context.Context, source int32, wait bool) (*Result, error) {
	en, _, err := e.inner.Do(ctx, e.key(serve.KindFull, source, 0), wait,
		func(fctx context.Context) (*engineEntry, int64, error) {
			snap := e.pin()
			defer snap.Release()
			res, err := e.computeFull(fctx, snap, source)
			if err != nil {
				return nil, 0, err
			}
			en := &engineEntry{res: res, gen: snap.Epoch()}
			if res.Degraded {
				return en, -1, nil
			}
			return en, en.bytes(), nil
		})
	if err != nil {
		return nil, err
	}
	return en.res, nil
}

// computeFull runs one full single-source computation against a pinned
// snapshot, translating ids at the serving boundary: the caller-space
// source goes in through the snapshot's relabel mapping, the answer comes
// back out in caller ids (the default solver remaps during extraction; a
// custom Compute's scores are permuted afterwards).
func (e *Engine) computeFull(fctx context.Context, snap *live.Snapshot, source int32) (*Result, error) {
	g := snap.Graph()
	m := metaOf(snap)
	src, err := ingressSource(m, g, source)
	if err != nil {
		return nil, err
	}
	if !e.custom {
		return querySolverOn(fctx, g, src, source, e.params, e.snapSolver(snap), e.onQuery)
	}
	res, err := e.compute(fctx, g, src, e.params)
	if err != nil {
		return nil, err
	}
	return egressResult(m, source, res), nil
}

// QueryTopK answers a top-k query through the engine. With the default
// solver it runs the certified top-k loop of the package-level QueryTopK:
// a clear ranking returns after one eighth-budget round, and the answer
// reports the round's level and the threshold Delta it is certified at.
// A custom Compute is ranked with Result.TopK and reports level and
// delta 0. A deadline firing mid-computation yields the ranking of the
// partial scores with the TopK degradation fields set (never cached).
func (e *Engine) QueryTopK(ctx context.Context, source int32, k int) (TopK, error) {
	if k <= 0 {
		return TopK{}, fmt.Errorf("resacc: engine QueryTopK needs k > 0, got %d", k)
	}
	if n := e.Graph().N(); k > n {
		k = n
	}
	en, _, err := e.inner.Do(ctx, e.key(serve.KindTopK, source, int32(k)), false,
		func(fctx context.Context) (*engineEntry, int64, error) {
			snap := e.pin()
			defer snap.Release()
			g := snap.Graph()
			m := metaOf(snap)
			src, err := ingressSource(m, g, source)
			if err != nil {
				return nil, 0, err
			}
			var en *engineEntry
			if e.custom {
				res, err := e.compute(fctx, g, src, e.params)
				if err != nil {
					return nil, 0, err
				}
				res = egressResult(m, source, res)
				en = &engineEntry{ranked: res.TopK(k), degraded: res.Degraded, bound: res.Bound}
				if res.Degraded {
					en.phase = res.Stats.DegradedPhase.String()
				}
			} else {
				// The snapshot solver's ScoreRemap translates each round's
				// scores before ranking, so the ranked node ids are already
				// caller-space.
				tk, err := queryTopKSolverOn(fctx, g, src, source, k, e.params, e.snapSolver(snap), e.onQuery)
				if err != nil {
					return nil, 0, err
				}
				en = &engineEntry{ranked: tk.Ranked, level: tk.Level, delta: tk.Delta,
					degraded: tk.Degraded, bound: tk.Bound, phase: tk.Phase}
			}
			en.gen = snap.Epoch()
			if en.degraded {
				return en, -1, nil
			}
			return en, en.bytes(), nil
		})
	if err != nil {
		return TopK{}, err
	}
	return TopK{Ranked: en.ranked, Level: en.level, Delta: en.delta,
		Degraded: en.degraded, Bound: en.bound, Phase: en.phase}, nil
}

// QueryPair answers a single π(s,t) estimate through the engine (the
// default solver uses the bidirectional pair estimator, far cheaper than a
// full single-source query).
func (e *Engine) QueryPair(ctx context.Context, source, target int32) (float64, error) {
	en, _, err := e.inner.Do(ctx, e.key(serve.KindPair, source, target), false,
		func(fctx context.Context) (*engineEntry, int64, error) {
			snap := e.pin()
			defer snap.Release()
			gen := snap.Epoch()
			g := snap.Graph()
			if target < 0 || int(target) >= g.N() {
				return nil, 0, fmt.Errorf("resacc: target %d out of range [0,%d)", target, g.N())
			}
			m := metaOf(snap)
			src, err := ingressSource(m, g, source)
			if err != nil {
				return nil, 0, err
			}
			var pair float64
			if e.custom {
				res, err := e.compute(fctx, g, src, e.params)
				if err != nil {
					return nil, 0, err
				}
				res = egressResult(m, source, res)
				if res.Degraded {
					// A pair estimate has no way to carry its error bound;
					// serve it to the current waiters but keep it out of
					// the cache.
					return &engineEntry{pair: res.Scores[target], gen: gen}, -1, nil
				}
				pair = res.Scores[target]
			} else {
				// π(s,t) is invariant under relabeling, so translating both
				// endpoints is the whole boundary — the scalar needs no
				// translation back.
				tgt := target
				if m != nil {
					tgt = m.toNew[target]
				}
				pair, err = QueryPair(g, src, tgt, e.params)
				if err != nil {
					return nil, 0, err
				}
			}
			return &engineEntry{pair: pair, gen: gen}, 96, nil
		})
	if err != nil {
		return 0, err
	}
	return en.pair, nil
}

// QueryBatch fans sources across the worker pool and returns per-source
// results and errors (results[i] is nil iff errs[i] != nil). Unlike
// interactive queries, batch items wait for queue room instead of
// shedding — the batch itself was already admitted — with the fan-out
// paced to the pool width so one batch cannot monopolise the queue.
// Repeated sources inside one batch are deduplicated by the engine's
// singleflight layer, and every item shares the result cache.
func (e *Engine) QueryBatch(ctx context.Context, sources []int32) ([]*Result, []error) {
	results := make([]*Result, len(sources))
	errs := make([]error, len(sources))
	window := e.inner.Pool().Workers()
	if window > len(sources) {
		window = len(sources)
	}
	if window < 1 {
		window = 1
	}
	sem := make(chan struct{}, window)
	var wg sync.WaitGroup
	for i := range sources {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			errs[i] = ctx.Err()
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			results[i], errs[i] = e.queryFull(ctx, sources[i], true)
		}(i)
	}
	wg.Wait()
	return results, errs
}

// applyLiveSwap is the engine's implementation of live.SwapFunc: publish g
// as the new pinned snapshot, retire the old one RCU-style, bump the epoch
// and purge the result cache. onRetire (may be nil) is armed on the new
// snapshot. Returns the number of cache entries invalidated.
func (e *Engine) applyLiveSwap(g *Graph, onRetire func()) int {
	// Bumping the counter before storing the pointer is fine: the put gate
	// reads generations off the snapshots themselves, never this counter,
	// so the window between the two cannot pair a new generation with a
	// pin of the old snapshot.
	gen := e.swapGen.Add(1)
	// newSnapshot re-applies degree relabeling to the incoming graph (g is
	// always caller-id-space), so a relabeling engine pays one O(m)
	// reordering per swap — in exchange every query until the next swap
	// runs on the cache-friendly layout.
	next := e.newSnapshot(g, gen, onRetire)
	old := e.snap.Swap(next)
	// Drop the superseded snapshot's current-pointer reference; it retires
	// once the last in-flight query releases it.
	old.Release()
	// Scratch sized for the old snapshot survives edge-only swaps; only a
	// node-count change retires the pooled workspaces.
	e.wsPool.Refit(g.N())
	e.epoch.Add(1)
	return e.inner.Purge()
}

// UpdateGraph swaps the served graph for g and bumps the epoch, so every
// cached result is invalidated (and purged) atomically with the swap.
// In-flight computations finish against the snapshot they pinned. For
// streaming edits use StartLive, which batches them into swaps under a
// staleness bound.
func (e *Engine) UpdateGraph(g *Graph) {
	e.applyLiveSwap(g, nil)
	e.wsPool.Invalidate()
}

// Invalidate bumps the epoch and purges the cache without changing the
// graph — for callers whose freshness policy is time- or event-based
// (e.g. randomized re-scoring) rather than graph edits.
func (e *Engine) Invalidate() {
	// The swapGen bump keeps the Swaps stat counting invalidations; the
	// epoch bump both retires every existing key and (via the put gate's
	// key-epoch check) keeps straddling computations from re-parking
	// results under the retired keyspace.
	e.swapGen.Add(1)
	e.epoch.Add(1)
	e.inner.Purge()
	e.wsPool.Invalidate()
}

// EngineStats is a point-in-time snapshot of the serving counters, for
// stats endpoints and tests (the same numbers are exported continuously
// when EngineOptions.Metrics is set).
type EngineStats struct {
	Hits, Misses, Joins, Shed float64
	// Panics counts computations that panicked and were contained (the
	// query failed with an error, the process kept serving).
	Panics       float64
	CacheEntries int
	CacheBytes   int64
	QueueDepth   int
	Epoch        uint64
	// Swaps counts snapshot/cache generations: every graph swap and every
	// Invalidate bumps it.
	Swaps uint64
	// SnapshotRefs is the reference count of the current snapshot (1 plus
	// the queries pinning it right now).
	SnapshotRefs int64
	// PressureLevel is the aggregated load level ("nominal", "elevated",
	// "critical"); PressureLoads holds each signal's last evaluated load
	// fraction (1.0 = at its limit).
	PressureLevel string
	PressureLoads map[string]float64
	// Sojourn is the smoothed queue wait of admitted computations and
	// DrainRate the observed completion rate (tasks/s); both are zero when
	// sojourn control is disabled.
	Sojourn   time.Duration
	DrainRate float64
}

// Stats returns current serving counters.
func (e *Engine) Stats() EngineStats {
	lvl, loads := e.monitor.Snapshot()
	var sojourn time.Duration
	var drain float64
	if c := e.inner.Codel(); c != nil {
		sojourn, drain = c.Sojourn(), c.DrainRate()
	}
	return EngineStats{
		PressureLevel: lvl.String(),
		PressureLoads: loads,
		Sojourn:       sojourn,
		DrainRate:     drain,
		Hits:          e.inner.Hits(),
		Misses:        e.inner.Misses(),
		Joins:         e.inner.Joins(),
		Shed:          e.inner.Shed(),
		Panics:        e.inner.Panics(),
		CacheEntries:  e.inner.Cache().Len(),
		CacheBytes:    e.inner.Cache().Bytes(),
		QueueDepth:    e.inner.Pool().QueueDepth(),
		Epoch:         e.epoch.Load(),
		Swaps:         e.swapGen.Load(),
		SnapshotRefs:  e.snap.Load().Refs(),
	}
}
