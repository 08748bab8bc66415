package serve

import (
	"context"
	"errors"
	"runtime"
	"time"

	"resacc/internal/crash"
	"resacc/internal/faultinject"
	"resacc/internal/obs"
	"resacc/internal/pressure"
)

// Config tunes one Engine. The zero value is usable: 64 MiB cache in 16
// shards, no TTL, GOMAXPROCS workers, a 4×workers wait queue and no
// metrics export.
type Config struct {
	// CapacityBytes bounds the result cache (≤ 0 = 64 MiB).
	CapacityBytes int64
	// Shards is the cache shard count, rounded up to a power of two
	// (≤ 0 = 16).
	Shards int
	// TTL expires cache entries (≤ 0 = never). Even an epoch-correct
	// entry goes stale for randomized solvers only in the sense of
	// freshness policy, so TTL is a knob, not a correctness requirement.
	TTL time.Duration
	// Workers is the computation concurrency (≤ 0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds how many admitted computations may wait for a
	// worker (0 = 4×workers; values below workers are raised to workers
	// so a task per worker can always park). Beyond it, non-waiting
	// requests shed.
	QueueDepth int
	// SojournTarget / SojournInterval tune the CoDel-style admission
	// controller: non-waiting work sheds once the realized queue wait
	// stays above target for a full interval, even while the depth-bounded
	// queue still has room (0 = 25ms / 100ms defaults; a negative
	// SojournTarget disables sojourn control and falls back to pure
	// fixed-depth shedding).
	SojournTarget   time.Duration
	SojournInterval time.Duration
	// Pressure, when non-nil, gates admission on the aggregated load
	// level: at Critical, non-waiting cache misses shed at the door with
	// ErrOverloaded (cache hits keep serving, so goodput never collapses
	// to zero).
	Pressure *pressure.Monitor
	// Metrics, when non-nil, receives every engine metric family
	// (hits, misses, evictions, dedup joins, sheds, queue depth,
	// cache size, cached-vs-computed latency histograms, sojourn and
	// drain-rate pressure gauges).
	Metrics *obs.Registry
}

// Outcome says how a Do call was answered.
type Outcome uint8

const (
	// OutcomeHit was served from the cache.
	OutcomeHit Outcome = iota
	// OutcomeComputed ran the computation (this caller was the leader).
	OutcomeComputed
	// OutcomeShared joined another caller's in-flight computation.
	OutcomeShared
)

func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeShared:
		return "shared"
	default:
		return "computed"
	}
}

// Engine composes the cache, the singleflight group and the admission
// pool. V is whatever the caller caches (the root resacc facade uses its
// result type); compute callbacks report the byte size of each value so
// the cache budget means something.
type Engine[V any] struct {
	cache   *Cache[V]
	flights flightGroup[V]
	pool    *Pool
	codel   *pressure.Codel   // nil when sojourn control is disabled
	monitor *pressure.Monitor // nil when no brownout gating is wired

	hits, misses, joins, shed *obs.Counter
	shedCritical              *obs.Counter
	evictCap, evictTTL        *obs.Counter
	evictInv                  *obs.Counter
	panics                    *obs.Counter
	histHit, histCompute      *obs.Histogram
}

// PerQueryBudget returns the intra-query parallelism budget left per
// serving worker: GOMAXPROCS divided by the concurrent-computation count,
// floored at 1. The facade clamps both walk and push parallelism with it
// so serveWorkers concurrent queries never oversubscribe the machine.
func PerQueryBudget(serveWorkers int) int {
	if serveWorkers <= 0 {
		serveWorkers = runtime.GOMAXPROCS(0)
	}
	b := runtime.GOMAXPROCS(0) / serveWorkers
	if b < 1 {
		b = 1
	}
	return b
}

// New returns a started engine; Close it to stop the worker pool.
func New[V any](cfg Config) *Engine[V] {
	if cfg.CapacityBytes <= 0 {
		cfg.CapacityBytes = 64 << 20
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	var codel *pressure.Codel
	if cfg.SojournTarget >= 0 {
		codel = pressure.NewCodel(cfg.SojournTarget, cfg.SojournInterval)
	}
	e := &Engine[V]{
		cache:   NewCache[V](cfg.CapacityBytes, cfg.Shards, cfg.TTL),
		pool:    NewPoolSojourn(cfg.Workers, cfg.QueueDepth, codel),
		codel:   codel,
		monitor: cfg.Pressure,
	}
	if reg := cfg.Metrics; reg != nil {
		e.hits = reg.Counter("rwr_engine_cache_hits_total",
			"Engine queries answered from the result cache.")
		e.misses = reg.Counter("rwr_engine_cache_misses_total",
			"Engine queries that missed the result cache.")
		e.joins = reg.Counter("rwr_engine_dedup_joins_total",
			"Engine queries that joined an in-flight identical computation.")
		e.shed = reg.Counter("rwr_engine_shed_total",
			"Engine queries shed because the wait queue was full, the sojourn controller detected a standing queue, or pressure was Critical.")
		e.shedCritical = reg.Counter("rwr_pressure_critical_sheds_total",
			"Engine queries shed at the door because pressure was Critical.")
		if codel != nil {
			reg.GaugeFunc("rwr_pressure_sojourn_seconds",
				"Smoothed queue wait of admitted computations.",
				func() float64 { return codel.Sojourn().Seconds() })
			reg.GaugeFunc("rwr_pressure_drain_rate",
				"Observed computation completion rate (tasks/s).",
				codel.DrainRate)
			reg.CounterFunc("rwr_pressure_sojourn_sheds_total",
				"Admissions rejected by the sojourn controller.",
				codel.Sheds)
		}
		const evHelp = "Result-cache evictions, by reason."
		e.evictCap = reg.Counter("rwr_engine_cache_evictions_total", evHelp, "reason", "capacity")
		e.evictTTL = reg.Counter("rwr_engine_cache_evictions_total", evHelp, "reason", "expired")
		e.evictInv = reg.Counter("rwr_engine_cache_evictions_total", evHelp, "reason", "invalidated")
		e.panics = reg.Counter("resacc_panics_total",
			"Query computations that panicked and were contained (the query failed, the process survived).")
		reg.GaugeFunc("rwr_engine_queue_depth",
			"Admitted computations waiting for a worker.",
			func() float64 { return float64(e.pool.QueueDepth()) })
		reg.GaugeFunc("rwr_engine_cache_bytes",
			"Bytes held by the result cache.",
			func() float64 { return float64(e.cache.Bytes()) })
		reg.GaugeFunc("rwr_engine_cache_entries",
			"Entries held by the result cache.",
			func() float64 { return float64(e.cache.Len()) })
		const latHelp = "Engine answer latency, cached vs computed."
		e.histHit = reg.Histogram("rwr_engine_latency_seconds", latHelp,
			obs.DefBuckets, "path", "cache")
		e.histCompute = reg.Histogram("rwr_engine_latency_seconds", latHelp,
			obs.DefBuckets, "path", "compute")
	} else {
		e.hits, e.misses, e.joins, e.shed = &obs.Counter{}, &obs.Counter{}, &obs.Counter{}, &obs.Counter{}
		e.shedCritical = &obs.Counter{}
		e.evictCap, e.evictTTL, e.evictInv = &obs.Counter{}, &obs.Counter{}, &obs.Counter{}
		e.panics = &obs.Counter{}
		e.histHit, e.histCompute = obs.NewHistogram(nil), obs.NewHistogram(nil)
	}
	e.cache.hits = e.hits.Inc
	e.cache.miss = e.misses.Inc
	e.cache.evictCap = e.evictCap.Inc
	e.cache.evictTTL = e.evictTTL.Inc
	e.cache.evictInv = e.evictInv.Inc
	return e
}

// Do answers key: cache hit, join of an in-flight computation, or a fresh
// computation admitted through the pool. compute runs on a pool worker,
// detached from any single request (N callers may be waiting on it); ctx
// bounds only this caller's wait. compute receives the flight context —
// the leader's deadline minus a small headroom, cancelled when every
// waiter has abandoned — so a deadline-aware computation can stop early
// and publish an anytime answer before the callers give up waiting.
//
// compute's bytes return doubles as a cache gate: a negative value means
// "do not cache" — degraded (deadline-truncated) answers use it so a
// caller with a generous deadline never gets a rushed answer from cache.
//
// A panicking compute is contained here: the panic becomes a
// *crash.PanicError returned to every waiter of that flight, the
// resacc_panics_total counter is bumped, and the engine keeps serving.
// With wait=false a full queue sheds the request (ErrOverloaded); with
// wait=true admission blocks until there is queue room or the flight is
// abandoned — the batch path uses that to pace fan-out instead of
// shedding its own items.
func (e *Engine[V]) Do(ctx context.Context, key Key, wait bool,
	compute func(ctx context.Context) (V, int64, error)) (V, Outcome, error) {
	start := time.Now()
	if v, ok := e.cache.Get(key); ok {
		e.histHit.Observe(time.Since(start).Seconds())
		return v, OutcomeHit, nil
	}
	if err := ctx.Err(); err != nil {
		var zero V
		return zero, OutcomeComputed, err
	}
	// Critical pressure sheds non-waiting misses at the door — before the
	// singleflight, so a shed request does not pin a flight slot. Cache
	// hits were already served above: goodput never collapses to zero.
	if !wait && e.monitor != nil && e.monitor.Level() == pressure.Critical {
		e.shed.Inc()
		e.shedCritical.Inc()
		var zero V
		return zero, OutcomeComputed, ErrOverloaded
	}
	v, joined, err := e.flights.do(ctx, key, func(fctx context.Context, finish func(V, error)) {
		run := func() {
			var (
				v     V
				bytes int64
				err   error
			)
			func() {
				defer crash.Recover("serve: engine compute", &err)
				faultinject.Hit("serve.compute")
				v, bytes, err = compute(fctx)
			}()
			if crash.IsPanic(err) {
				e.panics.Inc()
			}
			if err == nil && bytes >= 0 {
				e.cache.Put(key, v, bytes)
			}
			finish(v, err)
		}
		// Admission waits on the flight context, not the leader's: a
		// leader whose client vanishes mid-queue hands the flight to the
		// surviving waiters instead of erroring them out.
		if wait {
			if err := e.pool.Submit(fctx, run); err != nil {
				var zero V
				finish(zero, err)
			}
			return
		}
		if err := e.pool.TrySubmit(run); err != nil {
			if errors.Is(err, ErrOverloaded) {
				e.shed.Inc()
			}
			var zero V
			finish(zero, err)
		}
	})
	outcome := OutcomeComputed
	if joined {
		outcome = OutcomeShared
		e.joins.Inc()
	}
	if err == nil {
		e.histCompute.Observe(time.Since(start).Seconds())
	}
	return v, outcome, err
}

// Purge empties the cache (counted as invalidation evictions) and returns
// the number of entries dropped. The root facade calls it on graph-epoch
// bumps so dead-epoch entries free their bytes immediately instead of
// aging out.
func (e *Engine[V]) Purge() int { return e.cache.Purge() }

// Close drains and stops the worker pool. In-flight Do calls complete;
// calling Do afterwards panics.
func (e *Engine[V]) Close() { e.pool.Close() }

// Cache exposes the underlying cache for size inspection.
func (e *Engine[V]) Cache() *Cache[V] { return e.cache }

// Pool exposes the admission pool for depth/worker inspection.
func (e *Engine[V]) Pool() *Pool { return e.pool }

// Codel exposes the sojourn controller (nil when disabled) so the owner
// can feed its load fraction into a pressure.Monitor.
func (e *Engine[V]) Codel() *pressure.Codel { return e.codel }

// RetryAfter derives a backoff hint for a shed request from the observed
// drain rate and the backlog ahead of a new arrival, clamped to
// [1s, pressure.MaxRetryAfter]. With sojourn control disabled it returns
// the 1s floor.
func (e *Engine[V]) RetryAfter() time.Duration {
	if e.codel == nil {
		return time.Second
	}
	return e.codel.RetryAfter(e.pool.QueueDepth())
}

// Hits returns the cache-hit count (tests and stats endpoints).
func (e *Engine[V]) Hits() float64 { return e.hits.Value() }

// Misses returns the cache-miss count.
func (e *Engine[V]) Misses() float64 { return e.misses.Value() }

// Joins returns how many calls shared an in-flight computation.
func (e *Engine[V]) Joins() float64 { return e.joins.Value() }

// Shed returns how many calls were load-shed.
func (e *Engine[V]) Shed() float64 { return e.shed.Value() }

// Panics returns how many computations panicked and were contained.
func (e *Engine[V]) Panics() float64 { return e.panics.Value() }
