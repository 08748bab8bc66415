package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"resacc"
	"resacc/internal/obs"
	"resacc/internal/pressure"
)

// serverOpts configures the daemon: observability plus the serving-engine
// knobs (cache, admission control, batching).
type serverOpts struct {
	// Log receives structured request and query logs (nil = slog.Default).
	Log *slog.Logger
	// TraceBuffer is how many recent query traces /v1/traces retains
	// (≤ 0 = 64).
	TraceBuffer int
	// Pprof mounts net/http/pprof under /debug/pprof/ when set.
	Pprof bool
	// Engine tunes the query-serving engine every route goes through
	// (Metrics and OnQuery are overwritten with the server's registry and
	// observer).
	Engine resacc.EngineOptions
	// QueryTimeout bounds each request's wait for an answer (≤ 0 = 30s).
	QueryTimeout time.Duration
	// MaxBatch caps the source count of one /v1/batch request (≤ 0 = 1024).
	MaxBatch int
	// Live enables the streaming write path: POST /v1/edges applies edge
	// edits that become visible within Live.MaxStaleness; each snapshot
	// swap purges the result cache. Without it the endpoint answers 403.
	Live bool
	// LiveOptions tunes the write path when Live is set (Metrics is
	// overwritten with the server's registry).
	LiveOptions resacc.LiveOptions
	// MaxEdits caps the edit count (adds plus removes) of one /v1/edges
	// request (≤ 0 = 4096).
	MaxEdits int
	// Brownout is the tightened per-query deadline used instead of
	// QueryTimeout while the engine's pressure level is Elevated or worse:
	// the anytime machinery then serves cheaper degraded (206) answers
	// with sound bounds instead of queueing toward 429s (0 disables
	// brownout degradation; values ≥ QueryTimeout are ignored).
	Brownout time.Duration
	// EditQuota, when > 0, enforces a per-client token-bucket quota on
	// POST /v1/edges of this many edits/s (burst EditBurst, ≤ 0 =
	// 4×EditQuota). Clients are keyed by X-Client-ID, falling back to the
	// remote address. Over-quota batches answer 429 + Retry-After.
	EditQuota float64
	EditBurst float64
}

// server routes every request through a resacc.Engine (result cache,
// singleflight dedup, admission control); handlers are safe for
// concurrent use.
type server struct {
	mux     *http.ServeMux
	handler http.Handler
	g       *resacc.Graph // boot graph; live edits swap the served one
	params  resacc.Params
	engine  *resacc.Engine
	live    *resacc.Live // nil unless opts.Live
	queries atomic.Int64
	started time.Time

	queryTimeout time.Duration
	brownout     time.Duration
	maxBatch     int
	maxEdits     int
	quota        *pressure.Quota // nil = no per-client edit quota
	draining     atomic.Bool     // SIGTERM received: /readyz fails, traffic should move

	log      *slog.Logger
	reg      *obs.Registry
	traces   *obs.TraceRing
	reqSeq   atomic.Int64
	querySeq atomic.Int64
	inflight *obs.Gauge

	// Hot-path series are resolved once at registration: the query
	// observer and error paths fire per event, and a registry lookup there
	// builds a variadic label slice per call — a measurable allocation on a
	// path the engine otherwise keeps allocation-free.
	walks, pushes *obs.Counter
	phaseHist     map[string]*obs.Histogram
	degradedBound *obs.Histogram
	queriesByStat map[string]*obs.Counter
	reqCancels    map[string]*obs.Counter
	queryCancels  map[string]*obs.Counter
	walksHist     *obs.Histogram
}

func newServer(g *resacc.Graph, p resacc.Params, opts serverOpts) *server {
	if opts.Log == nil {
		opts.Log = slog.Default()
	}
	if opts.TraceBuffer <= 0 {
		opts.TraceBuffer = 64
	}
	if opts.QueryTimeout <= 0 {
		opts.QueryTimeout = 30 * time.Second
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 1024
	}
	if opts.MaxEdits <= 0 {
		opts.MaxEdits = 4096
	}
	if opts.Brownout >= opts.QueryTimeout {
		opts.Brownout = 0 // a "tightened" deadline that is not tighter is a no-op
	}
	s := &server{
		mux:          http.NewServeMux(),
		g:            g,
		params:       p,
		started:      time.Now(),
		queryTimeout: opts.QueryTimeout,
		brownout:     opts.Brownout,
		maxBatch:     opts.MaxBatch,
		maxEdits:     opts.MaxEdits,
		log:          opts.Log,
		reg:          obs.NewRegistry(),
		traces:       obs.NewTraceRing(opts.TraceBuffer),
	}
	if opts.Live && opts.EditQuota > 0 {
		s.quota = pressure.NewQuota(opts.EditQuota, opts.EditBurst)
	}
	s.registerMetrics()
	opts.Engine.Metrics = s.reg
	opts.Engine.OnQuery = s.observeQuery
	s.engine = resacc.NewEngine(g, p, opts.Engine)
	if opts.Live {
		opts.LiveOptions.Metrics = s.reg
		lv, err := s.engine.StartLive(opts.LiveOptions)
		if err != nil {
			// Only possible with a write path already attached; serve
			// read-only rather than die.
			opts.Log.Error("live write path unavailable", "err", err)
		} else {
			s.live = lv
		}
	}

	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/pair", s.handlePair)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/edges", s.handleEdges)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if opts.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.handler = s.instrument(s.mux)
	return s
}

// registerMetrics pre-creates the metric families so /metrics shows them
// (at zero) before the first query, and holds the hot-path series.
func (s *server) registerMetrics() {
	obs.RegisterRuntimeMetrics(s.reg)
	s.inflight = s.reg.Gauge("rwr_http_inflight_requests",
		"HTTP requests currently being served.")
	// Evaluated at scrape time through the engine so live edits show up;
	// the engine field is set right after these registrations.
	s.reg.GaugeFunc("rwr_graph_nodes", "Nodes in the served graph.",
		func() float64 { return float64(s.servedGraph().N()) })
	s.reg.GaugeFunc("rwr_graph_edges", "Edges in the served graph.",
		func() float64 { return float64(s.servedGraph().M()) })
	s.reg.GaugeFunc("rwr_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })
	s.walks = s.reg.Counter("rwr_walks_total",
		"Random walks simulated by this server's solver rounds.")
	s.pushes = s.reg.Counter("rwr_pushes_total",
		"Forward-push operations performed by this server's solver rounds.")
	s.phaseHist = make(map[string]*obs.Histogram)
	for _, phase := range []string{"total", "hopfwd", "omfwd", "remedy"} {
		s.phaseHist[phase] = s.reg.Histogram("rwr_query_duration_seconds",
			"SSRWR query latency by phase (total = end-to-end wall time).",
			obs.DefBuckets, "phase", phase)
	}
	s.queriesByStat = make(map[string]*obs.Counter)
	for _, status := range []string{"ok", "error"} {
		s.queriesByStat[status] = s.reg.Counter("rwr_queries_total",
			"SSRWR queries answered, by outcome.", "status", status)
	}
	s.reqCancels = make(map[string]*obs.Counter)
	for _, kind := range []string{"deadline", "client_cancel"} {
		s.reqCancels[kind] = s.reg.Counter("rwr_request_cancellations_total",
			"Requests that ended without a full answer, by cause.", "kind", kind)
	}
	s.queryCancels = make(map[string]*obs.Counter)
	for _, phase := range []string{"hhopfwd", "omfwd", "remedy"} {
		s.queryCancels[phase] = s.reg.Counter("rwr_query_cancellations_total",
			"Queries whose deadline interrupted a solver phase (the phase label).",
			"phase", phase)
	}
	s.walksHist = s.reg.Histogram("rwr_query_walks",
		"Remedy-phase random walks per query.", obs.ExpBuckets(1, 4, 16))
	s.degradedBound = s.reg.Histogram("rwr_degraded_bound",
		"Additive error bound of degraded (deadline-truncated) answers.",
		obs.ExpBuckets(1e-6, 10, 8))
	if s.quota != nil {
		s.reg.CounterFunc("rwr_edit_quota_rejected_total",
			"Edit batches refused because the client's token bucket was empty.",
			s.quota.Rejects)
		s.reg.GaugeFunc("rwr_edit_quota_clients",
			"Clients with a tracked edit-quota bucket.",
			func() float64 { return float64(s.quota.Clients()) })
	}
}

// servedGraph returns the graph snapshot queries currently run against
// (the boot graph until live edits swap it).
func (s *server) servedGraph() *resacc.Graph {
	if s.engine != nil {
		return s.engine.Graph()
	}
	return s.g
}

// observeQuery is the engine's OnQuery observer: it turns each of this
// server's solver rounds into phase histograms, counters and a
// ring-buffered trace.
func (s *server) observeQuery(ev resacc.QueryEvent) {
	status := "ok"
	if ev.Err != nil {
		status = "error"
	}
	s.queriesByStat[status].Inc()
	if ev.Err == nil {
		s.phaseHist["total"].Observe(ev.Duration.Seconds())
		s.phaseHist["hopfwd"].Observe(ev.Stats.HopFWD.Seconds())
		s.phaseHist["omfwd"].Observe(ev.Stats.OMFWD.Seconds())
		s.phaseHist["remedy"].Observe(ev.Stats.Remedy.Seconds())
		s.walksHist.Observe(float64(ev.Stats.Walks))
		s.walks.Add(float64(ev.Stats.Walks))
		s.pushes.Add(float64(ev.Stats.HopPushes + ev.Stats.OMFWDPushes))
		if ev.Stats.Degraded {
			if c := s.queryCancels[ev.Stats.DegradedPhase.String()]; c != nil {
				c.Inc()
			}
			s.degradedBound.Observe(ev.Stats.ResidualBound)
		}
	}
	id := fmt.Sprintf("q-%06d", s.querySeq.Add(1))
	tr := obs.QueryTrace(id, ev.Source, ev.Start, ev.Duration, ev.Stats, ev.Err)
	s.traces.Add(tr)
	s.log.Debug("query", "id", id, "source", ev.Source,
		"dur_ms", float64(ev.Duration.Microseconds())/1000, "stats", ev.Stats.String())
}

// Close detaches the live write path and stops the engine's worker pool
// after draining admitted work.
func (s *server) Close() {
	if s.live != nil {
		if err := s.live.Close(); err != nil {
			s.log.Error("live write path close failed", "err", err)
		}
	}
	s.engine.Close()
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// handleHealth is pure liveness: the process is up and able to answer
// HTTP. It stays 200 through overload and drain — restarting an overloaded
// server only makes the overload worse. Readiness (should this instance
// receive traffic?) is the separate /readyz.
func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the load-balancer signal: 503 while draining after
// SIGTERM, while no snapshot is published yet, or while pressure is
// Critical (new traffic would only be shed — send it elsewhere first).
// Liveness stays on /healthz.
func (s *server) handleReady(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		w.Header().Set("Retry-After", retrySecs(s.engine.RetryAfter()))
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "draining", "reason": "shutting down"})
	case s.engine == nil || s.servedGraph() == nil:
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "starting", "reason": "no snapshot published yet"})
	case s.engine.Pressure().Level() >= pressure.Critical:
		w.Header().Set("Retry-After", retrySecs(s.engine.RetryAfter()))
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "overloaded", "reason": "pressure critical"})
	default:
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// BeginDrain flips /readyz to 503 so load balancers stop routing here
// while the HTTP server finishes in-flight requests. Idempotent.
func (s *server) BeginDrain() { s.draining.Store(true) }

// effectiveTimeout picks the per-request deadline: the configured
// QueryTimeout normally, the tighter Brownout while pressure is Elevated
// or worse — under pressure the deadline-aware solver converts the budget
// cut into a degraded (206) answer with a sound bound instead of a longer
// queue.
func (s *server) effectiveTimeout() time.Duration {
	if s.brownout > 0 && s.engine.Pressure().Level() >= pressure.Elevated {
		return s.brownout
	}
	return s.queryTimeout
}

// retrySecs renders a Retry-After duration as the whole-seconds string the
// HTTP header wants (never below "1").
func retrySecs(d time.Duration) string {
	secs := int64(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

type rankedJSON struct {
	Node  int32   `json:"node"`
	Score float64 `json:"score"`
}

// writeEngineError maps engine failures to HTTP semantics: load-shedding
// surfaces as 429 + Retry-After (clients should back off, not pile on),
// a server-imposed deadline as 504, a client that hung up as a logged 408
// with no body (nobody is reading it; the status feeds access logs), and
// everything else as 500. The two cancellation causes get distinct metric
// labels: "deadline" is the server's capacity/latency story,
// "client_cancel" is the clients'.
func (s *server) writeEngineError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, resacc.ErrOverloaded):
		// The hint is derived from the observed drain rate and the backlog
		// ahead of a new arrival — an honest "when will there be room",
		// not a constant.
		w.Header().Set("Retry-After", retrySecs(s.engine.RetryAfter()))
		s.writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "server overloaded, retry later"})
	case errors.Is(err, context.Canceled):
		s.reqCancels["client_cancel"].Inc()
		s.log.Debug("request cancelled by client", "path", r.URL.Path)
		w.WriteHeader(http.StatusRequestTimeout)
	case errors.Is(err, context.DeadlineExceeded):
		s.reqCancels["deadline"].Inc()
		s.writeJSON(w, http.StatusGatewayTimeout, map[string]string{"error": "query deadline exceeded"})
	default:
		s.writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	}
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	source, err := s.nodeParam(r, "source")
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	k := 10
	if raw := r.URL.Query().Get("k"); raw != "" {
		k, err = strconv.Atoi(raw)
		if err != nil || k < 1 {
			s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": "k must be a positive integer"})
			return
		}
	}
	if n := s.servedGraph().N(); k > n {
		k = n
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.effectiveTimeout())
	defer cancel()
	start := time.Now()
	top, err := s.engine.QueryTopK(ctx, source, k)
	if err != nil {
		s.writeEngineError(w, r, err)
		return
	}
	if top.Degraded && top.Bound >= 1 {
		// The deadline fired before any mass converted; there is nothing
		// useful to serve.
		s.reqCancels["deadline"].Inc()
		s.writeJSON(w, http.StatusGatewayTimeout, map[string]string{
			"error": "query deadline exceeded before any useful work completed"})
		return
	}
	s.queries.Add(1)
	out := struct {
		Source  int32        `json:"source"`
		K       int          `json:"k"`
		Results []rankedJSON `json:"results"`
		Millis  float64      `json:"query_ms"`
		// Delta is the threshold the ranking is certified at: every node
		// whose true score exceeds it is within relative error ε, with
		// failure probability p_f (see docs/SERVING.md).
		Delta float64 `json:"delta,omitempty"`
		// Degradation contract: when degraded is true the scores are
		// anytime underestimates and every true score is within bound of
		// the reported one (see docs/SERVING.md).
		Degraded bool    `json:"degraded,omitempty"`
		Bound    float64 `json:"bound,omitempty"`
		Phase    string  `json:"phase,omitempty"`
	}{Source: source, K: k, Results: []rankedJSON{}, Delta: top.Delta,
		Millis: float64(time.Since(start).Microseconds()) / 1000}
	for _, t := range top.Ranked {
		out.Results = append(out.Results, rankedJSON{t.Node, t.Score})
	}
	status := http.StatusOK
	if top.Degraded {
		status = http.StatusPartialContent
		out.Degraded, out.Bound, out.Phase = true, top.Bound, top.Phase
	}
	s.writeJSON(w, status, out)
}

func (s *server) handlePair(w http.ResponseWriter, r *http.Request) {
	source, err := s.nodeParam(r, "source")
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	target, err := s.nodeParam(r, "target")
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.effectiveTimeout())
	defer cancel()
	est, err := s.engine.QueryPair(ctx, source, target)
	if err != nil {
		s.writeEngineError(w, r, err)
		return
	}
	s.queries.Add(1)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"source": source, "target": target, "estimate": est,
	})
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	es := s.engine.Stats()
	g := s.servedGraph()
	out := map[string]any{
		"nodes":          g.N(),
		"edges":          g.M(),
		"avg_out_degree": g.AvgDegree(),
		"queries_served": s.queries.Load(),
		"uptime_seconds": time.Since(s.started).Seconds(),
		"epsilon":        s.params.Epsilon,
		"alpha":          s.params.Alpha,
		"engine": map[string]any{
			"cache_hits":    es.Hits,
			"cache_misses":  es.Misses,
			"dedup_joins":   es.Joins,
			"shed":          es.Shed,
			"panics":        es.Panics,
			"cache_entries": es.CacheEntries,
			"cache_bytes":   es.CacheBytes,
			"queue_depth":   es.QueueDepth,
			"graph_epoch":   es.Epoch,
			"graph_swaps":   es.Swaps,
			"snapshot_refs": es.SnapshotRefs,
		},
		"pressure": map[string]any{
			"level":           es.PressureLevel,
			"loads":           es.PressureLoads,
			"sojourn_ms":      float64(es.Sojourn.Microseconds()) / 1000,
			"drain_rate":      es.DrainRate,
			"draining":        s.draining.Load(),
			"brownout_active": s.brownout > 0 && s.engine.Pressure().Level() >= pressure.Elevated,
		},
	}
	if s.quota != nil {
		out["edit_quota"] = map[string]any{
			"rejected": s.quota.Rejects(),
			"clients":  s.quota.Clients(),
		}
	}
	if s.live != nil {
		ls := s.live.Stats()
		out["live"] = map[string]any{
			"snapshot_epoch":    ls.Epoch,
			"pending_adds":      ls.PendingAdds,
			"pending_removes":   ls.PendingRemoves,
			"edges_added":       ls.EdgesAdded,
			"edges_removed":     ls.EdgesRemoved,
			"edge_noops":        ls.EdgeNoops,
			"swaps":             ls.Swaps,
			"full_swaps":        ls.Swaps, // every swap purges
			"swap_failures":     ls.SwapFailures,
			"invalidated":       ls.Invalidated,
			"rejected_backlog":  ls.RejectedBacklog,
			"max_backlog":       ls.MaxBacklog,
			"backlog_frac":      s.live.BacklogFrac(),
			"retired_snapshots": ls.RetiredSnapshots,
			"last_swap_ms":      float64(ls.LastSwap.Microseconds()) / 1000,
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleEdges is the streaming write endpoint: a JSON batch of edge
// insertions and deletions applied through the live write path. The edits
// become visible to queries within the configured staleness bound; "flush"
// forces an immediate snapshot swap. Disabled (403) unless the server runs
// with -live.
func (s *server) handleEdges(w http.ResponseWriter, r *http.Request) {
	if s.live == nil {
		s.writeJSON(w, http.StatusForbidden, map[string]string{
			"error": "live edits disabled; start the server with -live"})
		return
	}
	var req struct {
		Add    [][2]int32 `json:"add"`
		Remove [][2]int32 `json:"remove"`
		Flush  bool       `json:"flush"`
	}
	if err := decodeOne(json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<22)), &req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": "invalid JSON body: " + err.Error()})
		return
	}
	n := len(req.Add) + len(req.Remove)
	if n > s.maxEdits {
		s.writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{
			"error": fmt.Sprintf("%d edits exceeds the per-request cap of %d", n, s.maxEdits)})
		return
	}
	// Per-client quota first (cheap, no lock on the write path), then the
	// global backlog budget inside Apply. A flush-only request charges one
	// token — it still costs a snapshot build.
	if s.quota != nil {
		cost := float64(n)
		if cost < 1 {
			cost = 1
		}
		if ok, retry := s.quota.Allow(editClient(r), cost); !ok {
			w.Header().Set("Retry-After", retrySecs(retry))
			s.writeJSON(w, http.StatusTooManyRequests, map[string]string{
				"error": "per-client edit quota exhausted, retry later"})
			return
		}
	}
	res, err := s.live.Apply(req.Add, req.Remove)
	if errors.Is(err, resacc.ErrEditBacklog) {
		// The hint is when the staleness timer will have flushed the
		// backlog, plus the observed swap cost.
		w.Header().Set("Retry-After", retrySecs(s.live.RetryAfter()))
		s.writeJSON(w, http.StatusTooManyRequests, map[string]string{
			"error": "pending-edit backlog full, retry later"})
		return
	}
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if req.Flush && !res.Swapped {
		if swapped, err := s.live.Flush(); err != nil {
			s.writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		} else if swapped {
			res.Swapped = true
			res.PendingAdds, res.PendingRemoves = 0, 0
			res.Epoch = s.live.Stats().Epoch
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"applied":         res.Applied,
		"noop":            res.Noops,
		"pending_adds":    res.PendingAdds,
		"pending_removes": res.PendingRemoves,
		"swapped":         res.Swapped,
		"epoch":           res.Epoch,
	})
}

// editClient identifies the quota bucket for a write request: an explicit
// X-Client-ID header when the caller sets one, the remote host otherwise.
func editClient(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.log.Error("metrics write failed", "err", err)
	}
}

// handleTraces serves the most recent query traces, newest first. ?n=
// limits the count.
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	traces := s.traces.Snapshot()
	if raw := r.URL.Query().Get("n"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": "n must be a non-negative integer"})
			return
		}
		if n < len(traces) {
			traces = traces[:n]
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"count":  len(traces),
		"traces": traces,
	})
}

func (s *server) nodeParam(r *http.Request, name string) (int32, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing %q parameter", name)
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("%q must be an integer node id", name)
	}
	if n := s.servedGraph().N(); v < 0 || int(v) >= n {
		return 0, fmt.Errorf("node %d out of range [0,%d)", v, n)
	}
	return int32(v), nil
}

// decodeOne decodes the one JSON value a request body must hold into v.
// Anything after it but whitespace is an error, so a body carrying a
// second value is refused whole instead of being half read.
func decodeOne(dec *json.Decoder, v any) error {
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

// writeJSON writes v as the response body. Encoding failures after the
// header is sent cannot be reported to the client, so they are logged.
func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Error("response encode failed", "status", status, "err", err)
	}
}

// discardLogger is a slog sink for tests and -quiet operation.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}
