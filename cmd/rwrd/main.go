// Command rwrd serves SSRWR queries over HTTP — the "real-time
// recommendation service" deployment the paper's introduction motivates.
// The graph is loaded (or generated) once at startup; queries are
// index-free, so the server needs no warm-up or rebuild phase.
//
//	rwrd -graph edges.txt -undirected -addr :8080
//	rwrd -dataset twitter-s -scale 0.25 -addr :8080 -pprof
//
//	GET /v1/query?source=42&k=10            top-k ranking
//	GET /v1/pair?source=42&target=7         single pair estimate
//	POST /v1/batch {"sources":[1,2],"k":10}  per-source rankings in one call
//	POST /v1/edges {"add":[[0,7]],"remove":[[3,4]]}  streaming edge edits (with -live)
//	GET /v1/stats                            graph + server + engine statistics
//	GET /v1/traces?n=20                      recent query traces (JSON)
//	GET /metrics                             Prometheus text exposition
//	GET /healthz                             liveness (the process is up)
//	GET /readyz                              readiness (route traffic here?)
//	GET /debug/pprof/                        profiling (with -pprof)
//
// Responses are JSON (except /metrics). Every query routes through a
// serving engine (see docs/SERVING.md): a sharded result cache keyed by
// (source, params, graph epoch), singleflight deduplication of identical
// concurrent queries, and adaptive admission control — a CoDel-style
// sojourn controller sheds queries once the queue wait stands above target,
// answering 429 with a drain-rate-derived Retry-After instead of queueing
// unboundedly. Under Elevated pressure the server browns out: per-query
// deadlines tighten so the anytime solver serves degraded (206) answers
// with sound error bounds before any shedding starts (see the "Overload
// contract" in docs/SERVING.md). The liveness/readiness split: /healthz is
// 200 whenever the process can answer HTTP, while /readyz turns 503 during
// SIGTERM drain, before a snapshot is published, or at Critical pressure —
// wire the load balancer to /readyz and the restart policy to /healthz.
// With -live, writes have backpressure of their own: per-client -edit-quota
// token buckets and a bounded pending-edit backlog, both answering 429 +
// Retry-After. SIGINT/SIGTERM trigger a graceful shutdown that fails
// readiness first, then drains in-flight queries.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"resacc"
	"resacc/internal/dataset"
)

func main() {
	var (
		graphPath  = flag.String("graph", "", "edge-list file to load")
		undirected = flag.Bool("undirected", false, "treat each edge as bidirectional")
		dsName     = flag.String("dataset", "", "named synthetic dataset instead of -graph")
		scale      = flag.Float64("scale", 0.25, "synthetic dataset scale")
		addr       = flag.String("addr", ":8080", "listen address")
		epsilon    = flag.Float64("epsilon", 0, "relative error override")
		traceBuf   = flag.Int("trace-buffer", 64, "query traces retained for /v1/traces")
		withPprof  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logJSON    = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		drainGrace = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")

		workers    = flag.Int("workers", 0, "engine computation concurrency (0 = GOMAXPROCS)")
		walkWkrs   = flag.Int("walk-workers", 0, "per-query remedy walk concurrency, clamped to GOMAXPROCS/workers (0 = that quotient)")
		pushWkrs   = flag.Int("push-workers", 0, "per-query parallel push-phase workers, clamped to GOMAXPROCS/workers (0 = sequential push)")
		relabel    = flag.Bool("relabel", false, "renumber each served snapshot in decreasing-degree order for cache locality (node ids on the wire stay original)")
		denseSw    = flag.Float64("dense-switch", 0, "dense-sweep switchover as a fraction of |E| for sequential push (0 = default 1/8, negative disables)")
		aliasWalks = flag.Bool("alias-walks", false, "sample remedy walks through a per-snapshot alias table (one RNG draw per step)")
		queueDepth = flag.Int("queue-depth", 0, "engine wait-queue depth before shedding (0 = 4x workers)")
		cacheMB    = flag.Int64("cache-mb", 64, "result-cache capacity in MiB")
		cacheTTL   = flag.Duration("cache-ttl", 0, "result-cache entry TTL (0 = never expire)")
		cacheShard = flag.Int("cache-shards", 0, "result-cache shard count (0 = 16)")
		queryTO    = flag.Duration("query-timeout", 30*time.Second, "per-request answer deadline")
		maxBatch   = flag.Int("max-batch", 1024, "max sources per /v1/batch request")

		hotMemMB = flag.Int64("hot-mem-mb", 0, "ignored: the hot-source walk-endpoint tier is gone; the flag is still accepted so existing command lines keep starting")

		sojournTgt = flag.Duration("sojourn-target", 0, "queue-wait target for adaptive admission: sustained waits above it shed with 429 (0 = 25ms, negative disables sojourn control)")
		brownout   = flag.Duration("brownout", 2*time.Second, "tightened per-query deadline while pressure is Elevated, serving degraded 206 answers instead of queueing (0 disables)")
		memLimitMB = flag.Int64("mem-limit-mb", 0, "soft heap limit feeding the pressure monitor (0 = no memory signal)")

		liveMode  = flag.Bool("live", false, "enable streaming edge edits via POST /v1/edges")
		staleness = flag.Duration("max-staleness", 500*time.Millisecond, "bound on how long an accepted edit may stay invisible to queries (with -live)")
		swapPend  = flag.Int("swap-pending", 0, "pending-edit count that forces an immediate snapshot swap (0 = 1024; with -live)")
		maxEdits  = flag.Int("max-edits", 4096, "max edits per /v1/edges request")
		editQuota = flag.Float64("edit-quota", 0, "per-client edit quota in edits/s on /v1/edges, rejected batches answer 429 + Retry-After (0 = unlimited; with -live)")
		editBurst = flag.Float64("edit-burst", 0, "per-client edit burst allowance in edits (0 = 4x -edit-quota; with -live -edit-quota)")
		editBklog = flag.Int("edit-backlog", 0, "pending-edit backlog bound; batches past it answer 429 + Retry-After (0 = 4x swap-pending; with -live)")
		swapGap   = flag.Duration("min-swap-gap", 0, "minimum gap between pending-cap-triggered inline swaps, so write storms cannot monopolise the writer (0 = no throttle; with -live)")
	)
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)
	if *hotMemMB != 0 {
		logger.Warn("rwrd: -hot-mem-mb is ignored; the hot-source tier no longer exists", "hot_mem_mb", *hotMemMB)
	}

	g, err := loadGraph(*graphPath, *dsName, *scale, *undirected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rwrd:", err)
		os.Exit(1)
	}
	p := resacc.DefaultParams(g)
	if *epsilon > 0 {
		p.Epsilon = *epsilon
	}

	srv := newServer(g, p, serverOpts{
		Log:         logger,
		TraceBuffer: *traceBuf,
		Pprof:       *withPprof,
		Engine: resacc.EngineOptions{
			Workers:       *workers,
			WalkWorkers:   *walkWkrs,
			PushWorkers:   *pushWkrs,
			Relabel:       *relabel,
			DenseSwitch:   *denseSw,
			AliasWalks:    *aliasWalks,
			QueueDepth:    *queueDepth,
			SojournTarget: *sojournTgt,
			MemSoftLimit:  *memLimitMB << 20,
			CacheBytes:    *cacheMB << 20,
			CacheTTL:      *cacheTTL,
			CacheShards:   *cacheShard,
		},
		QueryTimeout: *queryTO,
		Brownout:     *brownout,
		MaxBatch:     *maxBatch,
		Live:         *liveMode,
		LiveOptions: resacc.LiveOptions{
			MaxStaleness: *staleness,
			MaxPending:   *swapPend,
			MaxBacklog:   *editBklog,
			MinSwapGap:   *swapGap,
		},
		MaxEdits:  *maxEdits,
		EditQuota: *editQuota,
		EditBurst: *editBurst,
	})
	defer srv.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		// Queries on large graphs can legitimately take a while; keep the
		// write timeout generous rather than truncating slow responses.
		WriteTimeout: 2 * time.Minute,
		IdleTimeout:  2 * time.Minute,
		ErrorLog:     slog.NewLogLogger(handler, slog.LevelWarn),
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("rwrd: serving",
		"nodes", g.N(), "edges", g.M(), "addr", *addr, "pprof", *withPprof, "live", *liveMode)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("rwrd: server failed", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills hard
		// Fail readiness first so load balancers stop routing here while the
		// drain runs; /healthz stays green the whole way down.
		srv.BeginDrain()
		logger.Info("rwrd: shutting down, draining in-flight queries", "grace", *drainGrace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Error("rwrd: drain incomplete", "err", err)
			os.Exit(1)
		}
		logger.Info("rwrd: shutdown complete")
	}
}

func loadGraph(path, ds string, scale float64, undirected bool) (*resacc.Graph, error) {
	switch {
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return resacc.LoadEdgeList(f, resacc.LoadOptions{Undirected: undirected})
	case ds != "":
		g, _, err := dataset.Build(ds, scale)
		return g, err
	default:
		return nil, fmt.Errorf("need -graph <file> or -dataset <name>")
	}
}
