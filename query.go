package resacc

import (
	"context"
	"runtime"
	"sync"
	"time"

	"resacc/internal/core"
	"resacc/internal/eval"
)

// Ranked is one entry of a top-k ranking.
type Ranked struct {
	// Node is the graph node id.
	Node int32
	// Score is its estimated RWR value w.r.t. the query source.
	Score float64
}

// Result holds the answer to one SSRWR query.
type Result struct {
	// Source is the query node.
	Source int32
	// Scores[t] is the estimated RWR value π̂(s,t); the slice has one
	// entry per graph node.
	Scores []float64
	// Stats is ResAcc's phase breakdown (zero for other solvers).
	Stats Stats

	// Degraded reports that the query's deadline fired before the solver
	// converged and Scores is an anytime underestimate: for every node t,
	// Scores[t] ≤ π(s,t) ≤ Scores[t] + Bound whenever the random-walk
	// phase never ran, and the same additive bound holds on top of the
	// usual randomized guarantee otherwise. Degraded results are never
	// cached by the serving engine.
	Degraded bool
	// Bound is the additive error bound of a degraded result (the
	// unconverted residue mass at the moment the query stopped); 0 when
	// Degraded is false. Bound ≥ 1 means the query stopped before any
	// useful mass converted.
	Bound float64
}

// TopK returns the k nodes with the highest estimated RWR values in
// decreasing order (ties broken by node id). Selection costs O(n log k),
// so asking for a short ranking of a huge graph is cheap.
func (r *Result) TopK(k int) []Ranked {
	idx := eval.TopK(r.Scores, k)
	if idx == nil {
		return nil
	}
	out := make([]Ranked, len(idx))
	for i, id := range idx {
		out[i] = Ranked{Node: id, Score: r.Scores[id]}
	}
	return out
}

// Query answers an approximate SSRWR query with ResAcc.
func Query(g *Graph, source int32, p Params) (*Result, error) {
	return QueryCtx(context.Background(), g, source, p)
}

// QueryCtx is Query under a context: a deadline or cancellation does not
// abandon the work already done — the solver stops at its next amortized
// check and returns the scores accumulated so far, flagged Degraded with
// an additive error Bound (see Result.Degraded). Callers that would rather
// fail than serve a partial answer should check Degraded (or Bound) and
// discard. A panic inside the solver is contained and returned as an
// error.
func QueryCtx(ctx context.Context, g *Graph, source int32, p Params) (*Result, error) {
	return querySolverOn(ctx, g, source, source, p, core.Solver{}, nil)
}

// querySolverOn is the spine under QueryCtx and the engine's default
// compute, with the serving boundary split out: the solver runs on g with
// internal source src, while the result and the event passed to observe
// (nil = none) speak the caller's source id. The two differ only for a
// relabeling engine — s.ScoreRemap translates the score vector during
// extraction, so only the bookkeeping fields need mapping here.
func querySolverOn(ctx context.Context, g *Graph, src, source int32, p Params, s core.Solver, observe QueryHook) (*Result, error) {
	start := time.Now()
	scores, stats, err := s.QueryCtx(ctx, g, src, p)
	if observe != nil {
		observe(QueryEvent{Source: source, Start: start, Duration: time.Since(start), Stats: stats, Err: err})
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Source: source, Scores: scores, Stats: stats,
		Degraded: stats.Degraded, Bound: stats.ResidualBound,
	}, nil
}

// QueryMulti answers the multiple-sources RWR query (MSRWR, §VI-A of the
// paper): one SSRWR query per source. Sources are processed independently;
// each result is deterministic in p.Seed and its source.
func QueryMulti(g *Graph, sources []int32, p Params) ([]*Result, error) {
	return QueryMultiParallel(g, sources, p, 1)
}

// QueryMultiParallel is QueryMulti with the per-source queries fanned out
// over a pool of goroutines (workers ≤ 0 uses GOMAXPROCS). The graph is
// immutable and each query owns its state, so queries are embarrassingly
// parallel; results are identical to QueryMulti for any worker count.
func QueryMultiParallel(g *Graph, sources []int32, p Params, workers int) ([]*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sources) {
		workers = len(sources)
	}
	out := make([]*Result, len(sources))
	errs := make([]error, len(sources))
	run := func(i int) {
		q := p
		// Decorrelate the remedy walks across sources while keeping the
		// whole batch reproducible.
		q.Seed = p.Seed + uint64(i)*0x9e3779b97f4a7c15
		out[i], errs[i] = Query(g, sources[i], q)
	}
	if workers <= 1 {
		for i := range sources {
			run(i)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					run(i)
				}
			}()
		}
		for i := range sources {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
