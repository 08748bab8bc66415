package algo

import (
	"math"
	"slices"
	"sync"

	"resacc/internal/crash"
	"resacc/internal/faultinject"
	"resacc/internal/graph"
	"resacc/internal/rng"
	"resacc/internal/ws"
)

// RemedyStats reports what a remedy phase actually did.
type RemedyStats struct {
	// RSum is Σ_v r(v) at the start of the phase.
	RSum float64
	// NR is the target walk count n_r = r_sum·c (after NScale).
	NR float64
	// Walks is the number of walks actually simulated (ceilings and the
	// MaxWalks cap make it differ from NR).
	Walks int64
	// Aborted reports that the done channel stopped the walk simulation
	// early.
	Aborted bool
	// Remaining, set only when Aborted, is the residue mass whose walks
	// never ran: Σ over un-simulated walks of their per-walk increment.
	// Because k of a node's n_v walks at increment r(v)/n_v convert exactly
	// (k/n_v)·r(v) of its residue, the partial estimate equals a fully
	// converged remedy over r_sum−Remaining mass, and Remaining is a sound
	// additive error bound on the un-remedied part.
	Remaining float64
}

// walkCheckMask amortizes cancellation polling in the walk loop: the done
// channel is inspected once every walkCheckMask+1 walks (counted across
// jobs, so floods of single-walk nodes don't poll per node).
const walkCheckMask = 4095

// PlanRemedy plans the paper's remedy phase (Algorithm 2 lines 5-17) over
// the residues of w: every node v with r(v) > 0, in ascending id order, is
// assigned n_r(v) = ⌈r(v)·n_r/r_sum⌉ walks until the MaxWalks cap runs out.
// The plan is left in w.JobNodes and w.JobCounts; each of v's walks credits
// r(v)/n_r(v) to its terminal — Algorithm 2's increment a(v)·r_sum/n_r with
// a(v) = (r(v)/r_sum)·(n_r/n_r(v)) — and the estimator is unbiased
// (Theorem 1) because a walk from v terminates at t with probability
// π(v,t). The returned stats carry r_sum, n_r and the planned walk count.
func PlanRemedy(p Params, w *ws.Workspace) RemedyStats {
	var st RemedyStats
	residue := w.Residue[:w.N()]
	cands := 0
	for _, rv := range residue {
		if rv > 0 {
			st.RSum += rv
			cands++
		}
	}
	// Size the plan once: a workspace fresh from the pool would otherwise
	// regrow it by doubling on every query.
	w.JobNodes = slices.Grow(w.JobNodes[:0], cands)
	w.JobCounts = slices.Grow(w.JobCounts[:0], cands)
	if st.RSum <= 0 {
		return st
	}
	st.NR = st.RSum * p.WalkCoefficient() * p.EffectiveNScale()
	if st.NR < 1 {
		st.NR = 1
	}
	budget := int64(math.MaxInt64)
	if p.MaxWalks > 0 {
		budget = int64(p.MaxWalks)
	}
	for v, rv := range residue {
		if rv <= 0 {
			continue
		}
		nv := max(int64(math.Ceil(rv*st.NR/st.RSum)), 1)
		if st.Walks+nv > budget {
			nv = budget - st.Walks
			if nv <= 0 {
				break
			}
		}
		w.JobNodes = append(w.JobNodes, int32(v))
		w.JobCounts = append(w.JobCounts, nv)
		st.Walks += nv
	}
	return st
}

// Remedy runs the remedy phase on w — PlanRemedy, then one random walk per
// planned walk — and adds the estimate Σ_v r(v)·π(v,t) into w.Reserve.
// FORA, TopPPR and ResAcc all finish with it; it never writes residues.
//
// workers ≤ 1 walks the plan in order from w.Rng reseeded to seed. With
// more, job i goes to worker i mod workers (clamped to the job count),
// each worker walks from its own stream split from the seed into a pooled
// accumulator, and the accumulators merge in worker order, so the result
// is deterministic per (seed, workers).
//
// When done (a query context's Done channel, nil = never) fires, walking
// stops at the next amortized check; the stats then carry Aborted and the
// un-walked residue mass in Remaining. A panic on a walk worker (a corrupt
// graph, an injected chaos fault) is recovered there — one escaping a
// detached goroutine would kill the process — and re-raised on the caller
// as a *crash.PanicError carrying the worker's stack.
func Remedy(g *graph.Graph, p Params, w *ws.Workspace, seed uint64, workers int, done <-chan struct{}) RemedyStats {
	st := PlanRemedy(p, w)
	if len(w.JobNodes) == 0 {
		return st
	}
	w.Rng.Reseed(seed)
	var short walkShort
	if workers <= 1 {
		short = walkJobs(g, p.Alpha, w, 0, 1, &w.Rng, w.Reserve, &w.Dirty, done)
	} else {
		// Idle workers would each borrow, merge and return an empty
		// accumulator; the clamp is part of the stream split, so results
		// stay deterministic per (seed, requested workers).
		short = walkStrided(g, p.Alpha, w, min(workers, len(w.JobNodes)), done)
	}
	if short.walks > 0 {
		st.Aborted = true
		st.Walks -= short.walks
		// Planned-but-unwalked mass plus whatever the budget cap never
		// planned; both are un-remedied and belong in the bound.
		rest := st.RSum + short.mass
		for i, v := range w.JobNodes {
			rest -= float64(w.JobCounts[i]) * (w.Residue[v] / float64(w.JobCounts[i]))
		}
		st.Remaining = max(rest, 0)
	}
	AddWalks(st.Walks)
	return st
}

// walkShort is the part of a plan a walker never ran: its walk count and
// its residue mass.
type walkShort struct {
	mass  float64
	walks int64
}

// walkJobs runs the planned jobs first, first+stride, … with walks from r,
// crediting each terminal into val and recording it in marks, which must
// already hold every non-zero slot of val. If done fires it stops and
// reports every walk of its stride it never ran.
func walkJobs(g *graph.Graph, alpha float64, w *ws.Workspace, first, stride int, r *rng.Source, val []float64, marks *ws.Marks, done <-chan struct{}) walkShort {
	nodes, counts, residue := w.JobNodes, w.JobCounts, w.Residue
	var walked int64
	for i := first; i < len(nodes); i += stride {
		v, n := nodes[i], counts[i]
		inc := residue[v] / float64(n)
		for k := int64(0); k < n; k++ {
			if done != nil && walked&walkCheckMask == 0 {
				select {
				case <-done:
					short := walkShort{float64(n-k) * inc, n - k}
					for j := i + stride; j < len(nodes); j += stride {
						short.mass += float64(counts[j]) * (residue[nodes[j]] / float64(counts[j]))
						short.walks += counts[j]
					}
					return short
				default:
				}
			}
			walked++
			t := Walk(g, v, alpha, r)
			// A non-zero slot is marked already; testing the value the add
			// loads anyway spares most walks a stamp lookup.
			if val[t] == 0 {
				marks.Mark(t)
			}
			val[t] += inc
		}
	}
	return walkShort{}
}

// walkStrided is Remedy's worker fan-out: one goroutine per stride, each
// with its own stream and pooled accumulator, merged over touched entries
// only — O(walk endpoints), not O(workers·n). Each worker holds at most
// one partial per node, so per-slot addition order is fixed by worker
// order.
func walkStrided(g *graph.Graph, alpha float64, w *ws.Workspace, workers int, done <-chan struct{}) walkShort {
	streams := w.GrowStreams(workers)
	for i := range streams {
		w.Rng.SplitInto(&streams[i])
	}
	type result struct {
		a     *ws.Accum
		short walkShort
	}
	results := make([]result, workers)
	var workerPanic *crash.PanicError
	var panicOnce sync.Once
	var wg sync.WaitGroup
	for wk := range results {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					pe := crash.Capture("algo: remedy walk worker", v)
					panicOnce.Do(func() { workerPanic = pe })
				}
			}()
			faultinject.Hit("algo.remedy.worker")
			a := ws.GetAccum(g.N())
			results[wk].short = walkJobs(g, alpha, w, wk, workers, &streams[wk], a.Val, &a.Marks, done)
			results[wk].a = a
		}(wk)
	}
	wg.Wait()
	if workerPanic != nil {
		// The panicking worker's accumulator is lost mid-update and the
		// survivors' are moot: discard them all (the pool refills) and
		// re-raise for the query-level barrier to convert into an error.
		panic(workerPanic)
	}
	var short walkShort
	for _, res := range results {
		for _, t := range res.a.Marks.Touched() {
			w.AddReserve(t, res.a.Val[t])
		}
		ws.PutAccum(res.a)
		short.mass += res.short.mass
		short.walks += res.short.walks
	}
	return short
}
