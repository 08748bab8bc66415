package algo

import (
	"math"
	"slices"
	"sync"

	"resacc/internal/crash"
	"resacc/internal/faultinject"
	"resacc/internal/graph"
	"resacc/internal/ws"
)

// walkCheckMask amortizes cancellation polling in the walk loops: the done
// channel is inspected once every walkCheckMask+1 walks (counted across
// jobs, so floods of single-walk nodes don't poll per node).
const walkCheckMask = 4095

// RemedyWS is the remedy phase (Algorithm 2 lines 5-17) running on a query
// workspace instead of caller-provided dense vectors. It differs from
// Remedy/RemedyParallel only in bookkeeping, not in estimates:
//
//   - Walk-start candidates come from the workspace's dirty set — the only
//     slots that can hold residue — sorted ascending, which reproduces the
//     dense ascending scan's float summation and walk order bit-for-bit
//     (skipped zero entries contribute exactly nothing to either).
//   - Walk credits are added through w.AddReserve so result extraction and
//     the next sparse reset see them.
//   - With workers > 1, per-worker accumulation uses pooled touched-list
//     accumulators and the merge walks only touched entries, so
//     accumulation and merge cost O(walk endpoints), not O(workers·n).
//
// Determinism: for a fixed (seed, workers) the result is bit-identical to
// the dense Remedy (workers ≤ 1) or RemedyParallel (workers > 1) on the
// same reserve/residue vectors.
func RemedyWS(g *graph.Graph, p Params, w *ws.Workspace, seed uint64, workers int) RemedyStats {
	return RemedyWSCtx(g, p, w, seed, workers, nil)
}

// RemedyWSCtx is RemedyWS with cooperative cancellation and panic
// containment. When done (a query context's Done channel) fires, walk
// simulation stops at the next amortized check; the stats then carry
// Aborted and the un-walked residue mass in Remaining (see RemedyStats).
// With a nil done the walk loops pay one predictable branch per walk and
// the result is bit-identical to RemedyWS.
//
// A panic on a parallel walk worker (a corrupt graph, an injected chaos
// fault) is recovered on the worker — a panic escaping a detached
// goroutine would kill the process — and re-raised on the caller as a
// *crash.PanicError carrying the worker's stack. The per-worker
// accumulators are discarded rather than pooled on that path.
func RemedyWSCtx(g *graph.Graph, p Params, w *ws.Workspace, seed uint64, workers int, done <-chan struct{}) RemedyStats {
	var st RemedyStats
	w.Cands = w.Cands[:0]
	for _, v := range w.Dirty.Touched() {
		if w.Residue[v] > 0 {
			w.Cands = append(w.Cands, v)
		}
	}
	slices.Sort(w.Cands)
	for _, v := range w.Cands {
		st.RSum += w.Residue[v]
	}
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

	if workers <= 1 {
		w.Rng.Reseed(seed)
		// remaining tracks the residue mass not yet converted by walks:
		// completing k of a node's n_v walks at increment r(v)/n_v converts
		// exactly (k/n_v)·r(v), so mid-node aborts subtract k·inc.
		remaining := st.RSum
		var wdone int64
		for _, v := range w.Cands {
			rv := w.Residue[v]
			nv := int64(math.Ceil(rv * st.NR / st.RSum))
			if nv < 1 {
				nv = 1
			}
			if st.Walks+nv > budget {
				nv = budget - st.Walks
				if nv <= 0 {
					break
				}
			}
			inc := rv / float64(nv)
			for i := int64(0); i < nv; i++ {
				if done != nil && wdone&walkCheckMask == 0 {
					select {
					case <-done:
						st.Walks += i
						st.Aborted = true
						st.Remaining = remaining - float64(i)*inc
						AddWalks(st.Walks)
						return st
					default:
					}
				}
				wdone++
				w.AddReserve(Walk(g, v, p.Alpha, &w.Rng), inc)
			}
			st.Walks += nv
			remaining -= rv
		}
		AddWalks(st.Walks)
		return st
	}

	// Plan the walk assignment sequentially (cheap) so the MaxWalks cap
	// behaves exactly like the sequential phase, then execute in parallel.
	w.JobNodes = w.JobNodes[:0]
	w.JobCounts = w.JobCounts[:0]
	w.JobIncs = w.JobIncs[:0]
	var plannedMass float64
	for _, v := range w.Cands {
		rv := w.Residue[v]
		nv := int64(math.Ceil(rv * st.NR / st.RSum))
		if nv < 1 {
			nv = 1
		}
		if st.Walks+nv > budget {
			nv = budget - st.Walks
			if nv <= 0 {
				break
			}
		}
		inc := rv / float64(nv)
		w.JobNodes = append(w.JobNodes, v)
		w.JobCounts = append(w.JobCounts, nv)
		w.JobIncs = append(w.JobIncs, inc)
		plannedMass += float64(nv) * inc
		st.Walks += nv
	}

	// Idle workers would each borrow, merge and return an empty
	// accumulator; clamp to the job count so tiny remedy phases don't pay
	// for parallelism they can't use. The clamp is part of the stream
	// split, so results stay deterministic per (seed, requested workers).
	if workers > len(w.JobNodes) {
		workers = len(w.JobNodes)
	}
	w.Rng.Reseed(seed)
	streams := w.GrowStreams(workers)
	for i := range streams {
		w.Rng.SplitInto(&streams[i])
	}
	accums := make([]*ws.Accum, workers)
	shortMass := make([]float64, workers)
	shortWalks := make([]int64, workers)
	var workerPanic *crash.PanicError
	var panicOnce sync.Once
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		// workers is passed as an argument, not captured: a captured
		// variable that is ever reassigned (the clamp above) would be moved
		// to the heap at function entry, costing an allocation even on the
		// sequential path.
		go func(wk, workers int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					pe := crash.Capture("algo: remedy walk worker", v)
					panicOnce.Do(func() { workerPanic = pe })
				}
			}()
			faultinject.Hit("algo.remedy.worker")
			a := ws.GetAccum(g.N())
			r := &streams[wk]
			var wdone int64
		jobs:
			for i := wk; i < len(w.JobNodes); i += workers {
				v, n, inc := w.JobNodes[i], w.JobCounts[i], w.JobIncs[i]
				for k := int64(0); k < n; k++ {
					if done != nil && wdone&walkCheckMask == 0 {
						select {
						case <-done:
							// Account every walk this worker will never
							// run: the tail of the current job plus its
							// whole remaining stride.
							shortMass[wk] += float64(n-k) * inc
							shortWalks[wk] += n - k
							for j := i + workers; j < len(w.JobNodes); j += workers {
								shortMass[wk] += float64(w.JobCounts[j]) * w.JobIncs[j]
								shortWalks[wk] += w.JobCounts[j]
							}
							break jobs
						default:
						}
					}
					wdone++
					a.Add(Walk(g, v, p.Alpha, r), inc)
				}
			}
			accums[wk] = a
		}(wk, workers)
	}
	wg.Wait()
	if workerPanic != nil {
		// The panicking worker's accumulator is lost mid-update and the
		// survivors' are moot: discard them all (the pool refills) and
		// re-raise for the query-level barrier to convert into an error.
		panic(workerPanic)
	}
	// Merge in worker order: each worker holds at most one partial per
	// node, so per-slot addition order matches the dense per-worker merge
	// and the result is bit-identical to it.
	for _, a := range accums {
		for _, t := range a.Marks.Touched() {
			w.AddReserve(t, a.Val[t])
		}
		ws.PutAccum(a)
	}
	for wk := 0; wk < workers; wk++ {
		if shortWalks[wk] > 0 {
			st.Aborted = true
			st.Walks -= shortWalks[wk]
		}
	}
	if st.Aborted {
		// Planned-but-unwalked mass plus whatever the budget cap never
		// planned; both are un-remedied and belong in the bound.
		short := st.RSum - plannedMass
		for _, m := range shortMass {
			short += m
		}
		if short < 0 {
			short = 0
		}
		st.Remaining = short
	}
	AddWalks(st.Walks)
	return st
}
