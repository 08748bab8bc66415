package algo

import (
	"math"
	"slices"

	"resacc/internal/faultinject"
	"resacc/internal/graph"
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
// The plan is walked in order on the calling goroutine from w.Rng reseeded
// to p.Seed, so the result is deterministic per seed.
//
// When done (a query context's Done channel, nil = never) fires, walking
// stops at the next amortized check; the stats then carry Aborted and the
// un-walked residue mass in Remaining.
func Remedy(g *graph.Graph, p Params, w *ws.Workspace, done <-chan struct{}) RemedyStats {
	st := PlanRemedy(p, w)
	if len(w.JobNodes) == 0 {
		return st
	}
	w.Rng.Reseed(p.Seed)
	faultinject.Hit("algo.remedy.worker")
	if short := walkJobs(g, p.Alpha, w, done); short.walks > 0 {
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
	return st
}

// walkShort is the part of a plan the walk loop never ran: its walk count
// and its residue mass.
type walkShort struct {
	mass  float64
	walks int64
}

// walkJobs runs the planned jobs in order with walks from w.Rng, crediting
// each terminal into w.Reserve and recording it in w.Dirty. If done fires
// it stops and reports every walk it never ran.
func walkJobs(g *graph.Graph, alpha float64, w *ws.Workspace, done <-chan struct{}) walkShort {
	nodes, counts, residue := w.JobNodes, w.JobCounts, w.Residue
	val, marks, r := w.Reserve, &w.Dirty, &w.Rng
	var walked int64
	for i, v := range nodes {
		n := counts[i]
		inc := residue[v] / float64(n)
		for k := int64(0); k < n; k++ {
			if done != nil && walked&walkCheckMask == 0 {
				select {
				case <-done:
					short := walkShort{float64(n-k) * inc, n - k}
					for j := i + 1; j < len(nodes); j++ {
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
