package algo

import (
	"math"

	"resacc/internal/graph"
	"resacc/internal/rng"
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
	// Aborted reports that a context deadline/cancellation stopped the walk
	// simulation early (ctx-aware variants only).
	Aborted bool
	// Remaining, set only when Aborted, is the residue mass whose walks
	// never ran: Σ over un-simulated walks of their per-walk increment.
	// Because k of a node's n_v walks at increment r(v)/n_v convert exactly
	// (k/n_v)·r(v) of its residue, the partial estimate equals a fully
	// converged remedy over r_sum−Remaining mass, and Remaining is a sound
	// additive error bound on the un-remedied part.
	Remaining float64
}

// Remedy runs the paper's remedy phase (Algorithm 2 lines 5-17): it
// estimates Σ_v r(v)·π(v,t) by simulating n_r(v) = ⌈r(v)·n_r/r_sum⌉ random
// walks from each node v with positive residue, crediting r(v)/n_r(v) to
// the terminal of each walk, and adds the estimate into pi. Both FORA and
// ResAcc finish with exactly this phase, so they share the implementation.
//
// The per-walk increment in Algorithm 2 is a(v)·r_sum/n_r with
// a(v) = (r(v)/r_sum)·(n_r/n_r(v)), which simplifies to r(v)/n_r(v); the
// estimator is unbiased (Theorem 1) because each walk from v terminates at
// t with probability π(v,t).
func Remedy(g *graph.Graph, p Params, pi, residue []float64, r *rng.Source) RemedyStats {
	var st RemedyStats
	for _, rv := range residue {
		if rv > 0 {
			st.RSum += rv
		}
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
	for v := int32(0); int(v) < len(residue); v++ {
		rv := residue[v]
		if rv <= 0 {
			continue
		}
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
			t := Walk(g, v, p.Alpha, r)
			pi[t] += inc
		}
		st.Walks += nv
	}
	AddWalks(st.Walks)
	return st
}

// IndexedRemedy is Remedy using precomputed walk endpoints (FORA+'s index)
// instead of fresh simulations. endpoints[v] holds destination samples for
// walks starting at v; if a node needs more walks than its pool provides,
// the pool is cycled (FORA+ sizes pools so this is rare; cycling keeps the
// estimator well-defined rather than failing).
func IndexedRemedy(g *graph.Graph, p Params, pi, residue []float64, endpoints [][]int32, r *rng.Source) RemedyStats {
	var st RemedyStats
	for _, rv := range residue {
		if rv > 0 {
			st.RSum += rv
		}
	}
	if st.RSum <= 0 {
		return st
	}
	st.NR = st.RSum * p.WalkCoefficient() * p.EffectiveNScale()
	if st.NR < 1 {
		st.NR = 1
	}
	for v := int32(0); int(v) < len(residue); v++ {
		rv := residue[v]
		if rv <= 0 {
			continue
		}
		nv := int64(math.Ceil(rv * st.NR / st.RSum))
		if nv < 1 {
			nv = 1
		}
		pool := endpoints[v]
		inc := rv / float64(nv)
		for i := int64(0); i < nv; i++ {
			var t int32
			if len(pool) > 0 {
				t = pool[i%int64(len(pool))]
			} else {
				t = Walk(g, v, p.Alpha, r)
			}
			pi[t] += inc
		}
		st.Walks += nv
	}
	return st
}
