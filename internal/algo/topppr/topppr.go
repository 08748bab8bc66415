// Package topppr implements a TopPPR-style solver (Wei et al., SIGMOD'18)
// adapted for the SSRWR experiments of the paper (§VII-A, §VII-F, App. E).
//
// TopPPR combines the three primitives — forward push, random walks, and
// backward push — to return the top-K nodes with precision guarantees. The
// published algorithm iterates with confidence bounds; this adaptation
// keeps its architecture and cost profile while simplifying the stopping
// rule:
//
//  1. forward push from s (threshold balanced as in FORA);
//  2. random walks from residual nodes give rough estimates for all nodes;
//  3. the candidate top-K frontier (nodes whose rough estimate is within a
//     sampling-noise margin of the K-th largest) is refined by one backward
//     search per candidate, combining π(s,c) ≈ p_f(c) + Σ_v r_f(v)·p_b(v).
//
// Values outside the candidate set keep their rough estimates, which is
// why, exactly as the paper observes (App. E), TopPPR orders the head of
// the ranking well but cannot bound the error of the tail.
package topppr

import (
	"math"
	"sort"

	"resacc/internal/algo"
	"resacc/internal/algo/backward"
	"resacc/internal/algo/fora"
	"resacc/internal/algo/forward"
	"resacc/internal/graph"
	"resacc/internal/ws"
)

// pool recycles the per-query workspaces.
var pool = ws.NewPool()

// Solver is the TopPPR-style SSRWR solver.
type Solver struct {
	// K is the top-K target size (paper default 1e5, scaled in our
	// datasets). Zero means n/10.
	K int
	// MaxCandidates caps the number of backward refinements per query so
	// an adversarial gap cannot make a query quadratic. Zero means 4·K
	// capped at n.
	MaxCandidates int
	// RMaxB overrides the backward-push threshold of the refinement
	// phase. Zero means 1/(10·√m), which balances the per-candidate
	// backward cost against the sampling phase the way the published
	// TopPPR balances its three primitives.
	RMaxB float64
}

// Name implements algo.SingleSource.
func (Solver) Name() string { return "TopPPR" }

// SingleSource implements algo.SingleSource.
func (s Solver) SingleSource(g *graph.Graph, src int32, p algo.Params) ([]float64, error) {
	if err := p.Validate(g); err != nil {
		return nil, err
	}
	if err := algo.CheckSource(g, src); err != nil {
		return nil, err
	}
	n := g.N()
	k := s.K
	if k <= 0 {
		k = n / 10
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}

	// Phase 1: forward push.
	w := pool.Get(n)
	forward.RunWS(g, p.Alpha, fora.BalancedRMax(g, p), w, src)
	// Keep the push reserves: the backward refinement needs them, and the
	// walks below add onto w.Reserve (they never touch w.Residue).
	pushed := w.ExtractScores()

	// Phase 2: rough estimates via remedy walks (half the FORA budget: the
	// backward phase will spend the other half on the frontier).
	half := p
	half.NScale = 0.5 * p.EffectiveNScale()
	remStats := algo.Remedy(g, half, w, nil)
	rough := w.ExtractScores()

	// Phase 3: candidate frontier around the K-th largest rough estimate.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return rough[order[a]] > rough[order[b]] })
	kth := rough[order[k-1]]
	// Sampling noise scale of the rough estimates: each walk contributes
	// about r_sum/n_r, so a few standard deviations of a Binomial give
	// margin ≈ 3·sqrt(kth·r_sum/n_r).
	margin := 0.0
	if remStats.Walks > 0 {
		margin = 3 * math.Sqrt(math.Max(kth, p.Delta)*remStats.RSum/float64(remStats.Walks))
	}
	maxCand := s.MaxCandidates
	if maxCand <= 0 {
		maxCand = 4 * k
	}
	if maxCand > n {
		maxCand = n
	}
	var candidates []int32
	for _, v := range order {
		if rough[v]+margin < kth-margin && len(candidates) >= k {
			break
		}
		candidates = append(candidates, v)
		if len(candidates) >= maxCand {
			break
		}
	}

	// Phase 4: backward refinement of the candidates.
	rmaxB := s.RMaxB
	if rmaxB <= 0 {
		rmaxB = 1.0 / (10 * math.Sqrt(float64(g.M())+1))
	}
	out := rough
	for _, c := range candidates {
		bw := backward.Run(g, p.Alpha, rmaxB, c)
		est := pushed[c]
		for _, u := range bw.Touched {
			if w.Residue[u] > 0 {
				est += w.Residue[u] * bw.Reserve[u]
			}
		}
		// The refined value replaces the rough one only if it is usable
		// (backward reserve underestimates; keep the max of the two
		// unbiased-ish views to avoid demoting true top-K members).
		if est > out[c] {
			out[c] = est
		}
	}
	pool.Put(w)
	return out, nil
}
