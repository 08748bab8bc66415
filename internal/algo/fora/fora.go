// Package fora implements FORA (Wang et al., KDD'17), the state-of-the-art
// index-free SSRWR baseline the paper compares against, and FORA+, its
// index-oriented variant that precomputes random-walk endpoints.
//
// FORA = Forward Search with an early-termination threshold, then the
// remedy phase (random walks from every node with leftover residue). The
// threshold defaults to FORA's balanced setting r_max = 1/sqrt(α·m·c),
// which equalises the push cost O(1/(α·r_max)) and the walk cost
// O(m·r_max·c) of the two stages.
package fora

import (
	"fmt"
	"math"

	"resacc/internal/algo"
	"resacc/internal/algo/forward"
	"resacc/internal/graph"
	"resacc/internal/rng"
	"resacc/internal/ws"
)

// pool recycles the per-query workspaces of FORA and FORA+.
var pool = ws.NewPool()

// BalancedRMax returns FORA's cost-balancing forward threshold for graph g
// under parameters p.
func BalancedRMax(g *graph.Graph, p algo.Params) float64 {
	m := float64(g.M())
	if m < 1 {
		m = 1
	}
	return 1 / math.Sqrt(p.Alpha*m*p.WalkCoefficient())
}

// Solver is index-free FORA.
type Solver struct {
	// RMax overrides the balanced forward threshold when non-zero.
	RMax float64
}

// Name implements algo.SingleSource.
func (Solver) Name() string { return "FORA" }

// SingleSource implements algo.SingleSource.
func (s Solver) SingleSource(g *graph.Graph, src int32, p algo.Params) ([]float64, error) {
	if err := p.Validate(g); err != nil {
		return nil, err
	}
	if err := algo.CheckSource(g, src); err != nil {
		return nil, err
	}
	rmax := s.RMax
	if rmax == 0 {
		rmax = BalancedRMax(g, p)
	}
	w := pool.Get(g.N())
	forward.RunWS(g, p.Alpha, rmax, w, src)
	algo.Remedy(g, p, w, nil)
	pi := w.ExtractScores()
	pool.Put(w)
	return pi, nil
}

// Index is FORA+'s precomputed structure: for every node v, a pool of
// random-walk endpoints sized to the maximum number of walks a query can
// request from v (n_r(v) ≤ ⌈r_max·d_out(v)·c⌉, since forward search leaves
// r(v) < r_max·d_out(v)).
type Index struct {
	rmax      float64
	endpoints [][]int32
	bytes     int64
}

// Bytes returns the index size in bytes (4 bytes per stored endpoint),
// reported in the paper's Table IV.
func (ix *Index) Bytes() int64 { return ix.bytes }

// RMax returns the forward threshold the index was built for.
func (ix *Index) RMax() float64 { return ix.rmax }

// BuildIndex precomputes the endpoint pools. maxBytes, when positive, caps
// the index size; exceeding it returns an error, modelling the paper's
// out-of-memory rows for FORA+ on the largest graphs.
func BuildIndex(g *graph.Graph, p algo.Params, rmax float64, maxBytes int64) (*Index, error) {
	if err := p.Validate(g); err != nil {
		return nil, err
	}
	if rmax == 0 {
		rmax = BalancedRMax(g, p)
	}
	c := p.WalkCoefficient()
	ix := &Index{rmax: rmax, endpoints: make([][]int32, g.N())}
	r := rng.New(p.Seed ^ 0x5f04a)
	for v := int32(0); int(v) < g.N(); v++ {
		d := g.OutDegree(v)
		bound := rmax * float64(d) * c
		if d == 0 {
			bound = rmax * c
		}
		k := int(math.Ceil(bound))
		if k < 1 {
			k = 1
		}
		pool := make([]int32, k)
		for i := range pool {
			pool[i] = algo.Walk(g, v, p.Alpha, r)
		}
		ix.endpoints[v] = pool
		ix.bytes += int64(k) * 4
		if maxBytes > 0 && ix.bytes > maxBytes {
			return nil, fmt.Errorf("fora: index exceeds %d bytes at node %d (out of memory by policy)", maxBytes, v)
		}
	}
	return ix, nil
}

// PlusSolver is FORA+: FORA answering the remedy phase from the index.
type PlusSolver struct {
	Index *Index
}

// Name implements algo.SingleSource.
func (PlusSolver) Name() string { return "FORA+" }

// SingleSource implements algo.SingleSource.
func (s PlusSolver) SingleSource(g *graph.Graph, src int32, p algo.Params) ([]float64, error) {
	if s.Index == nil {
		return nil, fmt.Errorf("fora: FORA+ requires a prebuilt index")
	}
	if err := p.Validate(g); err != nil {
		return nil, err
	}
	if len(s.Index.endpoints) != g.N() {
		return nil, fmt.Errorf("fora: FORA+ index covers %d nodes, graph has %d", len(s.Index.endpoints), g.N())
	}
	if err := algo.CheckSource(g, src); err != nil {
		return nil, err
	}
	w := pool.Get(g.N())
	forward.RunWS(g, p.Alpha, s.Index.rmax, w, src)
	// The remedy's plan, with each walk read from v's endpoint pool instead
	// of simulated. A pool shorter than n_r(v) is cycled: BuildIndex sizes
	// pools to the largest n_r(v) a query can plan, so that is rare, and
	// cycling keeps the estimator well-defined.
	algo.PlanRemedy(p, w)
	for i, v := range w.JobNodes {
		n, ends := w.JobCounts[i], s.Index.endpoints[v]
		inc := w.Residue[v] / float64(n)
		for k := int64(0); k < n; k++ {
			w.AddReserve(ends[k%int64(len(ends))], inc)
		}
	}
	pi := w.ExtractScores()
	pool.Put(w)
	return pi, nil
}
