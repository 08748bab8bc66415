package algo

import (
	"resacc/internal/graph"
	"resacc/internal/rng"
)

// Walk simulates one random walk with restart from v and returns the node
// it terminates at. At each step the walk stops with probability alpha,
// otherwise it moves to a uniformly random out-neighbour; at a node with no
// out-neighbours it stops (see DESIGN.md on dead-end semantics).
func Walk(g *graph.Graph, v int32, alpha float64, r *rng.Source) int32 {
	cur := v
	for {
		if r.Float64() < alpha {
			return cur
		}
		d := g.OutDegree(cur)
		if d == 0 {
			return cur
		}
		cur = g.OutAt(cur, r.Intn(d))
	}
}

// WalkCounter simulates walks and tallies terminals; it exists so callers
// that only need endpoint counts avoid per-walk allocations.
type WalkCounter struct {
	g     *graph.Graph
	alpha float64
	r     *rng.Source
	// Count[t] is the number of recorded walks that ended at t.
	Count []int64
	// Total is the number of recorded walks.
	Total int64
}

// NewWalkCounter returns a counter over g's nodes.
func NewWalkCounter(g *graph.Graph, alpha float64, r *rng.Source) *WalkCounter {
	return &WalkCounter{g: g, alpha: alpha, r: r, Count: make([]int64, g.N())}
}

// Run simulates k walks from v, recording their terminals.
func (w *WalkCounter) Run(v int32, k int) {
	for i := 0; i < k; i++ {
		t := Walk(w.g, v, w.alpha, w.r)
		w.Count[t]++
	}
	w.Total += int64(k)
}
