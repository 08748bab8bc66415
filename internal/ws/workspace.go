package ws

import "resacc/internal/rng"

// Workspace bundles every dense vector and scratch buffer one SSRWR query
// needs, so the whole query path — h-HopFWD, OMFWD and the remedy phase —
// runs without per-query O(n) allocation. A Workspace is owned by exactly
// one query at a time; recycle it through a Pool (or reuse it directly for
// single-threaded repeat queries).
//
// Invariant: between queries Reserve and Residue are all-zero and every
// Marks set is empty. Reset restores the invariant sparsely (O(touched) in
// the previous query's footprint) and must be called before each use;
// queries record every Reserve/Residue write in Dirty via AddReserve /
// AddResidue / SetResidue so Reset knows what to zero.
type Workspace struct {
	n int
	// epoch is the pool epoch the workspace was issued under; Pool.Get
	// drops workspaces from older epochs (see Pool.Invalidate).
	epoch uint64

	// Reserve is π̂(s,·) under construction: the push phases accumulate
	// reserves here and the remedy phase adds its walk estimates on top.
	Reserve []float64
	// Residue is r(s,·), the mass not yet converted to reserve.
	Residue []float64
	// Dirty records every slot written in Reserve or Residue this query;
	// only these slots are read back (result extraction, residue sums) or
	// zeroed on Reset.
	Dirty Marks

	// InSub is membership in the h-hop subgraph V_{h-hop}(s).
	InSub Marks
	// InQueue is push-queue membership for the forward phases.
	InQueue Marks
	// Visited is BFS visited-set scratch (graph.BFSLayersScratch).
	Visited Marks

	// Queue, Order, Start and Seeds are reusable int buffers: push work
	// queue, BFS layer order and layer boundaries, and push seed list.
	Queue []int32
	Order []int32
	Start []int
	Seeds []int32

	// Rng is the query's deterministic walk generator (reseeded per query).
	Rng rng.Source

	// JobNodes/JobCounts are the planned remedy walk assignment (node,
	// walk count; see algo.PlanRemedy), kept as parallel slices so
	// replanning reuses their capacity.
	JobNodes  []int32
	JobCounts []int64
}

// New returns a ready Workspace for graphs up to n nodes.
func New(n int) *Workspace {
	w := &Workspace{}
	w.Reset(n)
	return w
}

// N returns the node count the workspace is currently sized for.
func (w *Workspace) N() int { return w.n }

// Reset prepares the workspace for a query on an n-node graph: it zeroes
// the slots the previous query dirtied, empties every set in O(1) via a
// generation bump, truncates the scratch buffers (keeping capacity), and
// grows the dense vectors if n exceeds the current capacity. Steady-state
// cost is O(previous query's touched set); no O(n) clearing happens after
// the first use at a given capacity.
func (w *Workspace) Reset(n int) {
	// Zero the dirty slots before any growth: Dirty indexes the current
	// arrays.
	for _, v := range w.Dirty.touched {
		w.Reserve[v] = 0
		w.Residue[v] = 0
	}
	if n > len(w.Reserve) {
		w.Reserve = make([]float64, n)
		w.Residue = make([]float64, n)
	}
	w.Dirty.Grow(n)
	w.InSub.Grow(n)
	w.InQueue.Grow(n)
	w.Visited.Grow(n)
	w.Dirty.Clear()
	w.InSub.Clear()
	w.InQueue.Clear()
	w.Visited.Clear()
	w.Queue = w.Queue[:0]
	w.Order = w.Order[:0]
	w.Start = w.Start[:0]
	w.Seeds = w.Seeds[:0]
	w.JobNodes = w.JobNodes[:0]
	w.JobCounts = w.JobCounts[:0]
	w.n = n
}

// AddResidue adds x to Residue[v], recording the touch.
func (w *Workspace) AddResidue(v int32, x float64) {
	w.Dirty.Mark(v)
	w.Residue[v] += x
}

// SetResidue sets Residue[v], recording the touch.
func (w *Workspace) SetResidue(v int32, x float64) {
	w.Dirty.Mark(v)
	w.Residue[v] = x
}

// AddReserve adds x to Reserve[v], recording the touch.
func (w *Workspace) AddReserve(v int32, x float64) {
	w.Dirty.Mark(v)
	w.Reserve[v] += x
}

// SetReserve sets Reserve[v], recording the touch.
func (w *Workspace) SetReserve(v int32, x float64) {
	w.Dirty.Mark(v)
	w.Reserve[v] = x
}

// SumResidue returns Σ_v r(v) over the dirty slots (every slot that can be
// non-zero), in touch order.
func (w *Workspace) SumResidue() float64 {
	total := 0.0
	for _, v := range w.Dirty.touched {
		total += w.Residue[v]
	}
	return total
}

// ExtractScores copies the reserve vector into a fresh dense slice of
// length n — the query answer handed back to callers, which must own its
// memory (results outlive the workspace and may be cached). Only touched
// slots are copied; the rest stay at make's zero.
func (w *Workspace) ExtractScores() []float64 {
	out := make([]float64, w.n)
	for _, v := range w.Dirty.touched {
		out[v] = w.Reserve[v]
	}
	return out
}

// ExtractScoresRemapped is ExtractScores with an id translation applied at
// the copy: slot v of the (relabeled-graph) reserve lands at toOld[v] in
// the output, so the serving boundary pays no second permutation pass or
// extra allocation. A nil toOld is the identity.
func (w *Workspace) ExtractScoresRemapped(toOld []int32) []float64 {
	if toOld == nil {
		return w.ExtractScores()
	}
	out := make([]float64, w.n)
	for _, v := range w.Dirty.touched {
		out[toOld[v]] = w.Reserve[v]
	}
	return out
}
