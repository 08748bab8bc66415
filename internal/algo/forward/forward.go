// Package forward implements Forward Search, the local-update algorithm of
// Andersen, Chung and Lang (FOCS'06) given as Algorithm 1 in the paper. It
// is both a standalone baseline ("FWD" in Table III, run with a very small
// residue threshold) and the push primitive reused by FORA, TopPPR and
// ResAcc's h-HopFWD and OMFWD phases. Every search runs on a workspace.
package forward

import (
	"math"

	"resacc/internal/algo"
	"resacc/internal/graph"
	"resacc/internal/ws"
)

// pool recycles the FWD baseline's workspaces.
var pool = ws.NewPool()

// State is a forward search on a workspace: the reserve π^f(s,·) and
// residue r^f(s,·) vectors are w.Reserve and w.Residue, every write is
// recorded in w.Dirty, and the work queue lives in w.Queue with its
// membership in w.InQueue. State itself holds only the push eligibility
// and the search's cost counts.
type State struct {
	// Pushes counts forward push operations performed, for the paper's
	// cost accounting.
	Pushes int64
	// Sweeps counts whole-range dense-sweep rounds run by the powerpush
	// backend (see RunFrom's denseMass); zero when the drain stayed on the
	// queue.
	Sweeps int64

	// restrict/skip express push eligibility as data rather than a
	// closure — a func field would force heap allocation of the State on
	// the pooled zero-alloc query path. restrict == nil means the whole
	// graph may push; skip (when hasSkip) is the one node that may never
	// push (h-HopFWD's source, whose looping cascades are collapsed in
	// closed form instead).
	restrict *ws.Marks
	skip     int32
	hasSkip  bool
}

// RestrictTo limits pushing to members of set (nil = no restriction),
// excluding skip when skip ≥ 0. ResAcc's h-HopFWD phase restricts the
// cascade to the h-hop subgraph and never re-pushes at the source.
// Restriction gates who may push, not who may receive residue: frontier
// nodes outside the set still accumulate.
func (st *State) RestrictTo(set *ws.Marks, skip int32) {
	st.restrict = set
	st.skip = skip
	st.hasSkip = skip >= 0
}

// mayPush reports whether the restriction (if any) lets v push.
func (st *State) mayPush(v int32) bool {
	if st.hasSkip && v == st.skip {
		return false
	}
	return st.restrict == nil || st.restrict.Has(v)
}

// RunWS runs forward search from source s on a reset workspace: r(s) = 1
// (Algorithm 1 lines 1-2), then pushes until no node satisfies the push
// condition r(v)/d_out(v) ≥ rmax. It returns the push count. FORA and
// TopPPR hand w on to the remedy phase.
func RunWS(g *graph.Graph, alpha, rmax float64, w *ws.Workspace, s int32) int64 {
	w.SetResidue(s, 1)
	w.Seeds = append(w.Seeds[:0], s)
	var st State
	st.RunFrom(g, alpha, rmax, w, w.Seeds, false, nil, 0)
	return st.Pushes
}

// RunFrom pushes on w from an explicit seed set, for callers (h-HopFWD,
// OMFWD) that know exactly which nodes may satisfy the push condition.
// Seeds that do not satisfy the condition are pushed anyway when force is
// true (Algorithm 4 pushes every initially enqueued node).
//
// done (a query context's Done channel, nil = never) cancels the drain at
// its next amortized check, and RunFrom then reports true. Every push
// preserves the forward-push invariant, so the interrupted state is a
// valid underestimate whose error is bounded by the remaining residue sum.
//
// denseMass > 0 arms the dense-sweep backend: once the queue's pending
// out-edge mass reaches denseMass, the drain hands the state to
// powerpush.Sweep until the frontier thins again (see drainDense). Searches
// that never reach it, and every search with denseMass ≤ 0, run the plain
// queue drain: an unarmed sweep becomes a threshold of math.MaxInt, which
// the pending out-edge mass never reaches (0 would start a sweep at once).
func (st *State) RunFrom(g *graph.Graph, alpha, rmax float64, w *ws.Workspace, seeds []int32, force bool, done <-chan struct{}, denseMass int) (aborted bool) {
	w.InQueue.Clear()
	st.seed(g, rmax, w, seeds, force)
	if denseMass <= 0 {
		denseMass = math.MaxInt
	}
	return st.drainDense(g, alpha, rmax, w, done, denseMass)
}

// seed fills w's emptied queue with the initial work set: every seed above
// the push threshold, or (force) every seed with any residue — Algorithm 4
// pushes each initially enqueued node regardless of threshold. Restricted
// nodes never enqueue.
func (st *State) seed(g *graph.Graph, rmax float64, w *ws.Workspace, seeds []int32, force bool) {
	w.Queue = w.Queue[:0]
	for _, v := range seeds {
		r := w.Residue[v]
		ok := r > 0
		if !force {
			ok = satisfies(g, rmax, r, v)
		}
		if ok && st.mayPush(v) && w.InQueue.Mark(v) {
			w.Queue = append(w.Queue, v)
		}
	}
}

func satisfies(g *graph.Graph, rmax, r float64, v int32) bool {
	d := g.OutDegree(v)
	if d == 0 {
		// Dead end: any positive residue converts wholly to reserve, so
		// treat it as pushable whenever it carries meaningful mass.
		return r >= rmax
	}
	return r >= rmax*float64(d)
}

// Solver is the standalone Forward Search baseline: it runs push to a fixed
// (small) threshold and reports the reserves as the estimate, ignoring the
// leftover residues. As the paper notes, for any fixed r_max it provides no
// output bound.
type Solver struct {
	// RMax overrides Params.RMaxF when non-zero. The paper's FWD baseline
	// uses 1e-12 (§VII-A).
	RMax float64
}

// Name implements algo.SingleSource.
func (Solver) Name() string { return "FWD" }

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
		rmax = p.RMaxF
	}
	w := pool.Get(g.N())
	RunWS(g, p.Alpha, rmax, w, src)
	pi := w.ExtractScores()
	pool.Put(w)
	return pi, nil
}
