// Package forward implements Forward Search, the local-update algorithm of
// Andersen, Chung and Lang (FOCS'06) given as Algorithm 1 in the paper. It
// is both a standalone baseline ("FWD" in Table III, run with a very small
// residue threshold) and the push primitive reused by FORA, TopPPR and
// ResAcc's OMFWD phase.
package forward

import (
	"math"

	"resacc/internal/algo"
	"resacc/internal/graph"
	"resacc/internal/ws"
)

// State holds the reserve π^f(s,·) and residue r^f(s,·) vectors of a
// forward search in progress.
type State struct {
	Reserve []float64
	Residue []float64
	// Pushes counts forward push operations performed, for the paper's
	// cost accounting.
	Pushes int64
	// Track, when non-nil, receives every node whose Reserve or Residue
	// this search writes. Pooled callers (ResAcc's OMFWD on a borrowed
	// workspace) set it to the workspace's dirty set so reset stays sparse.
	Track *ws.Marks

	// Sweeps counts whole-range dense-sweep rounds run by the powerpush
	// backend (see RunFrom's denseMass); zero when the drain stayed on the
	// queue.
	Sweeps int64

	inQueue []bool
	queue   []int32
	// queueMarks, when set via UseScratch, replaces the O(n) inQueue
	// bookkeeping with a generation-stamped set borrowed from a workspace.
	queueMarks *ws.Marks

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

// NewState returns the initial state for source s: r(s)=1, all else zero
// (Algorithm 1 lines 1-2).
func NewState(n int, s int32) *State {
	st := &State{
		Reserve: make([]float64, n),
		Residue: make([]float64, n),
		inQueue: make([]bool, n),
	}
	st.Residue[s] = 1
	return st
}

// EnsureQueue sizes the internal queue bookkeeping; it must be called on a
// State assembled from pre-existing reserve/residue vectors (as ResAcc's
// OMFWD phase does) before Run or RunFrom, unless UseScratch supplied
// pooled bookkeeping instead.
func (st *State) EnsureQueue(n int) {
	if st.queueMarks == nil && len(st.inQueue) < n {
		st.inQueue = make([]bool, n)
	}
}

// UseScratch replaces the search's internal queue bookkeeping with
// caller-owned scratch: inQueue becomes the generation-stamped set (cleared
// here in O(1)) and queue the reusable work buffer. Reclaim the possibly
// grown buffer with TakeQueue after the search.
func (st *State) UseScratch(inQueue *ws.Marks, queue []int32) {
	inQueue.Clear()
	st.queueMarks = inQueue
	st.queue = queue[:0]
}

// TakeQueue detaches and returns the (emptied) work-queue buffer so pooled
// callers can retain its capacity for the next query.
func (st *State) TakeQueue() []int32 {
	q := st.queue
	st.queue = nil
	return q[:0]
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

// ResidueSum returns Σ_v r(v), the r_sum the remedy phase needs. With
// Track set it sums only the touched slots — the only ones that can be
// non-zero — in touch order, matching the workspace's own SumResidue
// bit-for-bit; without Track it falls back to the dense O(n) scan.
func (st *State) ResidueSum() float64 {
	sum := 0.0
	if st.Track != nil {
		for _, v := range st.Track.Touched() {
			sum += st.Residue[v]
		}
		return sum
	}
	for _, r := range st.Residue {
		sum += r
	}
	return sum
}

// Run performs forward push operations until no node satisfies the push
// condition r(v)/d_out(v) ≥ rmax, seeding the work queue by scanning all
// nodes with non-zero residue.
func Run(g *graph.Graph, alpha, rmax float64, st *State) {
	for v := int32(0); v < int32(g.N()); v++ {
		if st.Residue[v] > 0 && satisfies(g, rmax, st.Residue[v], v) && st.mayPush(v) {
			st.enqueue(v)
		}
	}
	st.drain(g, alpha, rmax, nil, 0)
}

// RunWS is Run from source s on a workspace: r(s) = 1, then the same
// queue drain, push for push, with every write tracked in w.Dirty and the
// queue bookkeeping borrowed from w.InQueue/w.Queue, so FORA and TopPPR can
// hand w on to the remedy phase.
func RunWS(g *graph.Graph, alpha, rmax float64, w *ws.Workspace, s int32) {
	w.SetResidue(s, 1)
	w.Seeds = append(w.Seeds[:0], s)
	var st State
	st.Reserve, st.Residue = w.Reserve, w.Residue
	st.Track = &w.Dirty
	st.UseScratch(&w.InQueue, w.Queue)
	RunFrom(g, alpha, rmax, &st, w.Seeds, false, nil, 0)
	w.Queue = st.TakeQueue()
}

// RunFrom is Run with an explicit seed set, for callers (OMFWD) that know
// exactly which nodes may satisfy the push condition; it avoids the O(n)
// scan. Seeds that do not satisfy the condition are pushed anyway when
// force is true (Algorithm 4 pushes every initially enqueued node).
//
// done (a query context's Done channel, nil = never) cancels the drain at
// its next amortized check, and RunFrom then reports true. Every push
// preserves the forward-push invariant, so the interrupted state is a
// valid underestimate whose error is bounded by the remaining residue sum.
//
// denseMass > 0 arms the dense-sweep backend on a pooled State (Track and
// UseScratch both set): once the queue's pending out-edge mass reaches
// denseMass, the drain hands the state to powerpush.Sweep until the
// frontier thins again (see drainDense). Searches that never reach it, and
// every search with denseMass ≤ 0, run the plain queue drain.
func RunFrom(g *graph.Graph, alpha, rmax float64, st *State, seeds []int32, force bool, done <-chan struct{}, denseMass int) (aborted bool) {
	st.seed(g, rmax, seeds, force)
	return st.drain(g, alpha, rmax, done, denseMass)
}

// seed enqueues the initial work set: every seed above the push threshold,
// or (force) every seed with any residue — Algorithm 4 pushes each
// initially enqueued node regardless of threshold. Restricted nodes never
// enqueue.
func (st *State) seed(g *graph.Graph, rmax float64, seeds []int32, force bool) {
	if force {
		for _, v := range seeds {
			if st.Residue[v] > 0 && st.mayPush(v) {
				st.enqueue(v)
			}
		}
		return
	}
	for _, v := range seeds {
		if satisfies(g, rmax, st.Residue[v], v) && st.mayPush(v) {
			st.enqueue(v)
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

// queued reports whether v is already in the work queue. The drain hot
// loops check it before the push condition: a stamp load short-circuits
// the OutDegree lookup and threshold compare for the common already-queued
// neighbour.
func (st *State) queued(v int32) bool {
	if st.queueMarks != nil {
		return st.queueMarks.Has(v)
	}
	return st.inQueue[v]
}

// enqueue adds v to the work queue unless it is already queued.
func (st *State) enqueue(v int32) {
	if st.queueMarks != nil {
		if st.queueMarks.Mark(v) {
			st.queue = append(st.queue, v)
		}
		return
	}
	if !st.inQueue[v] {
		st.inQueue[v] = true
		st.queue = append(st.queue, v)
	}
}

func (st *State) dequeued(v int32) {
	if st.queueMarks != nil {
		st.queueMarks.Unmark(v)
		return
	}
	st.inQueue[v] = false
}

// touch records a Reserve/Residue write for pooled callers.
func (st *State) touch(v int32) {
	if st.Track != nil {
		st.Track.Mark(v)
	}
}

// cancelCheckMask amortizes the done-channel poll in drain to one
// non-blocking receive per 256 dequeues; with a nil done the check is a
// single predictable branch.
const cancelCheckMask = 255

// drain processes the queue until empty (Definition 7's push operation).
// The queue is consumed by index rather than re-slicing so the buffer's
// full capacity survives for reuse via TakeQueue. It reports whether the
// done channel cut the drain short.
//
// It dispatches between two bodies of the same loop: drainDense for the
// pooled configuration (Track and queueMarks both set — how every
// core-solver push phase runs) and drainGeneric for standalone States. The
// split exists because the dispatch branches ("is a dirty set attached?
// which queue bookkeeping?") would otherwise run per edge of the hottest
// loop in the repository; hoisting them out is worth ~10% of whole-query
// latency. An unarmed sweep (denseMass ≤ 0) becomes a threshold of
// math.MaxInt, which the pending out-edge mass never reaches; 0 would
// start a sweep at once.
func (st *State) drain(g *graph.Graph, alpha, rmax float64, done <-chan struct{}, denseMass int) (aborted bool) {
	if st.Track != nil && st.queueMarks != nil {
		if denseMass <= 0 {
			denseMass = math.MaxInt
		}
		return st.drainDense(g, alpha, rmax, done, denseMass)
	}
	return st.drainGeneric(g, alpha, rmax, done)
}

// drainGeneric is drain's loop for standalone States (no dirty tracking
// and/or dense []bool queue bookkeeping). Keep in lockstep with drainDense's
// queue loop: below its sweep threshold the two push the same nodes in the
// same order and produce the same bits.
func (st *State) drainGeneric(g *graph.Graph, alpha, rmax float64, done <-chan struct{}) (aborted bool) {
	for head := 0; head < len(st.queue); head++ {
		if done != nil && head&cancelCheckMask == 0 {
			select {
			case <-done:
				st.queue = st.queue[:0]
				return true
			default:
			}
		}
		v := st.queue[head]
		st.dequeued(v)
		rv := st.Residue[v]
		if rv == 0 {
			continue
		}
		st.touch(v)
		st.Residue[v] = 0
		st.Pushes++
		d := g.OutDegree(v)
		if d == 0 {
			// Dead-end semantics: the walk stops here with certainty.
			st.Reserve[v] += rv
			continue
		}
		st.Reserve[v] += alpha * rv
		share := (1 - alpha) * rv / float64(d)
		for _, w := range g.Out(v) {
			st.touch(w)
			st.Residue[w] += share
			if !st.queued(w) && st.mayPush(w) && satisfies(g, rmax, st.Residue[w], w) {
				st.enqueue(w)
			}
		}
	}
	st.queue = st.queue[:0]
	return false
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
	st := NewState(g.N(), src)
	Run(g, p.Alpha, rmax, st)
	return st.Reserve, nil
}
