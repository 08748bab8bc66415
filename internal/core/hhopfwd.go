package core

import (
	"math"

	"resacc/internal/algo/forward"
	"resacc/internal/faultinject"
	"resacc/internal/graph"
	"resacc/internal/ws"
)

// hopInfo summarises the h-HopFWD phase (paper Algorithm 3). The reserve
// and residue vectors themselves live in the query's workspace; hopInfo
// carries only the scalars and the frontier view the later phases need.
type hopInfo struct {
	// frontier is L_{(h+1)-hop}(s): the nodes that receive pushed residue
	// but are not allowed to push, so their residue accumulates (§V). It
	// aliases the workspace's BFS order buffer and is valid until the
	// workspace's next reset.
	frontier []int32
	// subSize is |V_{h-hop}(s)|.
	subSize int

	pushes int64
	// sweeps counts the dense backend's whole-range rounds (zero when the
	// drain stayed on the queue).
	sweeps int64
	// Diagnostics from the updating phase.
	r1 float64 // residue of s after the accumulating phase
	t  int     // number of accumulating phases collapsed (T)
	s  float64 // geometric scaler (S)

	// aborted reports that the push loop stopped at a context
	// deadline/cancellation. The workspace then holds a valid intermediate
	// state — every push preserves the invariant
	// π(s,t) = reserve[t] + Σ_v residue[v]·π(v,t) — so the reserves are an
	// honest underestimate with additive error bounded by Σ residue.
	aborted bool
}

// cancelCheckMask amortizes cancellation polling in the push loops: the
// done channel is inspected once every cancelCheckMask+1 dequeues, so the
// steady-state cost is a counter test, not a channel operation per push.
const cancelCheckMask = 255

// pollDone is the amortized cancellation check: nil done (a background
// context) costs one predictable branch; a real deadline costs a
// non-blocking channel receive every cancelCheckMask+1 iterations.
func pollDone(done <-chan struct{}, iter int) bool {
	if done == nil || iter&cancelCheckMask != 0 {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// runHHopFWD executes Algorithm 3: the accumulating phase pushes residues
// inside the h-hop induced subgraph, never re-pushing at the source, and
// the updating phase collapses the T would-be "looping" cascades at s into
// one closed-form geometric rescaling. All state lives in w, which is reset
// here; every reserve/residue write is recorded in w.Dirty so the
// workspace's next reset is sparse.
//
// When wholeGraph is true the subgraph restriction is removed (every node
// may push, there is no frontier); this is the No-SG ablation of
// Appendix K. The ablation is a flag, not a filled membership vector: it
// pays neither the allocation nor the O(n) "everything is in the subgraph"
// memset the dense representation needed.
//
// The cascade runs on the forward drain (forward.State.RunFrom), which
// escalates to whole-range dense sweeps once its pending out-edge mass
// reaches denseMass (0 = queue only; see Solver.DenseSwitch).
//
// done, when non-nil, is the query context's cancellation channel; the
// push loop polls it at amortized intervals and stops early (info.aborted)
// when it fires, skipping the updating phase — the geometric rescaling is
// only valid at quiescence, while the raw reserve/residue state is valid
// at every push boundary.
func runHHopFWD(g *graph.Graph, src int32, alpha, rmaxHop float64, h int, wholeGraph bool, w *ws.Workspace, denseMass int, done <-chan struct{}) hopInfo {
	n := g.N()
	w.Reset(n)
	info := hopInfo{t: 1, s: 1}
	w.SetResidue(src, 1)
	faultinject.Hit("core.hhopfwd.start")
	if pollDone(done, 0) {
		info.aborted = true
		return info
	}

	var within []int32
	if wholeGraph {
		info.subSize = n
	} else {
		layers := graph.BFSLayersScratch(g, src, h+1, &w.Visited, w.Order, w.Start)
		w.Order, w.Start = layers.Order, layers.Start
		within = layers.Within(h)
		for _, v := range within {
			w.InSub.Add(v)
		}
		info.subSize = len(within)
		info.frontier = layers.Layer(h + 1)
	}

	// --- Accumulating phase ---------------------------------------------
	// Line 2: a single push at s. If s is a dead end the whole unit of mass
	// becomes reserve and we are done.
	dSrc := g.OutDegree(src)
	info.pushes++
	if dSrc == 0 {
		w.SetReserve(src, 1)
		w.SetResidue(src, 0)
		return info
	}
	w.SetReserve(src, alpha)
	w.SetResidue(src, 0)
	share := (1 - alpha) / float64(dSrc)
	for _, nb := range g.Out(src) {
		w.AddResidue(nb, share)
	}
	// Lines 3-7: push at subgraph nodes (never at s) until quiescent: the
	// forward drain, restricted to the subgraph members minus the source.
	var st forward.State
	if wholeGraph {
		st.RestrictTo(nil, src)
	} else {
		st.RestrictTo(&w.InSub, src)
	}
	info.aborted = st.RunFrom(g, alpha, rmaxHop, w, g.Out(src), false, done, denseMass)
	info.pushes += st.Pushes
	info.sweeps = st.Sweeps
	if info.aborted {
		// The updating phase's geometric rescaling models T further
		// accumulating phases run to quiescence; applied to a half-drained
		// queue it would scale mass that was never re-pushed. Leave the raw
		// (still invariant-preserving) state alone.
		return info
	}

	// --- Updating phase (lines 8-18) -------------------------------------
	info.r1 = w.Residue[src]
	info.t, info.s = 1, 1
	theta := rmaxHop * float64(dSrc)
	if info.r1 > 0 && info.r1 >= theta && info.r1 < 1 && theta < 1 {
		// T is the number of accumulating phases until the residue of s,
		// r1^T, falls below the push threshold θ (Appendix Q).
		info.t = int(math.Ceil(math.Log(theta) / math.Log(info.r1)))
		if info.t < 1 {
			info.t = 1
		}
		// Geometric series Σ_{i=1..T} r1^{i-1}. (The paper's closed form
		// has an off-by-one in the exponent; see DESIGN.md.)
		info.s = (1 - math.Pow(info.r1, float64(info.t))) / (1 - info.r1)
	}
	if info.s != 1 || info.t != 1 {
		rT := math.Pow(info.r1, float64(info.t))
		if wholeGraph {
			// Every node is "in the subgraph"; scaling the dirty slots
			// covers every non-zero entry (scaling a zero is a no-op).
			for _, v := range w.Dirty.Touched() {
				w.Reserve[v] *= info.s
				if v != src {
					w.Residue[v] *= info.s
				}
			}
		} else {
			for _, v := range within {
				w.Reserve[v] *= info.s
				if v != src {
					w.Residue[v] *= info.s
				}
			}
		}
		w.SetResidue(src, rT)
		for _, v := range info.frontier {
			// Frontier slots that never received residue stay zero; no
			// dirty mark needed for a 0·S write.
			w.Residue[v] *= info.s
		}
	}
	return info
}

// runRestrictedForward is the No-Loop ablation (Appendix K): plain forward
// search with threshold rmaxHop restricted to the h-hop subgraph, with the
// source pushing repeatedly like any other node (the looping phenomenon of
// §IV-A is incurred in full).
func runRestrictedForward(g *graph.Graph, src int32, alpha, rmaxHop float64, h int, w *ws.Workspace, denseMass int, done <-chan struct{}) hopInfo {
	n := g.N()
	w.Reset(n)
	info := hopInfo{t: 0, s: 1}
	w.SetResidue(src, 1)
	faultinject.Hit("core.hhopfwd.start")
	if pollDone(done, 0) {
		info.aborted = true
		return info
	}
	layers := graph.BFSLayersScratch(g, src, h+1, &w.Visited, w.Order, w.Start)
	w.Order, w.Start = layers.Order, layers.Start
	within := layers.Within(h)
	for _, v := range within {
		w.InSub.Add(v)
	}
	info.subSize = len(within)
	info.frontier = layers.Layer(h + 1)

	// Plain forward search on the engine, restricted to the subgraph; the
	// source pushes repeatedly like any other node (skip = -1).
	w.Seeds = append(w.Seeds[:0], src)
	var st forward.State
	st.RestrictTo(&w.InSub, -1)
	info.aborted = st.RunFrom(g, alpha, rmaxHop, w, w.Seeds, false, done, denseMass)
	info.pushes = st.Pushes
	info.sweeps = st.Sweeps
	info.r1 = w.Residue[src]
	return info
}
