package core

import (
	"slices"

	"resacc/internal/algo/forward"
	"resacc/internal/faultinject"
	"resacc/internal/graph"
	"resacc/internal/ws"
)

// omInfo summarises the OMFWD phase: push and dense-sweep counts, the
// post-phase residue sum (computed sparsely over the workspace's dirty
// set), and whether the done channel aborted the cascade mid-drain (the
// workspace then holds a valid intermediate state; see hopInfo.aborted).
type omInfo struct {
	pushes  int64
	sweeps  int64
	rsum    float64
	aborted bool
}

// runOMFWD executes the One-More Forward search (paper Algorithm 4): the
// frontier nodes L_{(h+1)-hop}(s), whose residues were deliberately left to
// accumulate during h-HopFWD, are pushed in decreasing order of residue,
// and the push cascade then proceeds anywhere in the graph under the
// (larger) threshold r_max^f. The cascade escalates to dense sweeps once
// its pending out-edge mass reaches denseMass (0 = queue only).
//
// The search runs entirely on the workspace: reserve/residue writes are
// tracked in w.Dirty and the queue bookkeeping borrows w.InQueue/w.Queue,
// so the phase allocates nothing in steady state.
func runOMFWD(g *graph.Graph, alpha, rmaxF float64, w *ws.Workspace, frontier []int32, denseMass int, done <-chan struct{}) omInfo {
	faultinject.Hit("core.omfwd.start")
	w.Seeds = w.Seeds[:0]
	for _, v := range frontier {
		if w.Residue[v] > 0 {
			w.Seeds = append(w.Seeds, v)
		}
	}
	slices.SortFunc(w.Seeds, func(a, b int32) int {
		ra, rb := w.Residue[a], w.Residue[b]
		switch {
		case ra > rb:
			return -1
		case ra < rb:
			return 1
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	})
	var st forward.State
	st.Reserve, st.Residue = w.Reserve, w.Residue
	st.Track = &w.Dirty
	st.UseScratch(&w.InQueue, w.Queue)
	aborted := forward.RunFrom(g, alpha, rmaxF, &st, w.Seeds, true, done, denseMass)
	w.Queue = st.TakeQueue()
	return omInfo{
		pushes:  st.Pushes,
		sweeps:  st.Sweeps,
		rsum:    st.ResidueSum(),
		aborted: aborted,
	}
}
