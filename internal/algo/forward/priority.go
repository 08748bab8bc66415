package forward

import (
	"container/heap"

	"resacc/internal/graph"
	"resacc/internal/ws"
)

// RunPrioritized performs forward search from s on a reset workspace like
// RunWS but schedules pushes in decreasing order of r(v)/d_out(v) instead
// of FIFO, and returns the push count. Pushing the largest normalized
// residues first converts more mass per operation, which lowers the total
// push count on skewed graphs at the price of heap overhead per operation
// — the classic scheduling trade-off in local push methods. Both schedules
// terminate in states satisfying the same push-condition bound, so the
// accuracy of downstream phases is unchanged. The heap is kept in w.Queue
// and its membership in w.InQueue.
func RunPrioritized(g *graph.Graph, alpha, rmax float64, w *ws.Workspace, s int32) int64 {
	w.SetResidue(s, 1)
	w.InQueue.Clear()
	pq := &residueHeap{g: g, residue: w.Residue, items: w.Queue[:0]}
	if satisfies(g, rmax, 1, s) {
		w.InQueue.Mark(s)
		pq.items = append(pq.items, s)
	}
	var pushes int64
	for pq.Len() > 0 {
		v := heap.Pop(pq).(int32)
		w.InQueue.Unmark(v)
		rv := w.Residue[v]
		if rv == 0 || !satisfies(g, rmax, rv, v) {
			continue
		}
		// v is in w.Dirty already: the write that gave it residue marked it.
		w.Residue[v] = 0
		pushes++
		d := g.OutDegree(v)
		if d == 0 {
			w.Reserve[v] += rv
			continue
		}
		w.Reserve[v] += alpha * rv
		share := (1 - alpha) * rv / float64(d)
		for _, u := range g.Out(v) {
			w.AddResidue(u, share)
			if !w.InQueue.Has(u) && satisfies(g, rmax, w.Residue[u], u) {
				w.InQueue.Mark(u)
				heap.Push(pq, u)
			}
		}
	}
	w.Queue = pq.items[:0]
	return pushes
}

// residueHeap orders nodes by decreasing normalized residue. Residues
// change while nodes sit in the heap; the pop-side recheck in
// RunPrioritized keeps the schedule correct (a stale priority only costs
// ordering quality, never correctness).
type residueHeap struct {
	g       *graph.Graph
	residue []float64
	items   []int32
}

func (h *residueHeap) priority(v int32) float64 {
	d := h.g.OutDegree(v)
	if d == 0 {
		return h.residue[v]
	}
	return h.residue[v] / float64(d)
}

func (h *residueHeap) Len() int { return len(h.items) }

func (h *residueHeap) Less(i, j int) bool {
	return h.priority(h.items[i]) > h.priority(h.items[j])
}

func (h *residueHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

func (h *residueHeap) Push(x any) { h.items = append(h.items, x.(int32)) }

func (h *residueHeap) Pop() any {
	last := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return last
}
