package forward

import (
	"resacc/internal/algo/powerpush"
	"resacc/internal/graph"
	"resacc/internal/ws"
)

// cancelCheckMask amortizes the done-channel poll in drainDense to one
// non-blocking receive per 256 dequeues; with a nil done the check is a
// single predictable branch.
const cancelCheckMask = 255

// drainDense processes w's queue until empty (Definition 7's push
// operation) and reports whether the done channel cut it short. Every
// touch is recorded in w.Dirty and queue membership lives in the
// generation-stamped w.InQueue. The bookkeeping pointers and the vectors
// are hoisted into locals — the compiler cannot prove that writes through
// the residue slice don't alias the workspace's own fields, so field
// accesses would reload per edge. The queue stays in w.Queue: held in a
// local slice as well, it measured about 10% slower on the queue-only
// drain (BenchmarkHHopFWDPhaseNoSweep), the extra live registers costing
// more than the reloads. It is consumed by index rather than re-slicing
// and left empty at every return, so its capacity survives for the next
// search.
//
// Push eligibility (mayPush) is checked at dequeue time rather than per
// arriving edge: an ineligible node (the h-HopFWD source or a frontier
// node outside the subgraph) may enter the queue but is discarded when
// popped, before its residue is disturbed. The sequence of pushes — and
// therefore every reserve/residue value — is bit-identical to checking it
// per edge; what moves is the cost, from one restriction stamp load per
// edge of the hottest loop to one check per (much rarer) dequeue.
//
// The loop also tracks the queue's pending out-edge mass incrementally and,
// when that mass reaches denseMass, stops chasing the frontier through the
// queue — at that density the queue's per-edge bookkeeping and scattered
// access order lose to plain CSR-ordered sweeps. Escalation flushes the
// queue, marks the whole range dirty once (a sweep may write any slot), and
// runs powerpush.Sweep with the same eligibility data (restrict/skip) until
// a round's pushed mass falls back under denseMass; the surviving
// above-threshold nodes are collected into the queue and the loop resumes.
// If the survivors' mass is still over the bar (a sweep exits on its *last
// round's* mass, which does not bound the frontier it leaves), the loop just
// escalates again.
//
// Each sweep push is the same Definition 7 operation, so the drain still
// terminates at the common quiescence condition and every downstream bound
// (r_sum walk budget, ε/δ guarantee, degraded-result residual) is
// unchanged; only float summation order differs from the queue alone.
// Aborts mid-sweep are as safe as mid-drain: the queue was already flushed
// and the half-swept state preserves the push invariant.
func (st *State) drainDense(g *graph.Graph, alpha, rmax float64, w *ws.Workspace, done <-chan struct{}, denseMass int) (aborted bool) {
	track, qm := &w.Dirty, &w.InQueue
	restrict, skip, hasSkip := st.restrict, st.skip, st.hasSkip
	reserve, residue := w.Reserve, w.Residue
	sweepSkip := int32(-1)
	if hasSkip {
		sweepSkip = skip
	}
	n := int32(g.N())
	pending := 0
	for _, v := range w.Queue {
		pending += cost(g, v)
	}
	var pushes int64
	for head := 0; head < len(w.Queue); head++ {
		if pending >= denseMass {
			for _, v := range w.Queue[head:] {
				qm.Unmark(v)
			}
			w.Queue = w.Queue[:0]
			track.MarkAll(int(n))
			st.Pushes += pushes
			pushes = 0
			sw, ab := powerpush.Sweep(g, alpha, rmax, reserve, residue, restrict, sweepSkip, denseMass, done)
			st.Pushes += sw.Pushes
			st.Sweeps += sw.Sweeps
			if ab {
				return true
			}
			// Requeue the survivors. Ineligible nodes are filtered here
			// rather than at dequeue (the queue loop admits then discards
			// them); same outcome, and pending only ever counts real work.
			pending = 0
			for v := int32(0); v < n; v++ {
				rv := residue[v]
				if rv == 0 || (hasSkip && v == skip) {
					continue
				}
				if restrict != nil && !restrict.Has(v) {
					continue
				}
				if satisfies(g, rmax, rv, v) && qm.Mark(v) {
					w.Queue = append(w.Queue, v)
					pending += cost(g, v)
				}
			}
			head = -1 // restart over the fresh queue
			continue
		}
		if done != nil && head&cancelCheckMask == 0 {
			select {
			case <-done:
				st.Pushes += pushes
				w.Queue = w.Queue[:0]
				return true
			default:
			}
		}
		v := w.Queue[head]
		qm.Unmark(v)
		d := g.OutDegree(v)
		pending -= max(d, 1) // cost(g, v); d is reused by the push below
		if hasSkip && v == skip {
			continue
		}
		if restrict != nil && !restrict.Has(v) {
			continue
		}
		rv := residue[v]
		if rv == 0 {
			continue
		}
		track.Mark(v)
		residue[v] = 0
		pushes++
		if d == 0 {
			// Dead-end semantics: the walk stops here with certainty.
			reserve[v] += rv
			continue
		}
		reserve[v] += alpha * rv
		share := (1 - alpha) * rv / float64(d)
		for _, u := range g.Out(v) {
			// A non-zero slot is marked already: every write that makes a
			// slot non-zero marks it, and MarkAll precedes every sweep.
			if residue[u] == 0 {
				track.Mark(u)
			}
			residue[u] += share
			if qm.Has(u) {
				continue
			}
			// satisfies(g, rmax, residue[u], u), reading the degree once
			// for both the threshold and pending: rmax·1 is exactly rmax.
			if c := cost(g, u); residue[u] >= rmax*float64(c) && qm.Mark(u) {
				w.Queue = append(w.Queue, u)
				pending += c
			}
		}
	}
	st.Pushes += pushes
	w.Queue = w.Queue[:0]
	return false
}

// cost is a node's push-cost proxy: its out-edge count, floored at 1 so
// dead ends still count as work.
func cost(g *graph.Graph, v int32) int {
	if d := g.OutDegree(v); d > 0 {
		return d
	}
	return 1
}
