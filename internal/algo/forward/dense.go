package forward

import (
	"resacc/internal/algo/powerpush"
	"resacc/internal/graph"
)

// drainDense is drain's loop for the pooled configuration: every touch is
// recorded in Track and queue membership lives in the generation-stamped
// queueMarks, unconditionally. The bookkeeping pointers are hoisted into
// locals — the compiler cannot prove that writes through the residue slice
// don't alias the State's own fields, so field accesses would reload per
// edge.
//
// Unlike drainGeneric, push eligibility (mayPush) is checked at dequeue
// time rather than per arriving edge: an ineligible node (the h-HopFWD
// source or a frontier node outside the subgraph) may enter the queue but
// is discarded when popped, before its residue is disturbed. The sequence
// of pushes — and therefore every reserve/residue value — is bit-identical
// either way; what moves is the cost, from one restriction stamp load per
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
// Below the threshold the push sequence — and therefore every reserve and
// residue bit — is identical to drainGeneric's. Above it, each sweep push is
// the same Definition 7 operation, so the drain still terminates at the
// common quiescence condition and every downstream bound (r_sum walk budget,
// ε/δ guarantee, degraded-result residual) is unchanged; only float
// summation order differs. Aborts mid-sweep are as safe as mid-drain: the
// queue was already flushed and the half-swept state preserves the push
// invariant.
func (st *State) drainDense(g *graph.Graph, alpha, rmax float64, done <-chan struct{}, denseMass int) (aborted bool) {
	track, qm := st.Track, st.queueMarks
	restrict, skip, hasSkip := st.restrict, st.skip, st.hasSkip
	reserve, residue := st.Reserve, st.Residue
	sweepSkip := int32(-1)
	if hasSkip {
		sweepSkip = skip
	}
	n := int32(g.N())
	pending := 0
	for _, v := range st.queue {
		pending += cost(g, v)
	}
	var pushes int64
	for head := 0; head < len(st.queue); head++ {
		if pending >= denseMass {
			for _, v := range st.queue[head:] {
				qm.Unmark(v)
			}
			st.queue = st.queue[:0]
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
					st.queue = append(st.queue, v)
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
				st.queue = st.queue[:0]
				return true
			default:
			}
		}
		v := st.queue[head]
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
		for _, w := range g.Out(v) {
			// A non-zero slot is marked already: every write that makes a
			// slot non-zero marks it, and MarkAll precedes every sweep.
			if residue[w] == 0 {
				track.Mark(w)
			}
			residue[w] += share
			if qm.Has(w) {
				continue
			}
			// satisfies(g, rmax, residue[w], w), reading the degree once
			// for both the threshold and pending: rmax·1 is exactly rmax.
			if c := cost(g, w); residue[w] >= rmax*float64(c) && qm.Mark(w) {
				st.queue = append(st.queue, w)
				pending += c
			}
		}
	}
	st.Pushes += pushes
	st.queue = st.queue[:0]
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
