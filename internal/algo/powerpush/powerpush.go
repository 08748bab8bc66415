// Package powerpush implements the unified power-iteration + forward-push
// drain of Wu & Wei (arXiv:2101.03652): when the set of nodes above the
// push threshold is dense, the queue-based local drain degenerates — its
// per-edge bookkeeping (queue-membership stamps, dirty marks, threshold
// re-checks on every arriving edge) costs several memory touches per edge,
// and the FIFO order scatters accesses across the residue vector. A
// power-iteration-style whole-range sweep does the same pushes as plain
// sequential passes over the CSR arrays: each round scans the nodes in id
// order and pushes every node currently above the threshold, in place.
//
// The in-place (Gauss–Seidel) update is deliberate: residue pushed to a
// node later in the scan order is re-pushed within the same round, so mass
// cascades forward through each sweep rather than waiting for the next
// round as a Jacobi two-vector iteration would. Every individual push is
// the standard Definition 7 push, so the forward-push invariant
// π(s,t) = reserve[t] + Σ_v residue[v]·π(v,t) holds at every step, and a
// sweep that runs to quiescence terminates in exactly the same state
// family as the queue drain: no eligible node satisfies the push
// condition. Reserve values differ from the queue drain only in float
// summation order; the residual bound — which is what the ResAcc theory
// consumes — is identical.
//
// The sweep is adaptive per round: it reports back to the caller (who
// falls back to the queue-based drain) as soon as a round's pushed
// out-edge mass drops below exitMass, because scanning the whole range to
// find a thin frontier is exactly the regime where the local queue wins.
package powerpush

import (
	"resacc/internal/algo"
	"resacc/internal/graph"
	"resacc/internal/ws"
)

// Stats summarises one Sweep call.
type Stats struct {
	// Sweeps is the number of whole-range rounds executed (including the
	// final, below-threshold one).
	Sweeps int64
	// Pushes is the number of push operations performed across all rounds.
	Pushes int64
}

// sweepCheckMask amortizes the done-channel poll to one non-blocking
// receive per 4096 scanned nodes, mirroring the walk loops' cadence.
const sweepCheckMask = 4095

// Sweep runs whole-range push rounds over reserve/residue until quiescence,
// until a round's pushed out-edge mass falls below exitMass (≤ 0 = run to
// quiescence), or until done fires. Eligibility matches the forward
// engine's: skip (when ≥ 0) never pushes, and with a non-nil restrict only
// members push — receiving residue is never restricted. The caller owns
// dirty tracking; a whole-range sweep may write any slot, so callers on a
// pooled workspace mark the full range once (ws.Marks.MarkAll) instead of
// paying a per-edge mark here. It reports true when done cut the sweep
// short; the half-swept state still satisfies the push invariant at every
// node.
func Sweep(g *graph.Graph, alpha, rmax float64, reserve, residue []float64,
	restrict *ws.Marks, skip int32, exitMass int, done <-chan struct{}) (Stats, bool) {
	n := int32(g.N())
	var st Stats
	for {
		pushedMass := 0
		var pushes int64
		for v := int32(0); v < n; v++ {
			if done != nil && v&sweepCheckMask == 0 {
				select {
				case <-done:
					st.Sweeps++
					st.Pushes += pushes
					return st, true
				default:
				}
			}
			rv := residue[v]
			if rv == 0 || v == skip {
				continue
			}
			if restrict != nil && !restrict.Has(v) {
				continue
			}
			d := g.OutDegree(v)
			if d == 0 {
				// Dead-end semantics: the walk stops here with certainty.
				if rv < rmax {
					continue
				}
				reserve[v] += rv
				residue[v] = 0
				pushes++
				pushedMass++
				continue
			}
			if rv < rmax*float64(d) {
				continue
			}
			residue[v] = 0
			reserve[v] += alpha * rv
			share := (1 - alpha) * rv / float64(d)
			for _, w := range g.Out(v) {
				residue[w] += share
			}
			pushes++
			pushedMass += d
		}
		st.Sweeps++
		st.Pushes += pushes
		if pushes == 0 || (exitMass > 0 && pushedMass < exitMass) {
			return st, false
		}
	}
}

// Solver is the standalone whole-graph power+push baseline: unit residue at
// the source swept to quiescence at a fixed threshold. Like the FWD
// baseline it reports the reserves and ignores the leftover residues, so
// its additive error at threshold r is bounded by the final Σ residue
// (≤ r·(n+m) in the worst case, far smaller in practice).
type Solver struct {
	// RMax overrides Params.RMaxF when non-zero.
	RMax float64
}

// Name implements algo.SingleSource.
func (Solver) Name() string { return "PowerPush" }

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
	reserve := make([]float64, g.N())
	residue := make([]float64, g.N())
	residue[src] = 1
	Sweep(g, p.Alpha, rmax, reserve, residue, nil, -1, 0, nil)
	return reserve, nil
}
