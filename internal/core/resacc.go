// Package core implements ResAcc, the Residue-Accumulated approach of the
// paper — the primary contribution being reproduced. A query runs three
// phases (Fig. 2):
//
//  1. h-HopFWD (Algorithm 3): forward push inside the h-hop induced
//     subgraph of the source, with the looping cascades at the source
//     collapsed into a closed-form geometric rescaling.
//  2. OMFWD (Algorithm 4): one more forward search seeded by the large
//     residues accumulated on layer L_{h+1}.
//  3. Remedy (Algorithm 2 lines 5-17): FORA-style random walks from the
//     remaining residues.
//
// All three phases run on a pooled per-query workspace (package ws), so a
// steady-state query performs no O(n) allocation or clearing: vectors are
// recycled and reset sparsely via generation-stamped touched-lists.
//
// The Solver exposes the ablation switches of Appendix K (No-Loop, No-SG,
// No-OFD) and per-phase statistics matching Appendix J's breakdown.
package core

import (
	"context"
	"fmt"
	"time"

	"resacc/internal/algo"
	"resacc/internal/crash"
	"resacc/internal/faultinject"
	"resacc/internal/graph"
	"resacc/internal/ws"
)

// Variant selects the full algorithm or one of the paper's ablations
// (Appendix K).
type Variant int

const (
	// Full is ResAcc as published.
	Full Variant = iota
	// NoLoop replaces the accumulating-loop strategy with plain forward
	// search inside the h-hop subgraph ("No-Loop-ResAcc").
	NoLoop
	// NoSubgraph runs the accumulating loop over the whole graph instead
	// of the h-hop subgraph ("No-SG-ResAcc"); OMFWD then has no frontier
	// to seed and is skipped.
	NoSubgraph
	// NoOMFWD skips the OMFWD phase ("No-OFD-ResAcc"): the remedy phase
	// works directly on h-HopFWD's residues.
	NoOMFWD
)

// String returns the ablation's name as used in Appendix K.
func (v Variant) String() string {
	switch v {
	case NoLoop:
		return "No-Loop-ResAcc"
	case NoSubgraph:
		return "No-SG-ResAcc"
	case NoOMFWD:
		return "No-OFD-ResAcc"
	default:
		return "ResAcc"
	}
}

// Phase identifies where in the three-phase pipeline a query was when it
// was cut short. The zero value means the query ran to completion.
type Phase int

const (
	// PhaseNone means no phase was interrupted.
	PhaseNone Phase = iota
	// PhaseHopFWD is the h-HopFWD push phase (Algorithm 3).
	PhaseHopFWD
	// PhaseOMFWD is the One-More Forward push phase (Algorithm 4).
	PhaseOMFWD
	// PhaseRemedy is the random-walk remedy phase (Algorithm 2).
	PhaseRemedy
)

// String returns the phase's name in the lowercase form used as a metric
// label value.
func (p Phase) String() string {
	switch p {
	case PhaseHopFWD:
		return "hhopfwd"
	case PhaseOMFWD:
		return "omfwd"
	case PhaseRemedy:
		return "remedy"
	default:
		return "none"
	}
}

// Stats records what one query did, phase by phase (paper Appendix J).
type Stats struct {
	// Durations of the three phases.
	HopFWD, OMFWD, Remedy time.Duration

	// HopPushes and OMFWDPushes count forward push operations.
	HopPushes, OMFWDPushes int64
	// SubgraphSize is |V_{h-hop}(s)| and FrontierSize is |L_{(h+1)-hop}(s)|.
	SubgraphSize, FrontierSize int
	// R1 is the source residue after the accumulating phase; T and S are
	// the loop count and geometric scaler of the updating phase.
	R1 float64
	T  int
	S  float64
	// RSumAfterHop and RSumAfterOMFWD are Σr after phases 1 and 2; the
	// latter is the r_sum that sizes the remedy walk count.
	RSumAfterHop, RSumAfterOMFWD float64
	// Walks is the number of remedy random walks simulated.
	Walks int64
	// HopSweeps and OMFWDSweeps count whole-range dense-sweep rounds run by
	// the powerpush backend per push phase (see Solver.DenseSwitch); zero
	// when the drains stayed on the queue.
	HopSweeps, OMFWDSweeps int64

	// Degraded reports that the query's context fired before the pipeline
	// finished and the reserves are an anytime underestimate rather than
	// the converged answer. Every push and every walk preserves the FORA
	// invariant π(s,t) = π̂(t) + Σ_v r(v)·π(v,t), so the partial result is
	// still meaningful: π̂(t) ≤ π(s,t) ≤ π̂(t) + ResidualBound for every t
	// when the remedy phase never ran, and the same bound holds up to the
	// usual (ε,δ,p_f) randomized guarantee on the walked portion otherwise.
	Degraded bool
	// DegradedPhase is the phase the deadline interrupted.
	DegradedPhase Phase
	// ResidualBound is the unconverted residue mass Σ_v r(v) at the moment
	// the query stopped — a uniform additive error bound on every score.
	ResidualBound float64
}

// Total returns the summed phase time.
func (s Stats) Total() time.Duration { return s.HopFWD + s.OMFWD + s.Remedy }

// String renders the one-line phase summary printed by `rwr -stats` and
// attached to query traces: all three phase durations plus the counters
// that explain them.
func (s Stats) String() string {
	line := fmt.Sprintf(
		"h-HopFWD=%v (pushes=%d |V_h|=%d |L_h+1|=%d T=%d) OMFWD=%v (pushes=%d) Remedy=%v (walks=%d r_sum=%.3g) total=%v",
		s.HopFWD.Round(time.Microsecond), s.HopPushes, s.SubgraphSize, s.FrontierSize, s.T,
		s.OMFWD.Round(time.Microsecond), s.OMFWDPushes,
		s.Remedy.Round(time.Microsecond), s.Walks, s.RSumAfterOMFWD,
		s.Total().Round(time.Microsecond))
	if s.HopSweeps > 0 || s.OMFWDSweeps > 0 {
		line += fmt.Sprintf(" dense-push (sweeps=%d+%d)", s.HopSweeps, s.OMFWDSweeps)
	}
	if s.Degraded {
		line += fmt.Sprintf(" DEGRADED (phase=%s bound=%.3g)", s.DegradedPhase, s.ResidualBound)
	}
	return line
}

// defaultPool backs Solvers that were not handed an explicit pool, so even
// ad-hoc Query calls recycle workspaces process-wide.
var defaultPool = ws.NewPool()

// Solver answers SSRWR queries with ResAcc.
type Solver struct {
	// Variant selects the full algorithm (zero value) or an ablation.
	Variant Variant
	// DenseSwitch sets the dense-sweep switchover threshold as a fraction
	// of |E|: when the push drain's pending out-edge mass crosses
	// DenseSwitch·|E|, the push phases escalate to CSR-ordered whole-range
	// sweeps (package powerpush) and fall back to the queue once the
	// frontier thins again. Zero means the default fraction
	// (DefaultDenseSwitch = 1/8); negative disables the sweep backend
	// entirely. Below the threshold results are bit-identical to the plain
	// drain; past it they are residue-bound-equivalent (same quiescence
	// condition and error bounds, different float summation order).
	DenseSwitch float64
	// ScoreRemap, when non-nil, is the relabeled→original id permutation
	// (graph.RelabelByDegree's toOld) applied as scores are extracted: the
	// query runs in the relabeled id space and the answer comes out in the
	// caller's original space at no extra pass. Only Query/QueryCtx apply
	// it; QueryWS leaves w.Reserve in the graph's own id space.
	ScoreRemap []int32
	// Pool supplies the per-query workspace. Nil uses a package-wide
	// default pool; the serving engine injects its own so graph swaps can
	// invalidate scratch together with the result cache.
	Pool *ws.Pool
}

// Name implements algo.SingleSource.
func (s Solver) Name() string { return s.Variant.String() }

// SingleSource implements algo.SingleSource.
func (s Solver) SingleSource(g *graph.Graph, src int32, p algo.Params) ([]float64, error) {
	pi, _, err := s.Query(g, src, p)
	return pi, err
}

func (s Solver) pool() *ws.Pool {
	if s.Pool != nil {
		return s.Pool
	}
	return defaultPool
}

// DefaultDenseSwitch is the fraction of |E| at which the push drain
// escalates to dense sweeps when Solver.DenseSwitch is zero. At an eighth
// of the graph's out-edge mass pending, the queue's per-edge bookkeeping
// reliably loses to CSR-ordered whole-range rounds (see BENCH_resacc.json).
const DefaultDenseSwitch = 0.125

// pushConfig is the dense-sweep mass both push phases run under
// (forward.State.RunFrom's denseMass; 0 = queue only). It is graph-dependent:
// the threshold is a fraction of this graph's edge count.
func (s Solver) pushConfig(g *graph.Graph) int {
	frac := s.DenseSwitch
	if frac == 0 {
		frac = DefaultDenseSwitch
	}
	if frac < 0 {
		return 0
	}
	return int(frac * float64(g.M()))
}

// Query answers the SSRWR query and returns the per-phase statistics. It
// borrows a workspace from the solver's pool for the duration of the query;
// the returned score slice is freshly allocated and owned by the caller.
func (s Solver) Query(g *graph.Graph, src int32, p algo.Params) ([]float64, Stats, error) {
	return s.QueryCtx(context.Background(), g, src, p)
}

// QueryCtx is Query under a context. A deadline or cancellation does not
// abandon the query: the phases stop at their next amortized check and the
// reserves accumulated so far are extracted as an anytime answer, with
// Stats.Degraded/DegradedPhase/ResidualBound describing how far the query
// got and how wrong the scores can be (see Stats.Degraded). The caller
// decides whether a degraded answer is worth serving.
//
// A panic during the computation (including one in the remedy walks) is
// converted into a *crash.PanicError and the borrowed workspace is
// discarded instead of returned to the pool — its generation-stamped
// bookkeeping may be mid-update and would poison later queries.
func (s Solver) QueryCtx(ctx context.Context, g *graph.Graph, src int32, p algo.Params) (pi []float64, stats Stats, err error) {
	if err := p.Validate(g); err != nil {
		return nil, stats, err
	}
	if err := algo.CheckSource(g, src); err != nil {
		return nil, stats, err
	}
	pool := s.pool()
	w := pool.Get(g.N())
	defer func() {
		if v := recover(); v != nil {
			pi, stats = nil, Stats{}
			err = crash.Capture("core: resacc query", v)
			return
		}
		pool.Put(w)
	}()
	stats = s.QueryWSCtx(ctx, g, src, p, w)
	return w.ExtractScoresRemapped(s.ScoreRemap), stats, nil
}

// QueryWS runs the three phases on the caller-provided workspace and leaves
// the answer in w.Reserve (valid until the workspace's next reset). Inputs
// are assumed valid — Query performs the validation — and the call itself
// allocates nothing in steady state, which is what the allocation
// regression tests pin down. Results are identical whether w is fresh or
// recycled.
func (s Solver) QueryWS(g *graph.Graph, src int32, p algo.Params, w *ws.Workspace) Stats {
	return s.QueryWSCtx(context.Background(), g, src, p, w)
}

// QueryWSCtx is QueryWS under a context. The context's Done channel is
// threaded through all three phases and polled at amortized intervals
// (every cancelCheckMask+1 pushes, every walkCheckMask+1 walks), so a
// background context costs one predictable branch per iteration and the
// call still allocates nothing in steady state. For a context that never
// fires the result is bit-identical to QueryWS.
//
// On deadline/cancellation the current phase stops at a push/walk boundary
// — where the FORA invariant holds — later phases are skipped, and the
// stats report Degraded with the live residue sum as ResidualBound.
// Panics are NOT recovered here: the caller owns the workspace and must
// decide its fate (QueryCtx discards it).
func (s Solver) QueryWSCtx(ctx context.Context, g *graph.Graph, src int32, p algo.Params, w *ws.Workspace) Stats {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	faultinject.Hit("core.query.start")
	var stats Stats

	// Phase 1: h-HopFWD (or its ablated replacements).
	start := time.Now()
	denseMass := s.pushConfig(g)
	var hop hopInfo
	switch s.Variant {
	case NoLoop:
		hop = runRestrictedForward(g, src, p.Alpha, p.RMaxHop, p.H, w, denseMass, done)
	case NoSubgraph:
		hop = runHHopFWD(g, src, p.Alpha, p.RMaxHop, p.H, true, w, denseMass, done)
	default:
		hop = runHHopFWD(g, src, p.Alpha, p.RMaxHop, p.H, false, w, denseMass, done)
	}
	stats.HopFWD = time.Since(start)
	stats.HopPushes = hop.pushes
	stats.HopSweeps = hop.sweeps
	stats.R1, stats.T, stats.S = hop.r1, hop.t, hop.s
	stats.SubgraphSize = hop.subSize
	stats.FrontierSize = len(hop.frontier)
	stats.RSumAfterHop = w.SumResidue()
	if hop.aborted {
		stats.Degraded = true
		stats.DegradedPhase = PhaseHopFWD
		stats.ResidualBound = stats.RSumAfterHop
		return stats
	}

	// Phase 2: OMFWD.
	stats.RSumAfterOMFWD = stats.RSumAfterHop
	if s.Variant != NoOMFWD && s.Variant != NoSubgraph {
		start = time.Now()
		om := runOMFWD(g, p.Alpha, p.RMaxF, w, hop.frontier, denseMass, done)
		stats.OMFWD = time.Since(start)
		stats.OMFWDPushes = om.pushes
		stats.OMFWDSweeps = om.sweeps
		stats.RSumAfterOMFWD = om.rsum
		if om.aborted {
			stats.Degraded = true
			stats.DegradedPhase = PhaseOMFWD
			stats.ResidualBound = stats.RSumAfterOMFWD
			return stats
		}
	}

	// Phase 3: remedy.
	faultinject.Hit("core.remedy.start")
	start = time.Now()
	rs := algo.Remedy(g, p, w, done)
	stats.Remedy = time.Since(start)
	stats.Walks = rs.Walks
	if rs.Aborted {
		stats.Degraded = true
		stats.DegradedPhase = PhaseRemedy
		stats.ResidualBound = rs.Remaining
	}
	return stats
}
