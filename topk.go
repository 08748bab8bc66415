package resacc

import (
	"context"
	"time"

	"resacc/internal/core"
)

// TopK is the answer to a top-k query: the ranking plus how it was
// produced. Level and Delta say which guarantee the ranking carries (see
// QueryTopK); the degradation fields mirror Result's and are set when the
// query's deadline cut the final round short.
type TopK struct {
	// Ranked is the top-k nodes in decreasing score order.
	Ranked []Ranked
	// Level is the precision level (NScale walk-budget scale) of the round
	// that produced the ranking: target/8, /4, /2 or the target NScale
	// itself. A round that leaves no residue is exact (it walks nothing,
	// and a later round would return the same scores), so it ends the loop
	// and reports the target NScale. 0 for a custom-Compute engine.
	Level float64
	// Delta is the threshold δ′ = δ/Level the ranking is certified at:
	// every node with π > Delta has |π̂−π| ≤ ε·π, with failure probability
	// p_f. When the loop stopped early, every ranked node also has
	// π > Delta. 0 when Degraded (Bound applies instead) and for a
	// custom-Compute engine.
	Delta float64
	// Degraded reports the ranking came from a deadline-truncated round;
	// scores are underestimates within Bound (see Result.Degraded).
	Degraded bool
	// Bound is the additive score error bound when Degraded.
	Bound float64
	// Phase names the interrupted phase ("hhopfwd", "omfwd", "remedy")
	// when Degraded, "" otherwise.
	Phase string
}

// QueryTopK returns the k nodes most relevant to source with a certified
// early stop. A round at walk-budget scale c is ResAcc at δ′ = δ/c, so
// the query runs rounds at NScale target/8, /4, /2 and target (target is
// p.NScale, default 1), each at failure probability p_f/4, and returns at
// the first round whose k-th estimate exceeds (1+ε)·δ′. That estimate
// proves every returned node has π > δ′, so each carries Definition 1's
// ε-relative bound at δ′. On a clear ranking the first round certifies
// and the query costs one eighth-budget ResAcc run; a source that reaches
// fewer than k nodes never certifies and runs all four rounds, the last
// at the full budget. A round whose pushes leave no residue (a dead-end
// source, say) is exact and ends the loop at once. The returned level is
// the final round's scale, or the target for an exact round, and
// δ′ = p.Delta/level.
//
// This is an extension beyond the paper, which targets the full
// single-source vector. The stop rule is FORA's top-k variant (Wang et
// al., arXiv:1908.10583).
func QueryTopK(g *Graph, source int32, k int, p Params) ([]Ranked, float64, error) {
	tk, err := QueryTopKCtx(context.Background(), g, source, k, p)
	return tk.Ranked, tk.Level, err
}

// QueryTopKCtx is QueryTopK under a context: a deadline stops the current
// round at its next amortized check and the ranking computed from the
// partial scores is returned with the degradation fields set.
func QueryTopKCtx(ctx context.Context, g *Graph, source int32, k int, p Params) (TopK, error) {
	return queryTopKSolverOn(ctx, g, source, source, k, p, core.Solver{}, nil)
}

// queryTopKSolverOn is the spine under QueryTopKCtx and the engine's
// top-k compute, mirroring querySolverOn: rounds run on g with internal
// source src, while the ranking and the events passed to observe (nil =
// none; one per round, failed rounds included) speak the caller's source
// id. A relabeling engine passes a solver whose ScoreRemap translates each
// round's scores before ranking, so the ranked node ids come out
// caller-space with no extra pass here. A degraded round ends the loop
// with that round's ranking and residual bound.
func queryTopKSolverOn(ctx context.Context, g *Graph, src, source int32, k int, p Params, s core.Solver, observe QueryHook) (TopK, error) {
	ans, err := s.TopK(ctx, g, src, k, p, func(start time.Time, st core.Stats, err error) {
		if observe != nil {
			observe(QueryEvent{Source: source, Start: start, Duration: time.Since(start), Stats: st, Err: err})
		}
	})
	if err != nil {
		return TopK{}, err
	}
	tk := TopK{Ranked: make([]Ranked, len(ans.Nodes)), Level: ans.Level, Delta: ans.Delta}
	for i, v := range ans.Nodes {
		tk.Ranked[i] = Ranked{Node: v, Score: ans.Scores[v]}
	}
	if st := ans.Stats; st.Degraded {
		tk.Degraded, tk.Bound, tk.Phase = true, st.ResidualBound, st.DegradedPhase.String()
	}
	return tk, nil
}
