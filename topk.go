package resacc

import (
	"context"
	"fmt"
	"time"

	"resacc/internal/core"
)

// TopK is the answer to a top-k query: the ranking plus how it was
// produced. Level is the NScale precision the final round ran at (see
// QueryTopK); the degradation fields mirror Result's and are set when the
// query's deadline cut the final round short.
type TopK struct {
	// Ranked is the top-k nodes in decreasing score order.
	Ranked []Ranked
	// Level is the precision level (walk-budget scale) of the round that
	// produced the ranking.
	Level float64
	// Degraded reports the ranking came from a deadline-truncated round;
	// scores are underestimates within Bound (see Result.Degraded).
	Degraded bool
	// Bound is the additive score error bound when Degraded.
	Bound float64
	// Phase names the interrupted phase ("hhopfwd", "omfwd", "remedy")
	// when Degraded, "" otherwise.
	Phase string
}

// QueryTopK returns the k nodes most relevant to source, refining
// adaptively: it answers the query with a reduced remedy budget first and
// doubles the budget until the top-k membership is stable across two
// consecutive rounds (or the full Definition 1 budget is reached). On
// graphs where the ranking is decided early this is substantially cheaper
// than a full-precision query; in the worst case it costs one extra
// low-budget round.
//
// This is an extension beyond the paper (which targets the full
// single-source vector); the final round never exceeds the paper's walk
// budget, so the returned scores still satisfy the Definition 1 guarantee
// whenever the adaptive loop runs to the full budget, and are flagged
// otherwise via the returned precision level.
func QueryTopK(g *Graph, source int32, k int, p Params) ([]Ranked, float64, error) {
	tk, err := queryTopKSolverCtx(context.Background(), g, source, k, p, core.Solver{})
	return tk.Ranked, tk.Level, err
}

// QueryTopKCtx is QueryTopK under a context: a deadline stops the current
// refinement round at its next amortized check and the ranking computed
// from the partial scores is returned with the degradation fields set.
func QueryTopKCtx(ctx context.Context, g *Graph, source int32, k int, p Params) (TopK, error) {
	return queryTopKSolverCtx(ctx, g, source, k, p, core.Solver{})
}

// queryTopKSolverCtx is QueryTopKCtx with an explicit solver (see
// querySolver). A degraded round ends the adaptive loop immediately — a
// later, cheaper-round ranking cannot be trusted to improve on it and the
// deadline has already fired.
func queryTopKSolverCtx(ctx context.Context, g *Graph, source int32, k int, p Params, s core.Solver) (TopK, error) {
	return queryTopKSolverOn(ctx, g, g, source, source, k, p, s)
}

// queryTopKSolverOn is queryTopKSolverCtx with the serving boundary split
// out, mirroring querySolverOn: rounds run on g with internal source src;
// events and the ranking speak the caller's id space (eventG, source). A
// relabeling engine passes a solver whose ScoreRemap translates each
// round's scores before ranking, so the ranked node ids come out
// caller-space with no extra pass here.
func queryTopKSolverOn(ctx context.Context, g, eventG *Graph, src, source int32, k int, p Params, s core.Solver) (TopK, error) {
	if k <= 0 {
		return TopK{}, fmt.Errorf("resacc: QueryTopK needs k > 0, got %d", k)
	}
	target := p.EffectiveNScale()
	var prev []Ranked
	for scale := target / 8; ; scale *= 2 {
		if scale > target {
			scale = target
		}
		q := p
		q.NScale = scale
		roundStart := time.Now()
		scores, stats, err := s.QueryCtx(ctx, g, src, q)
		notifyQueryHooks(QueryEvent{Graph: eventG, Source: source, Start: roundStart, Duration: time.Since(roundStart), Stats: stats, Err: err})
		if err != nil {
			return TopK{}, err
		}
		res := Result{Source: source, Scores: scores}
		cur := res.TopK(k)
		if stats.Degraded {
			return TopK{
				Ranked: cur, Level: scale,
				Degraded: true, Bound: stats.ResidualBound,
				Phase: stats.DegradedPhase.String(),
			}, nil
		}
		if scale >= target {
			return TopK{Ranked: cur, Level: scale}, nil
		}
		if prev != nil && sameMembers(prev, cur) {
			return TopK{Ranked: cur, Level: scale}, nil
		}
		prev = cur
	}
}

func sameMembers(a, b []Ranked) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[int32]struct{}, len(a))
	for _, r := range a {
		in[r.Node] = struct{}{}
	}
	for _, r := range b {
		if _, ok := in[r.Node]; !ok {
			return false
		}
	}
	return true
}
