package core

import (
	"context"
	"fmt"
	"time"

	"resacc/internal/algo"
	"resacc/internal/eval"
	"resacc/internal/graph"
)

// topKRounds is how many walk budgets the top-k loop may try: NScale
// target/8, /4, /2 and target. Every round runs at p_f/topKRounds, so a
// union bound over the rounds keeps the answer's failure probability at
// p_f whichever round returns it.
const topKRounds = 4

// TopK is the answer of Solver.TopK: the k highest estimates of the round
// that ended the loop.
type TopK struct {
	// Nodes holds the top-k node ids in decreasing score order (ties by
	// smaller id).
	Nodes []int32
	// Scores is the final round's estimate for every node.
	Scores []float64
	// Level is the NScale the final round ran at.
	Level float64
	// Delta is the final round's significance threshold δ′ = δ/Level: every
	// node with π > δ′ has |π̂−π| ≤ ε·π, with failure probability p_f. It
	// is 0 when the final round was degraded (see Stats.Degraded).
	Delta float64
	// Stats is the final round's statistics.
	Stats Stats
}

// TopK returns the k nodes most relevant to src with the certified top-k
// rule of FORA (Wang et al., arXiv:1908.10583). The push thresholds do not
// depend on δ and the remedy walk count n_r scales with 1/δ (Theorem 3),
// so a round at NScale c answers Definition 1 at δ′ = δ/c. The loop runs
// at NScale target/8, /4, /2 and target, and returns at the first round
// whose k-th estimate exceeds (1+ε)·δ′: an estimate that high proves
// π > δ′, so every returned node carries the ε-relative bound. The last
// round returns whether or not it certifies, as does a degraded round
// (the deadline has fired; a later round cannot do better).
//
// onRound, when non-nil, is called as each round ends, including one that
// failed, with the round's start time, its statistics (zero on error) and
// its error.
func (s Solver) TopK(ctx context.Context, g *graph.Graph, src int32, k int, p algo.Params, onRound func(start time.Time, st Stats, err error)) (TopK, error) {
	if k <= 0 {
		return TopK{}, fmt.Errorf("core: top-k needs k > 0, got %d", k)
	}
	// Validate before splitting p_f: an out-of-range p_f could land in
	// range once divided.
	if err := p.Validate(g); err != nil {
		return TopK{}, err
	}
	q := p
	q.PFail = p.PFail / topKRounds
	scale := p.EffectiveNScale() / (1 << (topKRounds - 1))
	for round := 1; ; round, scale = round+1, scale*2 {
		q.NScale = scale
		start := time.Now()
		scores, stats, err := s.QueryCtx(ctx, g, src, q)
		if onRound != nil {
			onRound(start, stats, err)
		}
		if err != nil {
			return TopK{}, err
		}
		tk := TopK{Nodes: eval.TopK(scores, k), Scores: scores, Level: scale, Stats: stats}
		if stats.Degraded {
			return tk, nil
		}
		tk.Delta = p.Delta / scale
		if round == topKRounds || scores[tk.Nodes[len(tk.Nodes)-1]] > (1+p.Epsilon)*tk.Delta {
			return tk, nil
		}
	}
}
