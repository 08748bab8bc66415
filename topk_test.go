package resacc

import (
	"context"
	"math"
	"reflect"
	"testing"

	"resacc/internal/algo/power"
	"resacc/internal/core"
	"resacc/internal/dataset"
	"resacc/internal/eval"
	"resacc/internal/rng"
)

func TestQueryTopKMatchesFullPrecision(t *testing.T) {
	g := GenerateRMAT(9, 6, 5)
	p := DefaultParams(g)
	p.Seed = 3
	top, level, err := QueryTopK(g, 1, 10, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 10 {
		t.Fatalf("got %d entries", len(top))
	}
	if level <= 0 || level > 1 {
		t.Fatalf("precision level %v out of range", level)
	}
	// Compare membership against the exact top-10.
	powerSolver, _ := NewSolver(AlgPower)
	truth, err := powerSolver.SingleSource(g, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	ideal := eval.TopK(truth, 10)
	in := map[int32]bool{}
	for _, v := range ideal {
		in[v] = true
	}
	hits := 0
	for _, r := range top {
		if in[r.Node] {
			hits++
		}
	}
	if hits < 8 {
		t.Fatalf("only %d/10 of the certified top-k are truly top-k", hits)
	}
}

func TestQueryTopKOrdering(t *testing.T) {
	g := GenerateBarabasiAlbert(300, 3, 7)
	p := DefaultParams(g)
	top, _, err := QueryTopK(g, 0, 20, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatal("top-k not sorted by score")
		}
	}
}

func TestQueryTopKValidation(t *testing.T) {
	g := GenerateBarabasiAlbert(50, 2, 1)
	p := DefaultParams(g)
	if _, _, err := QueryTopK(g, 0, 0, p); err == nil {
		t.Fatal("want k error")
	}
	if _, _, err := QueryTopK(g, 999, 5, p); err == nil {
		t.Fatal("want source error")
	}
}

// topKRounds runs QueryTopKCtx's spine with an observer and returns the
// answer with the number of query events it fired: one per solver round.
func topKRounds(t *testing.T, g *Graph, source int32, k int, p Params) (TopK, int) {
	t.Helper()
	rounds := 0
	tk, err := queryTopKSolverOn(context.Background(), g, source, source, k, p, core.Solver{},
		func(QueryEvent) { rounds++ })
	if err != nil {
		t.Fatal(err)
	}
	return tk, rounds
}

// TestQueryTopKCertifiesInOneRound: on a clear ranking the first,
// eighth-budget round's k-th estimate already clears (1+ε)·8δ, so the
// query stops there and reports the certified threshold 8δ. A web graph's
// top five sit well above 12/n.
func TestQueryTopKCertifiesInOneRound(t *testing.T) {
	g, info, err := dataset.Build("webstan-s", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(g)
	p.H = info.H
	a, got := topKRounds(t, g, 3, 5, p)
	if got != 1 {
		t.Fatalf("fired %d query events, want 1", got)
	}
	if a.Level != 1.0/8 || a.Delta != 8*p.Delta {
		t.Fatalf("level %v delta %v, want 1/8 and %v", a.Level, a.Delta, 8*p.Delta)
	}
	if kth := a.Ranked[len(a.Ranked)-1].Score; !(kth > (1+p.Epsilon)*a.Delta) {
		t.Fatalf("k-th score %v does not clear (1+ε)·δ′ = %v", kth, (1+p.Epsilon)*a.Delta)
	}
	b, err := QueryTopKCtx(context.Background(), g, 3, 5, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("top-k not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestQueryTopKEscalatesToTarget: a source that reaches fewer than k nodes
// has a zero k-th estimate, never certifies, and runs all four rounds; the
// answer is the full-budget round's, at threshold δ/target.
func TestQueryTopKEscalatesToTarget(t *testing.T) {
	b := NewGraphBuilder(50)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	for v := int32(3); v < 49; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.MustBuild()
	p := DefaultParams(g)
	p.NScale = 0.5
	tk, got := topKRounds(t, g, 0, 10, p)
	if got != 4 {
		t.Fatalf("fired %d query events, want 4", got)
	}
	if tk.Level != p.NScale || tk.Delta != p.Delta/p.NScale {
		t.Fatalf("level %v delta %v, want %v and %v", tk.Level, tk.Delta, p.NScale, p.Delta/p.NScale)
	}
	if len(tk.Ranked) != 10 || tk.Ranked[3].Score != 0 {
		t.Fatalf("want the 3-node cycle then zeros, got %+v", tk.Ranked)
	}
}

// TestQueryTopKExactRoundEndsLoop: a dead-end source keeps its whole unit
// of mass as reserve, so its first round leaves no residue and walks
// nothing. That round is exact and ends the loop, reporting the target
// level and its threshold as the fourth round would have.
func TestQueryTopKExactRoundEndsLoop(t *testing.T) {
	b := NewGraphBuilder(50)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	for v := int32(3); v < 49; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.MustBuild()
	p := DefaultParams(g)
	p.NScale = 0.5
	tk, got := topKRounds(t, g, 49, 10, p)
	if got != 1 {
		t.Fatalf("fired %d query events, want 1", got)
	}
	if tk.Level != p.NScale || tk.Delta != p.Delta/p.NScale {
		t.Fatalf("level %v delta %v, want %v and %v", tk.Level, tk.Delta, p.NScale, p.Delta/p.NScale)
	}
	if tk.Ranked[0] != (Ranked{Node: 49, Score: 1}) {
		t.Fatalf("want the source with all the mass first, got %+v", tk.Ranked[0])
	}
}

// TestQueryTopKCertificateSound checks the certificate against power
// iteration. Only the full-budget round may return uncertified. Every
// node a certified answer returns must have π > δ′ and |π̂−π| ≤ ε·π;
// every returned node above δ′ must meet the relative bound whether or
// not the answer certified. Each answer fails with probability at most
// p_f, so violations may not exceed p_f per node checked.
func TestQueryTopKCertificateSound(t *testing.T) {
	const k = 10
	for _, ds := range []string{"webstan-s", "dblp-s"} {
		g, info, err := dataset.Build(ds, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		p := DefaultParams(g)
		p.H = info.H
		r := rng.New(11)
		truths := make(map[int32][]float64)
		for len(truths) < 20 {
			src := int32(r.Intn(g.N()))
			if truths[src], err = power.GroundTruth(g, src, p); err != nil {
				t.Fatal(err)
			}
		}
		checked, certified, violations := 0, 0, 0
		for seed := uint64(1); seed <= 3; seed++ {
			p.Seed = seed
			for src, truth := range truths {
				tk, err := QueryTopKCtx(context.Background(), g, src, k, p)
				if err != nil {
					t.Fatal(err)
				}
				cert := tk.Ranked[len(tk.Ranked)-1].Score > (1+p.Epsilon)*tk.Delta
				if cert {
					certified++
				} else if tk.Level < 1 {
					t.Fatalf("%s seed=%d src=%d: stopped at level %v without a certificate", ds, seed, src, tk.Level)
				}
				for _, rk := range tk.Ranked {
					pi := truth[rk.Node]
					checked++
					if (cert && !(pi > tk.Delta)) || (pi > tk.Delta && math.Abs(rk.Score-pi) > p.Epsilon*pi) {
						violations++
						t.Logf("%s seed=%d src=%d node=%d: π̂=%g π=%g δ′=%g", ds, seed, src, rk.Node, rk.Score, pi, tk.Delta)
					}
				}
			}
		}
		if certified == 0 {
			t.Fatalf("%s: no answer certified; the test exercises nothing", ds)
		}
		if budget := p.PFail * float64(checked); float64(violations) > budget {
			t.Fatalf("%s: %d violations over %d nodes, budget p_f·%d = %.2f", ds, violations, checked, checked, budget)
		}
	}
}
