package resacc

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"resacc/internal/algo/power"
	"resacc/internal/eval"
)

// TestEngineRelabelMeetsGuarantee: with degree relabeling on, every answer
// still satisfies the Definition 1 guarantee against ground truth computed
// on the ORIGINAL graph — which proves the boundary translation end to end
// (a wrong permutation anywhere would scramble the scores far past ε) — and
// OnQuery events keep reporting the original source ids.
func TestEngineRelabelMeetsGuarantee(t *testing.T) {
	g := GenerateBarabasiAlbert(300, 3, 11)
	p := DefaultParams(g)
	srcs := []int32{0, 5, int32(g.N() / 2)}
	var mu sync.Mutex
	var evSources []int32
	e := NewEngine(g, p, EngineOptions{Relabel: true, OnQuery: func(ev QueryEvent) {
		mu.Lock()
		evSources = append(evSources, ev.Source)
		mu.Unlock()
	}})
	defer e.Close()
	if e.Graph() != g {
		t.Fatal("Graph() leaked the relabeled internal graph")
	}
	ctx := context.Background()
	for _, src := range srcs {
		res, err := e.Query(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != src {
			t.Fatalf("Source=%d, want %d", res.Source, src)
		}
		truth, err := power.GroundTruth(g, src, p)
		if err != nil {
			t.Fatal(err)
		}
		if rel := eval.MaxRelErrAbove(truth, res.Scores, p.Delta); rel > p.Epsilon {
			t.Fatalf("src=%d: max rel err %v > ε=%v", src, rel, p.Epsilon)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(evSources, srcs) {
		t.Fatalf("OnQuery sources %v, want the caller's %v", evSources, srcs)
	}
}

// TestEngineRelabelTopKPairAndErrors: ranked ids and pair endpoints are
// caller-space under relabeling, and range errors speak caller ids.
func TestEngineRelabelTopKPairAndErrors(t *testing.T) {
	g := GenerateBarabasiAlbert(300, 3, 7)
	p := DefaultParams(g)
	e := NewEngine(g, p, EngineOptions{Relabel: true})
	defer e.Close()
	ctx := context.Background()

	top, err := e.QueryTopK(ctx, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := power.GroundTruth(g, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range top.Ranked {
		if r.Node < 0 || int(r.Node) >= g.N() {
			t.Fatalf("ranked[%d] node %d out of caller range", i, r.Node)
		}
		if i > 0 && r.Score > top.Ranked[i-1].Score {
			t.Fatal("ranking not sorted")
		}
		// Each ranked id must actually be a high scorer of the ORIGINAL
		// graph; an untranslated internal id would point at an arbitrary
		// node. The guarantee bounds the estimate, so the true score can't
		// be more than (1+ε) off above δ.
		if r.Score > p.Delta && truth[r.Node] < r.Score/(1+2*p.Epsilon) {
			t.Fatalf("ranked[%d]: node %d scored %v but truth says %v — id space leak?",
				i, r.Node, r.Score, truth[r.Node])
		}
	}

	full, err := e.Query(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	est, err := e.QueryPair(ctx, 2, top.Ranked[0].Node)
	if err != nil {
		t.Fatal(err)
	}
	if est < 0 || est > 1 {
		t.Fatalf("pair estimate %g outside [0,1]", est)
	}
	if full.Scores[top.Ranked[0].Node] > 0.01 && est == 0 {
		t.Fatalf("pair=0 but full vector says %g", full.Scores[top.Ranked[0].Node])
	}
	if _, err := e.Query(ctx, int32(g.N())); err == nil {
		t.Fatal("out-of-range source accepted under relabeling")
	}
	if _, err := e.QueryPair(ctx, 2, int32(g.N())); err == nil {
		t.Fatal("out-of-range target accepted under relabeling")
	}
}

// TestEngineRelabelLiveEdits: streaming edits keep flowing in original ids
// while every published snapshot is re-relabeled; answers after a swap meet
// the guarantee against ground truth on the edited original graph.
func TestEngineRelabelLiveEdits(t *testing.T) {
	g := GenerateBarabasiAlbert(200, 3, 3)
	p := DefaultParams(g)
	e := NewEngine(g, p, EngineOptions{Relabel: true})
	defer e.Close()
	l, err := e.StartLive(LiveOptions{MaxStaleness: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx := context.Background()
	if _, err := e.Query(ctx, 0); err != nil {
		t.Fatal(err)
	}

	if _, err := l.Apply([][2]int32{{0, 150}, {150, 0}, {1, 140}}, [][2]int32{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if swapped, err := l.Flush(); err != nil || !swapped {
		t.Fatalf("flush: swapped=%v err=%v", swapped, err)
	}
	edited := l.Graph() // manager's base: the edited graph in original ids
	if edited == g {
		t.Fatal("live flush did not publish a new graph")
	}
	if e.Graph() != edited {
		t.Fatal("engine's caller-space graph is not the live base after swap")
	}
	res, err := e.Query(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := power.GroundTruth(edited, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if rel := eval.MaxRelErrAbove(truth, res.Scores, p.Delta); rel > p.Epsilon {
		t.Fatalf("post-swap: max rel err %v > ε=%v", rel, p.Epsilon)
	}
}

// TestEngineRelabelCustomComputeBoundary: a custom Compute sees the
// internal (relabeled) graph and a translated source; the engine translates
// its result back, so a solver that returns "all mass at the source" in
// internal ids serves a caller-space one-hot at the original source.
func TestEngineRelabelCustomComputeBoundary(t *testing.T) {
	g := GenerateBarabasiAlbert(120, 3, 9)
	var gotGraph *Graph
	var gotSrc int32
	compute := func(_ context.Context, cg *Graph, src int32, _ Params) (*Result, error) {
		gotGraph, gotSrc = cg, src
		scores := make([]float64, cg.N())
		scores[src] = 1
		return &Result{Source: src, Scores: scores}, nil
	}
	e := NewEngine(g, DefaultParams(g), EngineOptions{Relabel: true, Compute: compute})
	defer e.Close()

	const source = int32(7)
	res, err := e.Query(context.Background(), source)
	if err != nil {
		t.Fatal(err)
	}
	if gotGraph == g {
		t.Fatal("custom compute received the original graph, not the relabeled snapshot")
	}
	if gotGraph.N() != g.N() || gotGraph.M() != g.M() {
		t.Fatal("relabeled snapshot is not isomorphic in size")
	}
	if res.Source != source {
		t.Fatalf("Source=%d, want %d", res.Source, source)
	}
	if res.Scores[source] != 1 {
		t.Fatalf("one-hot landed at the wrong caller id: scores[%d]=%v", source, res.Scores[source])
	}
	// Node 7 of a 120-node BA graph is an early, high-degree node, so its
	// internal id should have moved; if it didn't, the translation above
	// proved nothing.
	if gotSrc == source {
		t.Skip("relabeling fixed this source's id; translation not exercised")
	}
}
