package core

import (
	"math"
	"testing"

	"resacc/internal/algo"
	"resacc/internal/graph/gen"
	"resacc/internal/ws"
)

// TestQueryWSSteadyStateAllocs pins the tentpole property: a repeat query on
// a warmed workspace performs zero heap allocations across all three phases
// (the only unavoidable per-query allocation is the caller-owned result
// slice, which lives in Query/ExtractScores, outside this path).
func TestQueryWSSteadyStateAllocs(t *testing.T) {
	g := gen.RMAT(10, 5, 7)
	p := algo.DefaultParams(g)
	p.Seed = 42
	s := Solver{}
	w := ws.New(g.N())
	// Warm up: first runs grow Queue/Order/Seeds and the remedy plan to their steady
	// capacity.
	for i := 0; i < 3; i++ {
		s.QueryWS(g, 0, p, w)
	}
	allocs := testing.AllocsPerRun(20, func() {
		s.QueryWS(g, 0, p, w)
	})
	if allocs > 0 {
		t.Fatalf("steady-state QueryWS allocates %.1f objects/run, want 0", allocs)
	}
}

// TestQueryWSAllocsAcrossVariants extends the zero-alloc check to the
// ablations, which exercise the whole-graph flag and the restricted-forward
// path.
func TestQueryWSAllocsAcrossVariants(t *testing.T) {
	g := gen.ErdosRenyi(800, 4800, 11)
	p := algo.DefaultParams(g)
	p.Seed = 9
	for _, v := range []Variant{Full, NoLoop, NoSubgraph, NoOMFWD} {
		s := Solver{Variant: v}
		w := ws.New(g.N())
		for i := 0; i < 3; i++ {
			s.QueryWS(g, 5, p, w)
		}
		allocs := testing.AllocsPerRun(10, func() {
			s.QueryWS(g, 5, p, w)
		})
		if allocs > 0 {
			t.Errorf("%s: steady-state QueryWS allocates %.1f objects/run, want 0", v, allocs)
		}
	}
}

// TestPooledMatchesUnpooledBitIdentical is the golden comparison the refactor
// must satisfy: for a fixed seed, a query on a freshly allocated workspace,
// a query through a recycling pool (first use), and a query on a recycled
// workspace must return bit-identical scores — pooling is purely an
// allocation strategy, never an answer change.
func TestPooledMatchesUnpooledBitIdentical(t *testing.T) {
	g := gen.BarabasiAlbert(500, 4, 3)
	p := algo.DefaultParams(g)
	p.Seed = 7
	for _, variant := range []Variant{Full, NoLoop, NoSubgraph, NoOMFWD} {
		// Unpooled reference: fresh workspace, never recycled.
		ref := Solver{Variant: variant}
		w := ws.New(g.N())
		ref.QueryWS(g, 2, p, w)
		want := w.ExtractScores()

		pool := ws.NewPool()
		s := Solver{Variant: variant, Pool: pool}
		for round := 0; round < 3; round++ {
			got, _, err := s.Query(g, 2, p)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Fatalf("%s round %d: scores[%d]=%v differs from unpooled %v",
						variant, round, v, got[v], want[v])
				}
			}
		}
	}
}

// TestQueryWSDeterministicAcrossWorkspaces: the same query on workspaces
// with different histories (including one that just served a different
// source) must not leak state between queries.
func TestQueryWSDeterministicAcrossWorkspaces(t *testing.T) {
	g := gen.Grid(20, 20)
	p := algo.DefaultParams(g)
	p.Seed = 123
	s := Solver{}

	fresh := ws.New(g.N())
	s.QueryWS(g, 7, p, fresh)
	want := fresh.ExtractScores()

	dirty := ws.New(g.N())
	s.QueryWS(g, 399, p, dirty) // unrelated query leaves a big footprint
	s.QueryWS(g, 7, p, dirty)
	got := dirty.ExtractScores()
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("scores[%d]: recycled %v vs fresh %v", v, got[v], want[v])
		}
	}
}

// TestStatsSubgraphSizeMatchesMembership guards the O(n)-scan removal: the
// reported |V_h| must equal the number of marked subgraph members (or n in
// the whole-graph ablation).
func TestStatsSubgraphSizeMatchesMembership(t *testing.T) {
	g := gen.ErdosRenyi(300, 1500, 5)
	p := algo.DefaultParams(g)
	w := ws.New(g.N())
	hop := runHHopFWD(g, 0, p.Alpha, p.RMaxHop, p.H, false, w, 0, nil)
	count := 0
	for v := int32(0); int(v) < g.N(); v++ {
		if w.InSub.Has(v) {
			count++
		}
	}
	if hop.subSize != count {
		t.Fatalf("subSize=%d, marked members=%d", hop.subSize, count)
	}
	w2 := ws.New(g.N())
	whole := runHHopFWD(g, 0, p.Alpha, p.RMaxHop, p.H, true, w2, 0, nil)
	if whole.subSize != g.N() {
		t.Fatalf("whole-graph subSize=%d, want n=%d", whole.subSize, g.N())
	}
}
