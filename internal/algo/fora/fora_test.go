package fora

import (
	"math"
	"testing"

	"resacc/internal/algo"
	"resacc/internal/algo/power"
	"resacc/internal/eval"
	"resacc/internal/graph"
	"resacc/internal/graph/gen"
)

func TestForaMeetsGuarantee(t *testing.T) {
	for _, seed := range []uint64{3, 17} {
		g := gen.RMAT(9, 5, seed)
		p := algo.DefaultParams(g)
		p.Seed = 7
		est, err := Solver{}.SingleSource(g, 0, p)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := power.GroundTruth(g, 0, p)
		if err != nil {
			t.Fatal(err)
		}
		if rel := eval.MaxRelErrAbove(truth, est, p.Delta); rel > p.Epsilon {
			t.Fatalf("seed %d: rel err %v > ε", seed, rel)
		}
	}
}

func TestForaSumsToOne(t *testing.T) {
	g := gen.ErdosRenyi(300, 1800, 5)
	p := algo.DefaultParams(g)
	est, err := Solver{}.SingleSource(g, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, x := range est {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Σ=%v", sum)
	}
}

func TestBalancedRMaxShape(t *testing.T) {
	g := gen.ErdosRenyi(100, 600, 1)
	p := algo.DefaultParams(g)
	r1 := BalancedRMax(g, p)
	if r1 <= 0 || r1 >= 1 {
		t.Fatalf("balanced rmax out of range: %v", r1)
	}
	// Tighter ε needs a smaller threshold.
	p2 := p
	p2.Epsilon = 0.1
	if r2 := BalancedRMax(g, p2); r2 >= r1 {
		t.Fatalf("rmax did not shrink with ε: %v vs %v", r2, r1)
	}
}

func TestIndexBuildAndQuery(t *testing.T) {
	g := gen.ErdosRenyi(200, 1200, 9)
	p := algo.DefaultParams(g)
	ix, err := BuildIndex(g, p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Bytes() <= 0 {
		t.Fatal("empty index")
	}
	est, err := PlusSolver{Index: ix}.SingleSource(g, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := power.GroundTruth(g, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	// FORA+ reuses endpoints, so correlated noise; check ε bound still.
	if rel := eval.MaxRelErrAbove(truth, est, p.Delta); rel > p.Epsilon {
		t.Fatalf("FORA+ rel err %v", rel)
	}
}

func TestIndexMemoryBudget(t *testing.T) {
	g := gen.ErdosRenyi(200, 1200, 9)
	p := algo.DefaultParams(g)
	if _, err := BuildIndex(g, p, 0, 10); err == nil {
		t.Fatal("want out-of-memory-by-policy error")
	}
}

func TestPlusSolverRequiresIndex(t *testing.T) {
	g := gen.Grid(3, 3)
	p := algo.DefaultParams(g)
	if _, err := (PlusSolver{}).SingleSource(g, 0, p); err == nil {
		t.Fatal("want missing index error")
	}
}

// TestPlusSolverRejectsForeignIndex: an index built for a graph of another
// size answers with an error, not an out-of-range panic in the remedy.
func TestPlusSolverRejectsForeignIndex(t *testing.T) {
	small, big := gen.ErdosRenyi(50, 300, 9), gen.ErdosRenyi(200, 1200, 9)
	for _, c := range []struct{ built, queried *graph.Graph }{{small, big}, {big, small}} {
		ix, err := BuildIndex(c.built, algo.DefaultParams(c.built), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (PlusSolver{Index: ix}).SingleSource(c.queried, 0, algo.DefaultParams(c.queried)); err == nil {
			t.Fatalf("index over %d nodes answered a query on %d nodes", c.built.N(), c.queried.N())
		}
	}
}

// TestPlusSolverReadsEndpointPools: FORA+ answers the remedy's planned
// walks from its endpoint pools instead of simulating them.
func TestPlusSolverReadsEndpointPools(t *testing.T) {
	b := graph.NewBuilder(4)
	for v := int32(0); v < 4; v++ {
		b.AddEdge(v, (v+1)%4)
	}
	g := b.MustBuild()
	p := algo.DefaultParams(g)
	// rmax 2 leaves the source's whole unit residue for the remedy, and
	// every pool "terminates" at node 2.
	ix := &Index{rmax: 2, endpoints: [][]int32{{2}, {2}, {2}, {2}}}
	est, err := PlusSolver{Index: ix}.SingleSource(g, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est[2]-1) > 1e-12 || est[0] != 0 || est[1] != 0 || est[3] != 0 {
		t.Fatalf("pool endpoints ignored: est=%v", est)
	}
}

func TestNames(t *testing.T) {
	if (Solver{}).Name() != "FORA" || (PlusSolver{}).Name() != "FORA+" {
		t.Fatal("names drifted")
	}
}
