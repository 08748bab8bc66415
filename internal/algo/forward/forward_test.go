package forward

import (
	"math"
	"testing"
	"testing/quick"

	"resacc/internal/algo"
	"resacc/internal/algo/power"
	"resacc/internal/graph"
	"resacc/internal/graph/gen"
	"resacc/internal/ws"
)

func TestFigure1Trace(t *testing.T) {
	// Fig. 1(b): graph v1->{v2,v3}, v2->v4, v3->v2 with α=0.2, pushing
	// from v1 ends with residue 0.576 at v4 (after pushes at v1,v2,v3,v2).
	// v4 gets two outgoing edges so that, at threshold 0.3, it never
	// satisfies the push condition (0.576/2 < 0.3), matching the figure.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 1)
	b.AddEdge(3, 0)
	b.AddEdge(3, 1)
	g := b.MustBuild()
	w := ws.New(g.N())
	RunWS(g, 0.2, 0.3, w, 0)
	if math.Abs(w.Residue[3]-0.576) > 1e-12 {
		t.Fatalf("residue(v4)=%v, want 0.576", w.Residue[3])
	}
	if w.Residue[0] != 0 || w.Residue[1] != 0 || w.Residue[2] != 0 {
		t.Fatalf("unexpected residues: %v", w.Residue)
	}
}

func TestMassConservation(t *testing.T) {
	check := func(seed uint64) bool {
		g := gen.ErdosRenyi(100, 500, seed)
		w := ws.New(g.N())
		RunWS(g, 0.2, 1e-6, w, 0)
		total := 0.0
		for i := range w.Reserve {
			total += w.Reserve[i] + w.Residue[i]
		}
		return math.Abs(total-1) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNoNodeSatisfiesPushConditionAfterRun(t *testing.T) {
	g := gen.RMAT(8, 4, 7)
	rmax := 1e-7
	w := ws.New(g.N())
	RunWS(g, 0.2, rmax, w, 0)
	for v := int32(0); int(v) < g.N(); v++ {
		d := g.OutDegree(v)
		if d == 0 {
			if w.Residue[v] >= rmax {
				t.Fatalf("dead end %d still pushable: %v", v, w.Residue[v])
			}
			continue
		}
		if w.Residue[v]/float64(d) >= rmax {
			t.Fatalf("node %d still satisfies push condition", v)
		}
	}
}

func TestReserveConvergesToTruth(t *testing.T) {
	// As rmax -> 0 the reserves converge to the exact RWR values.
	g := gen.Grid(8, 8)
	p := algo.DefaultParams(g)
	truth, err := power.GroundTruth(g, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	w := ws.New(g.N())
	RunWS(g, p.Alpha, 1e-12, w, 0)
	for v := range truth {
		if math.Abs(w.Reserve[v]-truth[v]) > 1e-8 {
			t.Fatalf("node %d: reserve %v vs truth %v", v, w.Reserve[v], truth[v])
		}
	}
}

func TestSmallerRMaxMorePushes(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 9)
	var prev int64 = -1
	w := ws.New(g.N())
	for _, rmax := range []float64{1e-3, 1e-5, 1e-7} {
		w.Reset(g.N())
		pushes := RunWS(g, 0.2, rmax, w, 0)
		if pushes < prev {
			t.Fatalf("pushes decreased at rmax=%v", rmax)
		}
		prev = pushes
	}
}

func TestRunFromForce(t *testing.T) {
	// Forced seeds push even below the threshold (OMFWD semantics).
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	w := ws.New(3)
	w.SetResidue(0, 1e-9) // far below any reasonable threshold
	var st State
	st.RunFrom(g, 0.2, 0.5, w, []int32{0}, true, nil, 0)
	if w.Reserve[0] == 0 {
		t.Fatal("forced seed did not push")
	}
	// Unforced: nothing happens.
	w2 := ws.New(3)
	w2.SetResidue(0, 1e-9)
	var st2 State
	st2.RunFrom(g, 0.2, 0.5, w2, []int32{0}, false, nil, 0)
	if w2.Reserve[0] != 0 {
		t.Fatal("unforced sub-threshold seed pushed")
	}
}

func TestSolverAccuracyIgnoresResidue(t *testing.T) {
	// The FWD baseline underestimates by exactly the leftover residues.
	g := gen.ErdosRenyi(200, 1000, 3)
	p := algo.DefaultParams(g)
	est, err := Solver{RMax: 1e-10}.SingleSource(g, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := power.GroundTruth(g, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	for v := range truth {
		if est[v] > truth[v]+1e-9 {
			t.Fatalf("FWD overestimated node %d", v)
		}
		if math.Abs(est[v]-truth[v]) > 1e-6 {
			t.Fatalf("node %d too far off: %v vs %v", v, est[v], truth[v])
		}
	}
}

func TestSolverValidation(t *testing.T) {
	g := gen.Grid(3, 3)
	p := algo.DefaultParams(g)
	if _, err := (Solver{}).SingleSource(g, -2, p); err == nil {
		t.Error("want source error")
	}
	p.Epsilon = -1
	if _, err := (Solver{}).SingleSource(g, 0, p); err == nil {
		t.Error("want param error")
	}
}

func TestDeadEndPushConvertsAll(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1) // node 1 is a dead end
	g := b.MustBuild()
	w := ws.New(2)
	RunWS(g, 0.2, 1e-9, w, 0)
	// π(0,0)=α, π(0,1)=1-α; everything should be reserve.
	if math.Abs(w.Reserve[0]-0.2) > 1e-12 || math.Abs(w.Reserve[1]-0.8) > 1e-12 {
		t.Fatalf("reserves=%v", w.Reserve)
	}
	if w.Residue[0]+w.Residue[1] != 0 {
		t.Fatalf("residues should be zero: %v", w.Residue)
	}
}

// TestSparseResidueSumMatchesDense: after a drain, the workspace's sparse
// residue sum over its dirty slots (OMFWD's r_sum) must agree with the
// dense scan of every slot.
func TestSparseResidueSumMatchesDense(t *testing.T) {
	g := gen.ErdosRenyi(400, 2000, 21)
	w := ws.New(g.N())
	RunWS(g, 0.2, 1e-4, w, 0)
	sparse := w.SumResidue()
	dense := 0.0
	for _, r := range w.Residue {
		dense += r
	}
	if sparse == 0 || math.Abs(sparse-dense) > 1e-12 {
		t.Fatalf("sparse SumResidue=%v, dense=%v", sparse, dense)
	}
}
