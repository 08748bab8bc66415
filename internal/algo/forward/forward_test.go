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
	st := NewState(g.N(), 0)
	Run(g, 0.2, 0.3, st)
	if math.Abs(st.Residue[3]-0.576) > 1e-12 {
		t.Fatalf("residue(v4)=%v, want 0.576", st.Residue[3])
	}
	if st.Residue[0] != 0 || st.Residue[1] != 0 || st.Residue[2] != 0 {
		t.Fatalf("unexpected residues: %v", st.Residue)
	}
}

func TestMassConservation(t *testing.T) {
	check := func(seed uint64) bool {
		g := gen.ErdosRenyi(100, 500, seed)
		st := NewState(g.N(), 0)
		Run(g, 0.2, 1e-6, st)
		total := 0.0
		for i := range st.Reserve {
			total += st.Reserve[i] + st.Residue[i]
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
	st := NewState(g.N(), 0)
	Run(g, 0.2, rmax, st)
	for v := int32(0); int(v) < g.N(); v++ {
		d := g.OutDegree(v)
		if d == 0 {
			if st.Residue[v] >= rmax {
				t.Fatalf("dead end %d still pushable: %v", v, st.Residue[v])
			}
			continue
		}
		if st.Residue[v]/float64(d) >= rmax {
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
	st := NewState(g.N(), 0)
	Run(g, p.Alpha, 1e-12, st)
	for v := range truth {
		if math.Abs(st.Reserve[v]-truth[v]) > 1e-8 {
			t.Fatalf("node %d: reserve %v vs truth %v", v, st.Reserve[v], truth[v])
		}
	}
}

func TestSmallerRMaxMorePushes(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 9)
	var prev int64 = -1
	for _, rmax := range []float64{1e-3, 1e-5, 1e-7} {
		st := NewState(g.N(), 0)
		Run(g, 0.2, rmax, st)
		if st.Pushes < prev {
			t.Fatalf("pushes decreased at rmax=%v", rmax)
		}
		prev = st.Pushes
	}
}

func TestRunFromForce(t *testing.T) {
	// Forced seeds push even below the threshold (OMFWD semantics).
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	st := NewState(3, 0)
	st.Residue[0] = 1e-9 // far below any reasonable threshold
	st.EnsureQueue(3)
	RunFrom(g, 0.2, 0.5, st, []int32{0}, true, nil, 0)
	if st.Reserve[0] == 0 {
		t.Fatal("forced seed did not push")
	}
	// Unforced: nothing happens.
	st2 := NewState(3, 0)
	st2.Residue[0] = 1e-9
	RunFrom(g, 0.2, 0.5, st2, []int32{0}, false, nil, 0)
	if st2.Reserve[0] != 0 {
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
	st := NewState(2, 0)
	Run(g, 0.2, 1e-9, st)
	// π(0,0)=α, π(0,1)=1-α; everything should be reserve.
	if math.Abs(st.Reserve[0]-0.2) > 1e-12 || math.Abs(st.Reserve[1]-0.8) > 1e-12 {
		t.Fatalf("reserves=%v", st.Reserve)
	}
	if st.Residue[0]+st.Residue[1] != 0 {
		t.Fatalf("residues should be zero: %v", st.Residue)
	}
}

// TestSparseResidueSumMatchesDense: with Track set ResidueSum must agree
// with the dense scan (satellite: O(dirty) instead of O(n)).
func TestSparseResidueSumMatchesDense(t *testing.T) {
	g := gen.ErdosRenyi(400, 2000, 21)
	n := g.N()
	st := &State{Reserve: make([]float64, n), Residue: make([]float64, n)}
	var track, inQueue ws.Marks
	track.Grow(n)
	inQueue.Grow(n)
	st.Track = &track
	st.UseScratch(&inQueue, nil)
	st.Residue[0] = 1
	track.Mark(0)
	RunFrom(g, 0.2, 1e-4, st, []int32{0}, false, nil, 0)
	sparse := st.ResidueSum()
	dense := 0.0
	for _, r := range st.Residue {
		dense += r
	}
	if math.Abs(sparse-dense) > 1e-12 {
		t.Fatalf("sparse ResidueSum=%v, dense=%v", sparse, dense)
	}
}
