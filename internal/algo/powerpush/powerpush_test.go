package powerpush_test

import (
	"math"
	"testing"

	"resacc/internal/algo"
	"resacc/internal/algo/forward"
	"resacc/internal/algo/power"
	"resacc/internal/algo/powerpush"
	"resacc/internal/graph"
	"resacc/internal/graph/gen"
	"resacc/internal/ws"
)

// hub: one high-degree center with bidirected spokes — the degree-skewed
// shape where sweep scan order differs most from queue FIFO order.
func hubGraph(leaves int) *graph.Graph {
	b := graph.NewBuilder(leaves + 1)
	for i := 1; i <= leaves; i++ {
		b.AddUndirected(0, int32(i))
	}
	return b.MustBuild()
}

// deadEnd: a binary out-tree whose leaves have no out-edges, exercising the
// d=0 full-absorption push.
func deadEndGraph(depth int) *graph.Graph {
	n := 1<<(depth+1) - 1
	b := graph.NewBuilder(n)
	for v := 0; 2*v+2 < n; v++ {
		b.AddEdge(int32(v), int32(2*v+1))
		b.AddEdge(int32(v), int32(2*v+2))
	}
	return b.MustBuild()
}

func cycleGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.MustBuild()
}

func quiescent(t *testing.T, g *graph.Graph, rmax float64, residue []float64, label string) {
	t.Helper()
	for v := int32(0); int(v) < g.N(); v++ {
		d := g.OutDegree(v)
		bound := rmax * float64(d)
		if d == 0 {
			bound = rmax
		}
		if residue[v] >= bound {
			t.Fatalf("%s: node %d residue %v still satisfies push condition (bound %v)", label, v, residue[v], bound)
		}
	}
}

func sums(reserve, residue []float64) (rsv, rsd float64) {
	for _, x := range reserve {
		rsv += x
	}
	for _, x := range residue {
		rsd += x
	}
	return
}

// TestSweepMatchesQueueDrain is the satellite equivalence test: on hub,
// dead-end and cycle graphs the sweep run to quiescence must land in the
// same state family as the sequential queue drain — both quiescent, both
// mass-conserving, and reserves equal within the forward-push invariant's
// residual bound (|reserve[t] − π(t)| ≤ Σ residue, since π(v,t) ≤ 1). The
// two are NOT bit-identical in general: push order differs, so float
// summation order differs.
func TestSweepMatchesQueueDrain(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"hub", hubGraph(64)},
		{"deadend", deadEndGraph(6)},
		{"cycle", cycleGraph(50)},
		{"rmat", gen.RMAT(9, 5, 11)},
	}
	const alpha, rmax = 0.2, 1e-6
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			n := g.N()

			q := ws.New(n)
			forward.RunWS(g, alpha, rmax, q, 0)

			reserve := make([]float64, n)
			residue := make([]float64, n)
			residue[0] = 1
			pst, aborted := powerpush.Sweep(g, alpha, rmax, reserve, residue, nil, -1, 0, nil)
			if aborted {
				t.Fatal("nil done channel aborted")
			}
			if pst.Pushes == 0 || pst.Sweeps == 0 {
				t.Fatalf("no work recorded: %+v", pst)
			}

			quiescent(t, g, rmax, q.Residue, "queue")
			quiescent(t, g, rmax, residue, "sweep")

			qrsv, qrsd := sums(q.Reserve, q.Residue)
			srsv, srsd := sums(reserve, residue)
			if math.Abs(qrsv+qrsd-1) > 1e-9 {
				t.Fatalf("queue drain lost mass: Σ=%v", qrsv+qrsd)
			}
			if math.Abs(srsv+srsd-1) > 1e-9 {
				t.Fatalf("sweep lost mass: Σ=%v", srsv+srsd)
			}

			// Residue-invariant equivalence: each backend's reserve is within
			// its own leftover residue mass of the true PPR, so they are
			// within the sum of the two of each other, per node.
			bound := qrsd + srsd + 1e-12
			for v := 0; v < n; v++ {
				if diff := math.Abs(q.Reserve[v] - reserve[v]); diff > bound {
					t.Fatalf("node %d: |queue−sweep| = %v > residual bound %v", v, diff, bound)
				}
			}
		})
	}
}

// TestSweepRestrictAndSkip checks eligibility semantics match the forward
// engine: the skip node and nodes outside restrict never push (their residue
// only accumulates), everything inside drains below threshold.
func TestSweepRestrictAndSkip(t *testing.T) {
	g := gen.ErdosRenyi(200, 1400, 3)
	const alpha, rmax = 0.2, 1e-5
	n := g.N()

	var restrict ws.Marks
	restrict.Grow(n)
	restrict.Clear()
	for v := int32(0); v < 100; v++ {
		restrict.Mark(v)
	}
	const skip = int32(7)

	q := ws.New(n)
	q.SetResidue(0, 1)
	var st forward.State
	st.RestrictTo(&restrict, skip)
	st.RunFrom(g, alpha, rmax, q, []int32{0}, false, nil, 0)

	reserve := make([]float64, n)
	residue := make([]float64, n)
	residue[0] = 1
	if _, aborted := powerpush.Sweep(g, alpha, rmax, reserve, residue, &restrict, skip, 0, nil); aborted {
		t.Fatal("aborted")
	}

	var qOut, sOut float64 // mass parked on ineligible nodes must match within bound
	for v := int32(0); int(v) < n; v++ {
		eligible := restrict.Has(v) && v != skip
		if eligible {
			d := g.OutDegree(v)
			bound := rmax * float64(d)
			if d == 0 {
				bound = rmax
			}
			if residue[v] >= bound {
				t.Fatalf("eligible node %d not drained: %v", v, residue[v])
			}
		} else {
			qOut += q.Residue[v]
			sOut += q.Reserve[v]
			if reserve[v] != 0 {
				t.Fatalf("ineligible node %d gained reserve %v in sweep", v, reserve[v])
			}
			if q.Reserve[v] != 0 {
				t.Fatalf("ineligible node %d gained reserve %v in queue drain", v, q.Reserve[v])
			}
		}
	}
	_ = qOut
	_ = sOut
	qrsv, qrsd := sums(q.Reserve, q.Residue)
	srsv, srsd := sums(reserve, residue)
	if math.Abs(qrsv+qrsd-1) > 1e-9 || math.Abs(srsv+srsd-1) > 1e-9 {
		t.Fatalf("mass lost: queue Σ=%v sweep Σ=%v", qrsv+qrsd, srsv+srsd)
	}
	bound := qrsd + srsd + 1e-12
	for v := 0; v < n; v++ {
		if diff := math.Abs(q.Reserve[v] - reserve[v]); diff > bound {
			t.Fatalf("node %d: |queue−sweep| = %v > %v", v, diff, bound)
		}
	}
}

// TestSweepExitMass: with a huge exitMass every round's pushed mass is below
// the bar, so the sweep runs exactly one round and hands back survivors.
func TestSweepExitMass(t *testing.T) {
	g := gen.ErdosRenyi(300, 2400, 9)
	reserve := make([]float64, g.N())
	residue := make([]float64, g.N())
	residue[0] = 1
	st, aborted := powerpush.Sweep(g, 0.2, 1e-7, reserve, residue, nil, -1, 1<<40, nil)
	if aborted {
		t.Fatal("aborted")
	}
	if st.Sweeps != 1 {
		t.Fatalf("want exactly 1 sweep under huge exitMass, got %d", st.Sweeps)
	}
	// State must still satisfy the invariant (mass conserved) even though it
	// is not quiescent.
	rsv, rsd := sums(reserve, residue)
	if math.Abs(rsv+rsd-1) > 1e-9 {
		t.Fatalf("mass lost mid-escalation: Σ=%v", rsv+rsd)
	}
}

// TestSweepCancellation: a pre-closed done channel aborts the sweep at the
// first poll, leaving an invariant-preserving (mass-conserving) state.
func TestSweepCancellation(t *testing.T) {
	g := gen.ErdosRenyi(500, 4000, 1)
	reserve := make([]float64, g.N())
	residue := make([]float64, g.N())
	residue[0] = 1
	done := make(chan struct{})
	close(done)
	_, aborted := powerpush.Sweep(g, 0.2, 1e-9, reserve, residue, nil, -1, 0, done)
	if !aborted {
		t.Fatal("want aborted=true on closed done channel")
	}
	rsv, rsd := sums(reserve, residue)
	if math.Abs(rsv+rsd-1) > 1e-9 {
		t.Fatalf("abort lost mass: Σ=%v", rsv+rsd)
	}
}

// TestSolverGroundTruth: the standalone solver's additive error vs power
// iteration ground truth is bounded by its leftover residue mass.
func TestSolverGroundTruth(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"hub", hubGraph(32)},
		{"deadend", deadEndGraph(5)},
		{"cycle", cycleGraph(40)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			p := algo.DefaultParams(g)
			const rmax = 1e-9
			est, err := powerpush.Solver{RMax: rmax}.SingleSource(g, 0, p)
			if err != nil {
				t.Fatal(err)
			}
			truth, err := power.GroundTruth(g, 0, p)
			if err != nil {
				t.Fatal(err)
			}
			// Leftover residue ≤ rmax·(n+m); ground truth has its own tiny
			// convergence error.
			bound := rmax*float64(g.N()+g.M()) + 1e-7
			for v := range est {
				if diff := math.Abs(est[v] - truth[v]); diff > bound {
					t.Fatalf("node %d: |est−truth| = %v > %v", v, diff, bound)
				}
			}
		})
	}
}

func TestSolverErrors(t *testing.T) {
	g := gen.Grid(3, 3)
	p := algo.DefaultParams(g)
	if _, err := (powerpush.Solver{}).SingleSource(g, -1, p); err == nil {
		t.Fatal("want bad-source error")
	}
	if (powerpush.Solver{}).Name() != "PowerPush" {
		t.Fatal("name drifted")
	}
}
