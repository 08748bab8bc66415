package forward

import (
	"math"
	"testing"

	"resacc/internal/algo"
	"resacc/internal/algo/power"
	"resacc/internal/graph/gen"
	"resacc/internal/ws"
)

func TestPrioritizedMassConservation(t *testing.T) {
	g := gen.RMAT(8, 5, 3)
	w := ws.New(g.N())
	RunPrioritized(g, 0.2, 1e-7, w, 0)
	total := 0.0
	for i := range w.Reserve {
		total += w.Reserve[i] + w.Residue[i]
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("mass %v", total)
	}
}

func TestPrioritizedTerminatesBelowThreshold(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 5)
	rmax := 1e-6
	w := ws.New(g.N())
	RunPrioritized(g, 0.2, rmax, w, 0)
	for v := int32(0); int(v) < g.N(); v++ {
		if satisfies(g, rmax, w.Residue[v], v) {
			t.Fatalf("node %d still pushable", v)
		}
	}
}

func TestPrioritizedMatchesTruthAtTinyThreshold(t *testing.T) {
	g := gen.Grid(7, 7)
	p := algo.DefaultParams(g)
	truth, err := power.GroundTruth(g, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	w := ws.New(g.N())
	RunPrioritized(g, p.Alpha, 1e-12, w, 0)
	for v := range truth {
		if math.Abs(w.Reserve[v]-truth[v]) > 1e-7 {
			t.Fatalf("node %d: %v vs %v", v, w.Reserve[v], truth[v])
		}
	}
}

func TestPrioritizedNeverMorePushesOnSkewedGraph(t *testing.T) {
	// The scheduling claim: max-residue-first needs no more pushes than
	// FIFO on a skewed graph. (It is not a theorem for all graphs; assert
	// it on the shape it targets, with slack for ties.)
	g := gen.BarabasiAlbert(2000, 4, 9)
	w := ws.New(g.N())
	fifo := RunWS(g, 0.2, 1e-7, w, 0)
	w.Reset(g.N())
	prio := RunPrioritized(g, 0.2, 1e-7, w, 0)
	if float64(prio) > 1.05*float64(fifo) {
		t.Fatalf("prioritized pushes %d vs FIFO %d", prio, fifo)
	}
}
