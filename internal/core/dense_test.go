package core

import (
	"math"
	"testing"

	"resacc/internal/algo"
	"resacc/internal/eval"
	"resacc/internal/graph"
	"resacc/internal/graph/gen"
	"resacc/internal/ws"
)

// TestDenseSwitchDefaultEngagesAndMeetsGuarantee: at the default
// DenseSwitch the h-HopFWD cascade on a non-trivial graph escalates to
// sweeps, and the end-to-end (ε,δ) guarantee still holds — the sweep is the
// same push operator, so the theory is untouched.
func TestDenseSwitchDefaultEngagesAndMeetsGuarantee(t *testing.T) {
	g := gen.RMAT(10, 6, 7)
	p := algo.DefaultParams(g)
	p.Seed = 21
	s := Solver{}
	w := ws.New(g.N())
	stats := s.QueryWS(g, 0, p, w)
	if stats.HopSweeps == 0 {
		t.Fatalf("default DenseSwitch never engaged on RMAT(10,6): %+v", stats)
	}
	est := w.ExtractScores()
	truth := groundTruth(t, g, 0, p)
	if rel := eval.MaxRelErrAbove(truth, est, p.Delta); rel > p.Epsilon {
		t.Fatalf("dense path: max rel err %v > ε=%v", rel, p.Epsilon)
	}
}

// TestDenseSwitchEquivalentToQueueDrain: enabled vs disabled dense backend
// agree within the combined residual bound after the push phases (compared
// pre-remedy, where the difference is purely float summation order on the
// same quiescent state family).
func TestDenseSwitchEquivalentToQueueDrain(t *testing.T) {
	g := gen.RMAT(10, 6, 13)
	p := algo.DefaultParams(g)
	p.Seed = 3
	p.MaxWalks = 1 // mute the remedy phase: its RNG stream consumption differs run-to-run here

	wQ := ws.New(g.N())
	stQ := Solver{DenseSwitch: -1}.QueryWS(g, 1, p, wQ)
	wD := ws.New(g.N())
	stD := Solver{}.QueryWS(g, 1, p, wD)
	if stD.HopSweeps == 0 {
		t.Fatal("dense backend never engaged; comparison is vacuous")
	}
	if stQ.HopSweeps != 0 {
		t.Fatal("disabled dense backend swept anyway")
	}
	bound := stQ.RSumAfterOMFWD + stD.RSumAfterOMFWD + 1e-12
	for v := 0; v < g.N(); v++ {
		if diff := math.Abs(wQ.Reserve[v] - wD.Reserve[v]); diff > bound {
			t.Fatalf("node %d: |queue−dense| = %v > residual bound %v", v, diff, bound)
		}
	}
}

// TestScoreRemapTranslationBitIdentity is the satellite translation-layer
// test: solving on the relabeled graph with ScoreRemap set must equal —
// bit for bit — solving on the relabeled graph without it and permuting
// the scores by hand. The remap is pure bookkeeping; it must never touch a
// float.
func TestScoreRemapTranslationBitIdentity(t *testing.T) {
	g := gen.BarabasiAlbert(400, 4, 9)
	rg, toOld, toNew := graph.RelabelByDegree(g)
	p := algo.DefaultParams(g)
	p.Seed = 77
	srcOld := int32(5)
	srcNew := toNew[srcOld]

	plain, _, err := Solver{}.Query(rg, srcNew, p)
	if err != nil {
		t.Fatal(err)
	}
	manual := make([]float64, g.N())
	for v, score := range plain {
		manual[toOld[v]] = score
	}

	remapped, _, err := Solver{ScoreRemap: toOld}.Query(rg, srcNew, p)
	if err != nil {
		t.Fatal(err)
	}
	for v := range manual {
		if math.Float64bits(manual[v]) != math.Float64bits(remapped[v]) {
			t.Fatalf("node %d: remapped %v vs manual %v", v, remapped[v], manual[v])
		}
	}
}
