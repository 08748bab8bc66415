// Benchmarks, one per table and figure of the paper's evaluation, plus
// micro-benchmarks of the core primitives.
//
// Two layers:
//
//   - BenchmarkQueryTable3/... time individual SSRWR queries per dataset and
//     algorithm — these ARE the numbers of Table III, reported as ns/op.
//   - BenchmarkTable*/BenchmarkFig* run the corresponding experiment of
//     internal/bench end to end (at a reduced scale, output discarded);
//     `go run ./cmd/benchtab -exp <id>` prints the same experiment as the
//     paper's rows/series at full scale.
package resacc

import (
	"io"
	"slices"
	"sync/atomic"
	"testing"

	"resacc/internal/algo"
	"resacc/internal/algo/forward"
	"resacc/internal/bench"
	"resacc/internal/core"
	"resacc/internal/dataset"
	"resacc/internal/rng"
	"resacc/internal/ws"
)

const (
	benchScale   = 0.05
	benchSources = 2
)

// benchExperiment runs one experiment of the harness per iteration.
func benchExperiment(b *testing.B, id string, datasets ...string) {
	b.Helper()
	cfg := bench.Config{Scale: benchScale, Sources: benchSources, Seed: 1, Out: io.Discard}
	if len(datasets) > 0 {
		cfg.Datasets = datasets
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bench.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) { benchExperiment(b, "T3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "T4") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "F4", "dblp-s", "twitter-s") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "F5", "dblp-s", "twitter-s") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "F6", "dblp-s") }
func BenchmarkFig7to10(b *testing.B) {
	benchExperiment(b, "F7", "dblp-s")
}
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "T5", "facebook-s") }
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "T6", "facebook-s") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "F11") }
func BenchmarkFig12to13(b *testing.B) {
	benchExperiment(b, "F12", "dblp-s")
}
func BenchmarkFig14to15(b *testing.B) {
	benchExperiment(b, "F14", "dblp-s")
}
func BenchmarkFig16to17(b *testing.B) {
	benchExperiment(b, "F16", "dblp-s")
}
func BenchmarkFig18to20(b *testing.B) {
	benchExperiment(b, "F18", "dblp-s")
}
func BenchmarkFig21(b *testing.B)  { benchExperiment(b, "F21", "webstan-s") }
func BenchmarkFig22(b *testing.B)  { benchExperiment(b, "F22") }
func BenchmarkFig23(b *testing.B)  { benchExperiment(b, "F23", "dblp-s") }
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "T7") }
func BenchmarkFig24(b *testing.B)  { benchExperiment(b, "F24", "dblp-s", "twitter-s") }
func BenchmarkExtTopK(b *testing.B) {
	benchExperiment(b, "X2", "webstan-s")
}
func BenchmarkExtHubPPR(b *testing.B) {
	benchExperiment(b, "X3", "webstan-s")
}

// --- per-query benchmarks: the raw numbers behind Table III ---------------

func benchQuery(b *testing.B, ds string, mk func(g *Graph) Solver) {
	b.Helper()
	g, info, err := dataset.Build(ds, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultParams(g)
	p.H = info.H
	s := mk(g)
	srcs := []int32{1, int32(g.N() / 3), int32(g.N() / 2)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SingleSource(g, srcs[i%len(srcs)], p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryTable3(b *testing.B) {
	for _, ds := range []string{"dblp-s", "webstan-s", "pokec-s", "twitter-s"} {
		ds := ds
		for _, alg := range []string{AlgPower, AlgForward, AlgMonteCarlo, AlgFORA, AlgResAcc} {
			alg := alg
			b.Run(ds+"/"+alg, func(b *testing.B) {
				benchQuery(b, ds, func(g *Graph) Solver {
					s, err := NewSolver(alg)
					if err != nil {
						b.Fatal(err)
					}
					return s
				})
			})
		}
	}
}

// --- primitive micro-benchmarks --------------------------------------------

// BenchmarkForwardPush times one forward search (the FWD baseline's
// drain) from source 1, workspace reset included, on one reused workspace.
func BenchmarkForwardPush(b *testing.B) {
	g := dataset.MustBuild("twitter-s", 0.1)
	p := algo.DefaultParams(g)
	w := ws.New(g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset(g.N())
		forward.RunWS(g, p.Alpha, p.RMaxF, w, 1)
	}
}

func BenchmarkRandomWalk(b *testing.B) {
	g := dataset.MustBuild("twitter-s", 0.1)
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.Walk(g, int32(i%g.N()), 0.2, r)
	}
}

func BenchmarkHHopFWDPhase(b *testing.B) {
	g := dataset.MustBuild("twitter-s", 0.1)
	p := algo.DefaultParams(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := (core.Solver{}).Query(g, 1, p)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemedyPhase times the remedy phase alone: algo.Remedy at
// workers 1 on the post-push residues of rwrd's first top-k round
// (webstan-s at scale 1, NScale 1/8, p_f/4) for the first 8 sources of
// BenchmarkQueryTopK's rotation. The remedy never writes residues, so one
// QueryWS per source leaves them in the workspace; each iteration restores
// its source's residues into a reset workspace outside the timer.
func BenchmarkRemedyPhase(b *testing.B) {
	g := dataset.MustBuild("webstan-s", 1)
	p := DefaultParams(g)
	p.NScale, p.PFail = 1.0/8, p.PFail/4
	r := rng.New(1)
	w := ws.New(g.N())
	type pushed struct {
		dirty   []int32
		residue []float64
	}
	srcs := make([]pushed, 8)
	for i := range srcs {
		core.Solver{}.QueryWS(g, int32(r.Intn(g.N())), p, w)
		srcs[i].dirty = slices.Clone(w.Dirty.Touched())
		for _, v := range srcs[i].dirty {
			srcs[i].residue = append(srcs[i].residue, w.Residue[v])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		src := srcs[i%len(srcs)]
		w.Reset(g.N())
		for j, v := range src.dirty {
			w.SetResidue(v, src.residue[j])
		}
		b.StartTimer()
		algo.Remedy(g, p, w, nil)
	}
}

// BenchmarkHHopFWDPhaseNoSweep is BenchmarkHHopFWDPhase with the
// dense-sweep backend disabled — the pre-powerpush queue-only drain. The
// pair quantifies the switchover's effect on a dense whole-graph cascade;
// keep both rows in BENCH_resacc.json so a regression in either backend is
// attributable.
func BenchmarkHHopFWDPhaseNoSweep(b *testing.B) {
	g := dataset.MustBuild("twitter-s", 0.1)
	p := algo.DefaultParams(g)
	s := core.Solver{DenseSwitch: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := s.Query(g, 1, p)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryPooledRepeat is the steady-state serving shape: the same
// query answered again and again on one warmed workspace (what a cache-miss
// recomputation costs inside the engine). Expect 0 allocs/op — the
// allocation regression tests pin the same property.
func BenchmarkQueryPooledRepeat(b *testing.B) {
	g := dataset.MustBuild("twitter-s", 0.1)
	p := algo.DefaultParams(g)
	s := core.Solver{}
	w := ws.New(g.N())
	s.QueryWS(g, 1, p, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.QueryWS(g, 1, p, w)
	}
}

// BenchmarkQueryTopK is the cold top-k read behind an rwrd cache miss:
// webstan-s at scale 1 under rwrd's default parameters, k = 10, sources
// from a fixed seeded rotation of uniform draws. rounds/op counts solver
// rounds through a query hook; 1 means every query certified in its
// first, eighth-budget round.
func BenchmarkQueryTopK(b *testing.B) {
	g := dataset.MustBuild("webstan-s", 1)
	p := DefaultParams(g)
	r := rng.New(1)
	srcs := make([]int32, 64)
	for i := range srcs {
		srcs[i] = int32(r.Intn(g.N()))
	}
	var rounds atomic.Int64
	remove := RegisterQueryHook(func(ev QueryEvent) {
		if ev.Graph == g {
			rounds.Add(1)
		}
	})
	defer remove()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := QueryTopK(g, srcs[i%len(srcs)], 10, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rounds.Load())/float64(b.N), "rounds/op")
}

func BenchmarkCommunityDetection(b *testing.B) {
	benchExperiment(b, "T6", "facebook-s")
}
