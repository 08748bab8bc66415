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
	"fmt"
	"io"
	"runtime"
	"testing"

	"resacc/internal/algo"
	"resacc/internal/algo/alias"
	"resacc/internal/algo/forward"
	"resacc/internal/bench"
	"resacc/internal/core"
	"resacc/internal/dataset"
	"resacc/internal/graph/gen"
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
func BenchmarkExtParallel(b *testing.B) {
	benchExperiment(b, "X1", "webstan-s")
}
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

func BenchmarkForwardPush(b *testing.B) {
	g := dataset.MustBuild("twitter-s", 0.1)
	p := algo.DefaultParams(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := forward.NewState(g.N(), 1)
		forward.Run(g, p.Alpha, p.RMaxF, st)
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

// BenchmarkRandomWalkAlias is BenchmarkRandomWalk through the Vose alias
// table: one fused RNG draw per step instead of restart-then-neighbour
// draws. Build cost is excluded — serving builds once per snapshot and
// amortizes it over every query.
func BenchmarkRandomWalkAlias(b *testing.B) {
	g := dataset.MustBuild("twitter-s", 0.1)
	t := alias.Build(g, 0.2)
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Walk(int32(i%g.N()), r)
	}
}

// BenchmarkQueryPooledRepeatAlias is the steady-state repeat query with
// alias-table walk sampling, the -alias-walks serving configuration.
func BenchmarkQueryPooledRepeatAlias(b *testing.B) {
	g := dataset.MustBuild("twitter-s", 0.1)
	p := algo.DefaultParams(g)
	s := core.Solver{Alias: alias.Build(g, p.Alpha)}
	w := ws.New(g.N())
	s.QueryWS(g, 1, p, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.QueryWS(g, 1, p, w)
	}
}

// BenchmarkPushParallel measures the round-synchronous parallel push drain
// against the sequential one on a ~1M-edge RMAT graph, isolating the push
// phase (no remedy walks, no updating phase). workers=1 is the classic
// sequential drain; higher counts engage the frontier engine from the
// first push. Expect 0 B/op after warm-up at every worker count — the
// engine, accumulators and frontier buffers are all pooled. Wall-clock
// speedup requires real cores: on a single-CPU machine the parallel
// variants only measure round overhead.
func BenchmarkPushParallel(b *testing.B) {
	g := gen.RMAT(17, 9, 7) // 131k nodes, ~1.12M edges after dedup
	p := algo.DefaultParams(g)
	const src = 1
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			if workers > runtime.GOMAXPROCS(0) {
				// Without the cores the measurement is pure round overhead —
				// noise that would trip the ns/op regression gate. The skip
				// is visible in the -bench output, so a multi-core run still
				// reports every worker count.
				b.Skipf("workers=%d > GOMAXPROCS=%d: no cores to measure scaling on", workers, runtime.GOMAXPROCS(0))
			}
			cfg := forward.PushConfig{Workers: workers, EngageMass: 1}
			w := ws.New(g.N())
			run := func() {
				w.Reset(g.N())
				w.SetResidue(src, 1)
				var st forward.State
				st.Reserve, st.Residue = w.Reserve, w.Residue
				st.Track = &w.Dirty
				st.UseScratch(&w.InQueue, w.Queue)
				w.Seeds = append(w.Seeds[:0], src)
				forward.RunFromPar(g, p.Alpha, p.RMaxF, &st, w.Seeds, false, nil, cfg)
				w.Queue = st.TakeQueue()
			}
			run() // warm up pools and workspace capacity
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
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

func BenchmarkCommunityDetection(b *testing.B) {
	benchExperiment(b, "T6", "facebook-s")
}
