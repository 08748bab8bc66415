package bench

import (
	"context"
	"time"

	"resacc/internal/algo/bippr"
	"resacc/internal/algo/fora"
	"resacc/internal/algo/forward"
	"resacc/internal/algo/hubppr"
	"resacc/internal/core"
	"resacc/internal/eval"
	"resacc/internal/graph"
	"resacc/internal/workload"
)

// The X-series experiments are extensions beyond the paper, exercising the
// library features that have no counterpart figure: the certified top-k
// query, the HubPPR pairwise cache, push scheduling and the
// degree-relabeled memory layout.

func runX2TopK(cfg Config) error {
	names := cfg.Datasets
	if names == nil {
		names = []string{"dblp-s", "twitter-s"}
	}
	t := newTableCfg(cfg, "dataset", "k", "full query", "top-k query", "rounds", "precision vs truth")
	for _, name := range names {
		g, p, sources, err := graphOf(name, cfg)
		if err != nil {
			return err
		}
		tc := newTruthCacheDisk(g, p, cfg)
		for _, k := range []int{10, 100} {
			var full, topk time.Duration
			var prec float64
			rounds := 0
			for _, src := range sources {
				start := time.Now()
				if _, err := (core.Solver{}).SingleSource(g, src, p); err != nil {
					return err
				}
				full += time.Since(start)

				start = time.Now()
				est, err := (core.Solver{}).TopK(context.Background(), g, src, k, p,
					func(time.Time, core.Stats, error) { rounds++ })
				if err != nil {
					return err
				}
				topk += time.Since(start)

				truth, err := tc.get(src)
				if err != nil {
					return err
				}
				ideal := eval.TopK(truth, k)
				in := make(map[int32]bool, k)
				for _, v := range ideal {
					in[v] = true
				}
				hit := 0
				for _, v := range est.Nodes {
					if in[v] {
						hit++
					}
				}
				prec += float64(hit) / float64(len(ideal))
			}
			n := len(sources)
			t.row(name, k, full/time.Duration(n), topk/time.Duration(n),
				float64(rounds)/float64(n), prec/float64(n))
		}
	}
	t.flush()
	return nil
}

func runX3HubPPR(cfg Config) error {
	names := cfg.Datasets
	if names == nil {
		names = []string{"dblp-s"}
	}
	t := newTableCfg(cfg, "dataset", "method", "prep", "index", "1k pair queries", "mean abs err")
	for _, name := range names {
		g, p, sources, err := graphOf(name, cfg)
		if err != nil {
			return err
		}
		tc := newTruthCacheDisk(g, p, cfg)
		truth, err := tc.get(sources[0])
		if err != nil {
			return err
		}
		// Targets: the hubs (cache hits) plus uniform nodes (misses).
		targets, err := workload.Sources(g, workload.TopDegree, 20, cfg.Seed)
		if err != nil {
			return err
		}
		uni, err := workload.Sources(g, workload.Uniform, 30, cfg.Seed+1)
		if err != nil {
			return err
		}
		targets = append(targets, uni...)

		start := time.Now()
		ix, err := hubppr.BuildIndex(g, p, hubppr.Options{NHub: 32})
		if err != nil {
			return err
		}
		prep := time.Since(start)

		runPairs := func(pair func(s, t int32) (float64, error)) (time.Duration, float64, error) {
			start := time.Now()
			mae, count := 0.0, 0
			for rep := 0; rep < 1000/len(targets)+1; rep++ {
				for _, tgt := range targets {
					got, err := pair(sources[0], tgt)
					if err != nil {
						return 0, 0, err
					}
					if rep == 0 {
						mae += absDiff(got, truth[tgt])
						count++
					}
				}
			}
			return time.Since(start), mae / float64(count), nil
		}
		hubTime, hubErr, err := runPairs(func(s, tgt int32) (float64, error) {
			return ix.Pair(s, tgt, p)
		})
		if err != nil {
			return err
		}
		biTime, biErr, err := runPairs(func(s, tgt int32) (float64, error) {
			return bippr.Pair(g, s, tgt, p)
		})
		if err != nil {
			return err
		}
		t.row(name, "HubPPR", prep, fmtBytes(ix.Bytes()), hubTime, hubErr)
		t.row(name, "BiPPR", time.Duration(0), "0B", biTime, biErr)
	}
	t.flush()
	return nil
}

func runX4Scheduling(cfg Config) error {
	names := cfg.Datasets
	if names == nil {
		names = []string{"dblp-s", "webstan-s", "twitter-s"}
	}
	t := newTableCfg(cfg, "dataset", "schedule", "pushes", "time")
	for _, name := range names {
		g, p, sources, err := graphOf(name, cfg)
		if err != nil {
			return err
		}
		rmax := p.RMaxF
		run := func(label string, exec func(st *forward.State)) {
			start := time.Now()
			var pushes int64
			for _, src := range sources {
				st := forward.NewState(g.N(), src)
				exec(st)
				pushes += st.Pushes
			}
			t.row(name, label, pushes/int64(len(sources)), time.Since(start)/time.Duration(len(sources)))
		}
		run("FIFO", func(st *forward.State) { forward.Run(g, p.Alpha, rmax, st) })
		run("max-residue-first", func(st *forward.State) { forward.RunPrioritized(g, p.Alpha, rmax, st) })
	}
	t.flush()
	return nil
}

func runX5Relabel(cfg Config) error {
	names := cfg.Datasets
	if names == nil {
		names = []string{"twitter-s"}
	}
	t := newTableCfg(cfg, "dataset", "layout", "ResAcc query", "FORA query")
	for _, name := range names {
		g, p, sources, err := graphOf(name, cfg)
		if err != nil {
			return err
		}
		rg, _, toNew := graph.RelabelByDegree(g)
		relabeledSources := make([]int32, len(sources))
		for i, s := range sources {
			relabeledSources[i] = toNew[s]
		}
		for _, layout := range []struct {
			label   string
			g       *graph.Graph
			sources []int32
		}{
			{"original", g, sources},
			{"degree-relabeled", rg, relabeledSources},
		} {
			res, err := timeSolver(layout.g, core.Solver{}, layout.sources, p)
			if err != nil {
				return err
			}
			fr, err := timeSolver(layout.g, fora.Solver{}, layout.sources, p)
			if err != nil {
				return err
			}
			t.row(name, layout.label, res, fr)
		}
	}
	t.flush()
	return nil
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
