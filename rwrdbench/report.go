package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the harness reads: the metric
// names and units it must print, and the bounds its comparison applies.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// layer is one row of the layer map: the repo module it is named after, the
// per-layer metrics measured for it, and which end-to-end metric each
// should move on which workload.
type layer struct {
	name, module, moves string
	metrics             []string
}

var layerMap = []layer{
	{"rwrd", "cmd/rwrd: mux, middleware, request log, JSON encode; self = round trip - query_ms",
		"self time moves read_p50_ms and throughput_qps on hot-read; non200 moves success_rate everywhere",
		[]string{"rwrd.self_ms_p50", "rwrd.self_ms_p90", "rwrd.non200"}},
	{"resacc", "Engine.QueryTopK, as timed by the answer's query_ms",
		"moves read_p50_ms and read_p90_ms on cold-topk and zipf-live",
		[]string{"resacc.query_ms_p50", "resacc.query_ms_p90"}},
	{"serve", "internal/serve: result cache, singleflight, admission",
		"hit ratio and misses move throughput_qps and read_p90_ms on zipf-live; cache_ms_mean moves read_p50_ms on hot-read; compute_ms_mean moves throughput_qps on cold-topk",
		[]string{"serve.hit_ratio", "serve.misses", "serve.joins", "serve.shed", "serve.cache_ms_mean", "serve.compute_ms_mean"}},
	{"topk", "topk.go: adaptive top-k refinement rounds",
		"moves throughput_qps on cold-topk",
		[]string{"topk.rounds_per_miss"}},
	{"core", "internal/core: h-HopFWD, OMFWD and remedy over the forward, powerpush and walk kernels",
		"moves throughput_qps and read_p50_ms on cold-topk, read_p90_ms on zipf-live",
		[]string{"core.hopfwd_ms_per_round", "core.omfwd_ms_per_round", "core.remedy_ms_per_round", "core.walks_per_round"}},
	{"hotset", "internal/hotset: walk-endpoint store, traffic sketch, warmer",
		"hits move read_p90_ms on zipf-live; builds and walk share move throughput_qps on cold-topk and hot-read; bytes move rss_mb",
		[]string{"hotset.hits", "hotset.partial", "hotset.builds", "hotset.build_ms_mean", "hotset.bytes", "hotset.warmer_walk_share"}},
	{"live", "internal/live: edit batches, snapshot swaps, cache invalidation",
		"swap time moves write_p50_ms on zipf-live; scoped share and invalidations move serve.hit_ratio, and through it throughput_qps, on zipf-live",
		[]string{"live.swaps", "live.scoped_swaps", "live.full_swaps", "live.invalidated", "live.swap_ms_mean"}},
	{"pressure", "internal/pressure: sojourn admission, brownout",
		"moves success_rate",
		[]string{"pressure.sheds", "pressure.degraded"}},
	{"runtime", "rwrd's go_* families",
		"moves read_p90_ms and rss_mb, mostly on hot-read",
		[]string{"runtime.alloc_kb_per_read", "runtime.gc_per_1k_reads"}},
	{"dataset", "internal/dataset: the served graph, built in the harness process",
		"moves setup_s",
		[]string{"dataset.build_ms"}},
}

// worseBy is how much worse cur is than base, as a share of base, in the
// metric's direction: positive is a regression.
func (m metricSpec) worseBy(base, cur float64) float64 {
	w := ratio(cur-base, base)
	if m.Better == "higher" {
		return -w
	}
	return w
}

func unitOf(list []metricSpec, name string) string {
	for _, m := range list {
		if m.Name == name {
			return m.Unit
		}
	}
	return "?"
}

func printEndToEnd(w io.Writer, spec *benchSpec, workload string, e2e map[string]float64) {
	fmt.Fprintf(w, "%s end to end\n", workload)
	for _, m := range spec.EndToEnd {
		fmt.Fprintf(w, "  %-18s %12.4f %s\n", m.Name, e2e[m.Name], m.Unit)
	}
}

// printLayerReport prints the layer map, the end-to-end metrics of both
// passes with the tracing overhead, and the traced pass's per-layer metrics.
func printLayerReport(w io.Writer, spec *benchSpec, cfg config, res *runResult) {
	fmt.Fprintf(w, "layer map (workload %s, seed %d)\n", cfg.workload, cfg.seed)
	for _, l := range layerMap {
		fmt.Fprintf(w, "  %-9s %s\n            moves: %s\n", l.name, l.module, l.moves)
	}
	fmt.Fprintf(w, "\nend to end      %14s %14s %10s\n", "untraced", "traced", "overhead")
	for _, m := range spec.EndToEnd {
		u, t := res.untraced.e2e[m.Name], res.traced.e2e[m.Name]
		fmt.Fprintf(w, "  %-16s %12.4f %12.4f %9.2f%%  %s\n", m.Name, u, t, 100*m.worseBy(u, t), m.Unit)
	}
	fmt.Fprintln(w, "\nper layer (traced pass)")
	for _, l := range layerMap {
		for _, name := range l.metrics {
			fmt.Fprintf(w, "  %-26s %14.4f %s\n", name, res.traced.layers[name], unitOf(spec.PerLayer, name))
		}
	}
	if cfg.workload == "cold-topk" {
		fmt.Fprintln(w)
		printAttribution(w, res.traced.layers)
	}
}

// printAttribution states how much of the engine's compute time per miss
// the core phase times explain, against the <15% unattributed target.
func printAttribution(w io.Writer, l map[string]float64) {
	compute := l["serve.compute_ms_mean"]
	rounds := l["topk.rounds_per_miss"]
	core := rounds * (l["core.hopfwd_ms_per_round"] + l["core.omfwd_ms_per_round"] + l["core.remedy_ms_per_round"])
	gap := 1 - ratio(core, compute)
	fmt.Fprintf(w, "attribution: core phases explain %.1f%% of serve.compute_ms_mean (%.3f of %.3f ms per miss, %.2f rounds); unattributed %.1f%%",
		100*ratio(core, compute), core, compute, rounds, 100*gap)
	if gap < 0.15 {
		fmt.Fprintln(w, ", within the 15% target")
		return
	}
	fmt.Fprintln(w, ", above the 15% target: the gap is the admission-queue wait, per-round solver set-up and top-k ranking between rounds, which no phase timer covers")
}

// runSet is a saved -repeat set: one workload's end-to-end metrics per seed.
type runSet struct {
	Workload string               `json:"workload"`
	Seconds  int                  `json:"seconds"`
	Runs     []map[string]float64 `json:"runs"`
	Seeds    []uint64             `json:"seeds"`
}

func (s runSet) values(name string) []float64 {
	out := make([]float64, len(s.Runs))
	for i, r := range s.Runs {
		out[i] = r[name]
	}
	return out
}

// repeatRuns runs cfg's workload count times on consecutive seeds and prints
// each end-to-end metric's median, quartiles and spread against its bound.
func repeatRuns(w io.Writer, spec *benchSpec, cfg config, count int, save string) error {
	set := runSet{Workload: cfg.workload, Seconds: cfg.seconds}
	cfg.trace = false
	for i := 0; i < count; i++ {
		run := cfg
		run.seed = cfg.seed + uint64(i)
		ctx, cancel := context.WithTimeout(context.Background(), runLimit)
		res, err := runBenchmark(ctx, run)
		cancel()
		if err != nil {
			return fmt.Errorf("seed %d: %w", run.seed, err)
		}
		set.Runs = append(set.Runs, res.untraced.e2e)
		set.Seeds = append(set.Seeds, run.seed)
		var parts []string
		for _, m := range spec.EndToEnd {
			parts = append(parts, fmt.Sprintf("%s=%.4g", m.Name, res.untraced.e2e[m.Name]))
		}
		fmt.Fprintf(w, "seed %d: %s\n", run.seed, strings.Join(parts, " "))
	}
	fmt.Fprintf(w, "\n%s, %d runs\n  %-16s %12s %12s %12s %8s %8s\n", cfg.workload, count, "metric", "median", "q1", "q3", "spread", "bound")
	for _, m := range spec.EndToEnd {
		xs := set.values(m.Name)
		q1, q3 := quartiles(xs)
		fmt.Fprintf(w, "  %-16s %12.4f %12.4f %12.4f %7.1f%% %7.0f%%\n", m.Name, median(xs), q1, q3, 100*spread(xs), 100*m.Bound)
	}
	if save == "" {
		return nil
	}
	body, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(save, body, 0o644)
}

// compareSets checks two saved sets of one workload against the spec: each
// metric's spread, setup_s's excepted, stays within its bound in both sets,
// and the second set's median is not worse than the first's by more than
// the bound. It reports whether every metric passes.
func compareSets(w io.Writer, spec *benchSpec, basePath, newPath string) (bool, error) {
	var sets [2]runSet
	for i, path := range []string{basePath, newPath} {
		body, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(body, &sets[i]); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
		if len(sets[i].Runs) < 2 {
			return false, fmt.Errorf("%s: %d runs, need at least 2", path, len(sets[i].Runs))
		}
	}
	if sets[0].Workload != sets[1].Workload || sets[0].Seconds != sets[1].Seconds {
		return false, fmt.Errorf("sets differ: %s/%ds vs %s/%ds", sets[0].Workload, sets[0].Seconds, sets[1].Workload, sets[1].Seconds)
	}
	fmt.Fprintf(w, "%s: %s vs %s\n  %-16s %12s %12s %8s %8s %8s %7s\n", sets[0].Workload, basePath, newPath,
		"metric", "base median", "new median", "worse", "spreads", "", "bound")
	all := true
	for _, m := range spec.EndToEnd {
		a, b := sets[0].values(m.Name), sets[1].values(m.Name)
		ma, mb := median(a), median(b)
		worse := m.worseBy(ma, mb)
		sa, sb := spread(a), spread(b)
		ok := worse <= m.Bound
		if m.Name != "setup_s" {
			ok = ok && sa <= m.Bound && sb <= m.Bound
		}
		verdict := "ok"
		if !ok {
			verdict, all = "FAIL", false
		}
		fmt.Fprintf(w, "  %-16s %12.4f %12.4f %7.1f%% %7.1f%% %7.1f%% %6.0f%%  %s\n",
			m.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
	}
	return all, nil
}
