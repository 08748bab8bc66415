package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"resacc/internal/algo"
	"resacc/internal/algo/power"
	"resacc/internal/dataset"
	"resacc/internal/graph"
)

const (
	setupLaunches = 15 // launches per run whose median is setup_s
	datasetBuilds = 3  // harness-side builds whose median is dataset.build_ms

	// minPrecision fails a run whose answers are well-formed but wrong: the
	// solver's ε guarantee keeps precision@10 near 1 on this graph.
	minPrecision = 0.5
)

// config is one benchmark run.
type config struct {
	rwrd     string // server binary
	workload string
	seed     uint64
	seconds  int
	trace    bool
	outDir   string // traced spans and the set-up log go here ("" = nowhere)
}

// checkError is a wrong answer or a broken workload invariant: the run's
// numbers do not mean what the benchmark says, so it is reported incorrect.
type checkError struct{ error }

func checkf(format string, args ...any) error {
	return checkError{fmt.Errorf(format, args...)}
}

// passResult is one deployment driven through the whole plan.
type passResult struct {
	e2e               map[string]float64
	layers            map[string]float64
	attempted, failed int
	answers           map[int32][]int32 // sample source → ranked ids
}

// runResult is one invocation: the untraced pass and, with tracing, the
// traced pass of the same seed.
type runResult struct {
	untraced, traced *passResult
	attempted        int
	failed           int
}

func runBenchmark(ctx context.Context, cfg config) (*runResult, error) {
	g, buildMS, err := buildDataset()
	if err != nil {
		return nil, err
	}
	p, err := makePlan(cfg.workload, cfg.seed, cfg.seconds, g)
	if err != nil {
		return nil, err
	}
	final, err := applyWrites(g, p.writes())
	if err != nil {
		return nil, err
	}
	var setupLog string
	if cfg.outDir != "" {
		setupLog = filepath.Join(cfg.outDir, "rwrd-setup.log")
	}
	setups, err := measureSetup(ctx, cfg.rwrd, setupLog, setupLaunches)
	if err != nil {
		return nil, err
	}
	res := &runResult{}
	passes := []bool{false}
	if cfg.trace {
		passes = append(passes, true)
	}
	for _, traced := range passes {
		pr, err := runPass(ctx, cfg, p, final, traced)
		if err != nil {
			return nil, err
		}
		pr.e2e["setup_s"] = median(setups)
		pr.layers["dataset.build_ms"] = buildMS
		res.attempted += pr.attempted
		res.failed += pr.failed
		if traced {
			res.traced = pr
		} else {
			res.untraced = pr
		}
	}
	truth, err := groundTruth(final, p.sample)
	if err != nil {
		return nil, err
	}
	for _, pr := range []*passResult{res.untraced, res.traced} {
		if pr == nil {
			continue
		}
		prec := precision(truth, pr.answers)
		if prec < minPrecision {
			return nil, checkf("precision@10 %.3f against power-iteration ground truth, want at least %v", prec, minPrecision)
		}
		pr.e2e["precision_at_10"] = prec
	}
	return res, nil
}

// buildDataset builds the served graph in this process, as rwrd does at
// start-up, and returns it with the median build time in ms.
func buildDataset() (*graph.Graph, float64, error) {
	var g *graph.Graph
	var times []float64
	for i := 0; i < datasetBuilds; i++ {
		t0 := time.Now()
		built, _, err := dataset.Build(datasetName, 1)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, ms(time.Since(t0)))
		g = built
	}
	return g, median(times), nil
}

// runPass starts a fresh server, sends the plan and stops the server. The
// counters are scraped just before and after the measured phase.
func runPass(ctx context.Context, cfg config, p plan, final *graph.Graph, traced bool) (pr *passResult, err error) {
	srv, _, err := launch(cfg.rwrd, "")
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := srv.stop(30 * time.Second); err == nil && serr != nil {
			err = serr
		}
	}()
	c := newClient(srv.base, final.N(), traced)
	defer c.close()

	warm := make([]outcome, len(p.warm))
	if err := c.run(ctx, p.warm, warm); err != nil {
		return nil, err
	}
	before, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	measured := make([]outcome, len(p.measure))
	var wall []time.Duration // per window
	for i := 0; i < len(p.measure); i += p.window {
		t := time.Now()
		if err := c.run(ctx, p.measure[i:i+p.window], measured[i:i+p.window]); err != nil {
			return nil, err
		}
		wall = append(wall, time.Since(t))
	}
	after, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := checkIsolation(cfg.workload, p, before, after, final); err != nil {
		return nil, err
	}

	pr = &passResult{answers: make(map[int32][]int32), layers: layerMetrics(p.measure, measured, before, after)}
	sample := make([]outcome, len(p.sample))
	for i, s := range p.sample {
		o, err := c.do(ctx, op{source: s}, true)
		if err != nil {
			return nil, err
		}
		if !o.ok() {
			return nil, checkf("sample read of source %d: status %d", s, o.status)
		}
		sample[i] = o
		pr.answers[s] = o.nodes
	}
	probe := make([]outcome, len(p.probe))
	if err := c.run(ctx, p.probe, probe); err != nil {
		return nil, err
	}

	// Read metrics are medians over the windows; writes are few, so their
	// p50 pools every timed batch.
	var qps, p50, p90, writeRTT []float64
	for w, d := range wall {
		var rtt []float64
		for i := w * p.window; i < (w+1)*p.window; i++ {
			switch o := measured[i]; {
			case !o.ok():
			case p.measure[i].isWrite():
				writeRTT = append(writeRTT, ms(o.rtt))
			default:
				rtt = append(rtt, ms(o.rtt))
			}
		}
		qps = append(qps, float64(len(rtt))/d.Seconds())
		p50 = append(p50, percentile(rtt, 0.5))
		p90 = append(p90, percentile(rtt, 0.9))
	}
	for _, o := range probe {
		if o.ok() {
			writeRTT = append(writeRTT, ms(o.rtt))
		}
	}
	for _, outs := range [][]outcome{warm, measured, sample, probe} {
		for _, o := range outs {
			pr.attempted++
			if !o.ok() {
				pr.failed++
			}
		}
	}
	pr.e2e = map[string]float64{
		"throughput_qps": median(qps),
		"read_p50_ms":    median(p50),
		"read_p90_ms":    median(p90),
		"write_p50_ms":   percentile(writeRTT, 0.5),
		"success_rate":   ratio(float64(pr.attempted-pr.failed), float64(pr.attempted)),
		"rss_mb":         rss,
	}
	if traced && cfg.outDir != "" {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := writeTrace(path, cfg, p.measure, measured, before, after); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// checkIsolation fails the pass when the measured phase did not exercise
// the layer its workload exists for, or the server's graph is not the one
// the harness's own accepted edits produce.
func checkIsolation(workload string, p plan, before, after scrape, final *graph.Graph) error {
	b, a := before.stats, after.stats
	switch workload {
	case "cold-topk":
		if hits := a.Engine.Hits - b.Engine.Hits; hits != 0 {
			return checkf("cold-topk: %v cache hits in the measured phase, want 0", hits)
		}
	case "hot-read":
		if misses := a.Engine.Misses - b.Engine.Misses; misses != 0 {
			return checkf("hot-read: %v cache misses in the measured phase, want 0", misses)
		}
	case "zipf-live":
		want := float64(len(p.measure) - reads(p.measure))
		if swaps := a.Live.Swaps - b.Live.Swaps; swaps != want {
			return checkf("zipf-live: %v swaps in the measured phase, want one per batch (%v)", swaps, want)
		}
	}
	if a.Edges != final.M() {
		return checkf("server holds %d edges after the measured phase, the accepted edits give %d", a.Edges, final.M())
	}
	return nil
}

// groundTruth returns the exact top-k ids of each sample source on g, by
// power iteration.
func groundTruth(g *graph.Graph, sample []int32) (map[int32][]int32, error) {
	params := algo.DefaultParams(g)
	out := make(map[int32][]int32, len(sample))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(sample); i += conns {
				pi, err := power.GroundTruth(g, sample[i], params)
				if err != nil {
					errs[w] = err
					return
				}
				top := topIDs(pi, topK)
				mu.Lock()
				out[sample[i]] = top
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// topIDs returns the k highest-scoring ids, ties broken by lower id.
func topIDs(scores []float64, k int) []int32 {
	ids := make([]int32, len(scores))
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		si, sj := scores[ids[i]], scores[ids[j]]
		if si != sj {
			return si > sj
		}
		return ids[i] < ids[j]
	})
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}

// precision is the mean share of each sample answer's ids that are in the
// exact top-k of its source.
func precision(truth, answers map[int32][]int32) float64 {
	sum := 0.0
	for s, want := range truth {
		in := make(map[int32]bool, len(want))
		for _, v := range want {
			in[v] = true
		}
		hit := 0
		for _, v := range answers[s] {
			if in[v] {
				hit++
			}
		}
		sum += float64(hit) / float64(len(want))
	}
	return ratio(sum, float64(len(truth)))
}

// span is one request at the rwrd boundary, with the engine time the answer
// reports as its child.
type span struct {
	ID       string  `json:"id"`
	Op       string  `json:"op"`
	Source   int32   `json:"source,omitempty"`
	StartUS  float64 `json:"start_us"`
	DurUS    float64 `json:"dur_us"`
	Status   int     `json:"status"`
	Children []child `json:"children,omitempty"`
}

type child struct {
	Name  string  `json:"name"`
	DurUS float64 `json:"dur_us"`
}

// writeTrace writes the traced pass's spans and the server's counter deltas
// over the measured phase.
func writeTrace(path string, cfg config, ops []op, outs []outcome, before, after scrape) error {
	spans := make([]span, len(outs))
	t0 := outs[0].start
	for i, o := range outs {
		s := span{ID: o.id, Op: "read", StartUS: float64(o.start.Sub(t0).Nanoseconds()) / 1e3,
			DurUS: float64(o.rtt.Nanoseconds()) / 1e3, Status: o.status}
		if ops[i].isWrite() {
			s.Op = "write"
		} else {
			s.Source = ops[i].source
			if o.ok() {
				s.Children = []child{{Name: "resacc.query", DurUS: o.queryMS * 1e3}}
			}
		}
		spans[i] = s
	}
	body, err := json.Marshal(map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"spans":         spans,
		"metrics_delta": seriesDeltas(before, after),
		"stats_before":  before.rawStats,
		"stats_after":   after.rawStats,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
