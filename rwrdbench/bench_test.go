package main

import (
	"context"
	"math"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"resacc/internal/dataset"
	"resacc/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, _, err := dataset.Build("webstan-s", 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPlanSameSeedSameSequence(t *testing.T) {
	g := testGraph(t)
	for _, w := range workloads {
		a, err := makePlan(w, 7, 2, g)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makePlan(w, 7, 2, g)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans of seed 7 differ", w)
		}
		c, _ := makePlan(w, 8, 2, g)
		if reflect.DeepEqual(a.measure, c.measure) {
			t.Errorf("%s: seeds 7 and 8 give the same measured sequence", w)
		}
	}
}

func TestColdTopkNeverRepeatsASource(t *testing.T) {
	p, err := makePlan("cold-topk", 3, 20, testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int32]bool)
	for _, o := range append(append([]op(nil), p.warm...), p.measure...) {
		if o.isWrite() {
			t.Fatal("cold-topk phase holds a write")
		}
		if seen[o.source] {
			t.Fatalf("source %d read twice", o.source)
		}
		seen[o.source] = true
	}
	if got, want := len(p.measure), coldPerSec*20; got != want {
		t.Errorf("%d measured reads, want %d", got, want)
	}
}

func TestZipfLiveShape(t *testing.T) {
	p, err := makePlan("zipf-live", 5, 20, testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.warm) != segmentReads || reads(p.warm) != segmentReads {
		t.Errorf("warm-up is %d ops, want one segment of %d reads", len(p.warm), segmentReads)
	}
	// Every measured segment is one batch followed by segmentReads reads.
	seg := segmentReads + 1
	if len(p.measure)%seg != 0 {
		t.Fatalf("%d measured ops is not whole segments of %d", len(p.measure), seg)
	}
	for i, o := range p.measure {
		if o.isWrite() != (i%seg == 0) {
			t.Fatalf("op %d: write=%v breaks the batch-then-%d-reads cycle", i, o.isWrite(), segmentReads)
		}
	}
}

func TestZipfLiveKeepsEdgeCountStationary(t *testing.T) {
	g := testGraph(t)
	p, err := makePlan("zipf-live", 9, 20, g)
	if err != nil {
		t.Fatal(err)
	}
	writes := p.writes()
	if len(writes) < 2 {
		t.Fatalf("%d batches, want several", len(writes))
	}
	dyn := graph.NewDynamic(g)
	for i, w := range writes {
		if len(w.add) != batchAdds {
			t.Fatalf("batch %d inserts %d edges, want %d", i, len(w.add), batchAdds)
		}
		// Every edit must take effect, or the server would report noops.
		for _, e := range w.add {
			if dyn.HasEdge(e[0], e[1]) {
				t.Fatalf("batch %d inserts existing edge %v", i, e)
			}
			if err := dyn.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range w.remove {
			if !dyn.HasEdge(e[0], e[1]) {
				t.Fatalf("batch %d removes absent edge %v", i, e)
			}
			if err := dyn.RemoveEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := dyn.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := snap.M(), g.M()+batchAdds; got != want {
			t.Fatalf("after batch %d: %d edges, want %d", i, got, want)
		}
	}
	final, err := applyWrites(g, writes)
	if err != nil {
		t.Fatal(err)
	}
	if final.M() != g.M()+batchAdds {
		t.Errorf("final graph has %d edges, want %d", final.M(), g.M()+batchAdds)
	}
}

func TestZipfRanksFollowTheLaw(t *testing.T) {
	z := newZipf(universe, zipfS)
	if z.rank(0) != 0 || z.rank(1) != universe-1 {
		t.Errorf("rank(0)=%d rank(1)=%d, want 0 and %d", z.rank(0), z.rank(1), universe-1)
	}
	// P(rank 0) / P(rank 1) = 2^s.
	p0, p1 := z.cdf[0], z.cdf[1]-z.cdf[0]
	if got := p0 / p1; math.Abs(got-math.Pow(2, zipfS)) > 1e-9 {
		t.Errorf("P(0)/P(1) = %v, want %v", got, math.Pow(2, zipfS))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples is not 0")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for each data set.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP rwr_engine_latency_seconds Engine answer latency.
# TYPE rwr_engine_latency_seconds histogram
rwr_engine_latency_seconds_bucket{path="cache",le="+Inf"} 12
rwr_engine_latency_seconds_sum{path="cache"} 0.0031
go_gc_cycles_total 7
rwr_query_walks_sum 1.6777216e+07 1700000000000

rwr_live_backlog_frac 0
`
	got, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		`rwr_engine_latency_seconds_bucket{path="cache",le="+Inf"}`: 12,
		`rwr_engine_latency_seconds_sum{path="cache"}`:              0.0031,
		"go_gc_cycles_total":    7,
		"rwr_query_walks_sum":   16777216,
		"rwr_live_backlog_frac": 0,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %v, want %v", got, want)
	}
	for _, bad := range []string{"lonely_name", `x{a="b" 1`, "x one", "x 1 2 3"} {
		if _, err := parseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("parseMetrics(%q) accepted a malformed line", bad)
		}
	}
}

func TestAnswerCheck(t *testing.T) {
	good := func() answer {
		var a answer
		a.Source, a.K, a.QueryMS = 3, topK, 1.5
		for i := 0; i < topK; i++ {
			a.Results = append(a.Results, ranked{int32(i), 0.5 - float64(i)*0.01})
		}
		return a
	}
	if err := good().check(3, 100); err != nil {
		t.Fatalf("well-formed answer rejected: %v", err)
	}
	for name, mutate := range map[string]func(*answer){
		"other source":     func(a *answer) { a.Source = 4 },
		"short":            func(a *answer) { a.Results = a.Results[:topK-1] },
		"id out of range":  func(a *answer) { a.Results[2].Node = 100 },
		"negative id":      func(a *answer) { a.Results[2].Node = -1 },
		"score above 1":    func(a *answer) { a.Results[0].Score = 1.5 },
		"negative score":   func(a *answer) { a.Results[topK-1].Score = -0.1 },
		"NaN score":        func(a *answer) { a.Results[4].Score = math.NaN() },
		"increasing score": func(a *answer) { a.Results[5].Score = 0.9 },
		"degraded":         func(a *answer) { a.Degraded = true },
	} {
		a := good()
		mutate(&a)
		if a.check(3, 100) == nil {
			t.Errorf("%s: malformed answer accepted", name)
		}
	}
}

func TestSpecMatchesLayerMap(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mapped []string
	for _, l := range layerMap {
		mapped = append(mapped, l.metrics...)
	}
	var listed []string
	for _, m := range spec.PerLayer {
		listed = append(listed, m.Name)
	}
	if !reflect.DeepEqual(mapped, listed) {
		t.Errorf("layer map metrics %v\nBENCHMARK.json per_layer %v", mapped, listed)
	}
}

// TestWorkloadsIsolateTheirLayer drives each workload, shortened, through a
// real rwrd built from this checkout and checks the counters the workload
// exists for.
func TestWorkloadsIsolateTheirLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs rwrd")
	}
	bin := filepath.Join(t.TempDir(), "rwrd")
	if out, err := exec.Command("go", "build", "-o", bin, "resacc/cmd/rwrd").CombinedOutput(); err != nil {
		t.Fatalf("build rwrd: %v\n%s", err, out)
	}
	g := testGraph(t)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	for _, w := range workloads {
		p, err := makePlan(w, 1, 2, g)
		if err != nil {
			t.Fatal(err)
		}
		final, err := applyWrites(g, p.writes())
		if err != nil {
			t.Fatal(err)
		}
		// runPass fails on a broken invariant; the checks below restate
		// the ones each workload is built on.
		pr, err := runPass(ctx, config{rwrd: bin, workload: w, seed: 1, seconds: 2}, p, final, true)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		l := pr.layers
		switch w {
		case "cold-topk":
			if l["serve.hit_ratio"] != 0 || l["serve.misses"] != float64(len(p.measure)) {
				t.Errorf("cold-topk: hit ratio %v with %v misses, want 0 and %d", l["serve.hit_ratio"], l["serve.misses"], len(p.measure))
			}
		case "hot-read":
			if l["serve.misses"] != 0 || l["serve.hit_ratio"] != 1 {
				t.Errorf("hot-read: %v misses, hit ratio %v; want 0 and 1", l["serve.misses"], l["serve.hit_ratio"])
			}
		case "zipf-live":
			if want := float64(len(p.writes())); l["live.swaps"] != want {
				t.Errorf("zipf-live: %v swaps, want %v", l["live.swaps"], want)
			}
		}
		if pr.failed != 0 || pr.e2e["success_rate"] != 1 {
			t.Errorf("%s: %d of %d operations failed", w, pr.failed, pr.attempted)
		}
	}
}
