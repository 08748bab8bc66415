package bench

import (
	"bytes"
	"strings"
	"testing"

	"resacc/internal/algo"
	"resacc/internal/graph"
)

// microCfg runs experiments at the smallest scale that still exercises
// every code path; the full-size runs live in cmd/benchtab and the root
// benchmarks.
func microCfg(buf *bytes.Buffer) Config {
	return Config{Scale: 0.012, Sources: 2, Seed: 3, Out: buf}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := Run("nope", Config{}); err == nil {
		t.Fatal("want unknown-experiment error")
	}
}

func TestExperimentsListStable(t *testing.T) {
	exps := Experiments()
	if len(exps) != 22 {
		t.Fatalf("have %d experiments, want 22 (one per table/figure plus 4 extensions)", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	for _, id := range []string{"T3", "T4", "T5", "T6", "T7", "F4", "F5", "F6", "F7",
		"F11", "F12", "F14", "F16", "F18", "F21", "F22", "F23", "F24", "X2", "X3", "X4", "X5"} {
		if !seen[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
}

func TestEveryExperimentRunsAtMicroScale(t *testing.T) {
	if testing.Short() {
		t.Skip("micro experiment sweep skipped in -short mode")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			cfg := microCfg(&buf)
			// The accuracy/distribution sweeps iterate many solvers; keep
			// them on the two cheapest datasets at micro scale.
			switch e.ID {
			case "F4", "F5", "F6", "F7", "F12", "F14", "F16", "F18", "X2", "X3", "X4", "X5":
				cfg.Datasets = []string{"webstan-s"}
			case "T3", "T4", "T7", "F24", "F21", "F22", "F23":
				cfg.Datasets = []string{"webstan-s", "pokec-s"}
			case "T5", "T6":
				cfg.Datasets = []string{"facebook-s"}
			}
			if err := Run(e.ID, cfg); err != nil {
				t.Fatalf("%s: %v\noutput:\n%s", e.ID, err, buf.String())
			}
			out := buf.String()
			if !strings.Contains(out, e.ID) || len(out) < 80 {
				t.Fatalf("%s produced implausible output:\n%s", e.ID, out)
			}
		})
	}
}

func TestPickSourcesProperties(t *testing.T) {
	g := mustGraph(t)
	cfg := Config{Sources: 5, Seed: 9}.withDefaults()
	srcs := pickSources(g, cfg)
	if len(srcs) != 5 {
		t.Fatalf("got %d sources", len(srcs))
	}
	seen := map[int32]bool{}
	for _, s := range srcs {
		if seen[s] {
			t.Fatal("duplicate source")
		}
		seen[s] = true
		if g.OutDegree(s) == 0 {
			t.Fatal("picked a dead-end source")
		}
	}
	// Determinism.
	again := pickSources(g, cfg)
	for i := range srcs {
		if srcs[i] != again[i] {
			t.Fatal("source selection not deterministic")
		}
	}
}

func mustGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, _, err := buildDataset("webstan-s", Config{Scale: 0.02}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestKsClamped(t *testing.T) {
	got := ks(500)
	want := []int{1, 10, 100}
	if len(got) != len(want) {
		t.Fatalf("ks=%v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ks=%v", got)
		}
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[int64]string{
		100:     "100B",
		2 << 10: "2.00KB",
		3 << 20: "3.00MB",
		5 << 30: "5.00GB",
	}
	for in, want := range cases {
		if got := fmtBytes(in); got != want {
			t.Errorf("fmtBytes(%d)=%q, want %q", in, got, want)
		}
	}
}

func TestTruthCacheMemoizes(t *testing.T) {
	g := mustGraph(t)
	p := algo.DefaultParams(g)
	tc := newTruthCache(g, p)
	a, err := tc.get(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tc.get(0)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("cache returned a different slice")
	}
}
