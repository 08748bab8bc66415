// Package bench regenerates every table and figure of the paper's
// evaluation (§VII and Appendices A-L) on the scaled synthetic datasets of
// internal/dataset. Each experiment has an ID matching DESIGN.md §5
// ("T3", "F4", ...), a runner that prints the same rows/series the paper
// reports, and a corresponding benchmark in the repository root.
//
// Absolute numbers differ from the paper (different hardware, synthetic
// graphs, smaller scale); the harness exists to reproduce the *shape* of
// every comparison: who wins, by roughly what factor, and where the
// crossovers fall. EXPERIMENTS.md records a measured run next to the
// paper's values.
package bench

import (
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"resacc/internal/algo"
	"resacc/internal/algo/power"
	"resacc/internal/algo/topppr"
	"resacc/internal/dataset"
	"resacc/internal/graph"
	"resacc/internal/workload"
)

// Config controls the size of an experiment run.
type Config struct {
	// Scale multiplies every dataset's node count (1 = the registry's
	// base size). Zero means 0.25, a laptop-minutes setting.
	Scale float64
	// Sources is the number of query nodes per dataset (the paper uses
	// 50). Zero means 5.
	Sources int
	// Seed drives source selection and every randomized phase.
	Seed uint64
	// Out receives the table output (default os.Stdout).
	Out io.Writer
	// Datasets overrides the experiment's default dataset list.
	Datasets []string
	// CacheDir, when set, persists ground-truth vectors to disk so
	// repeated runs skip the Power-iteration recomputation. Keys include a
	// content hash of the graph, so stale entries cannot be returned.
	CacheDir string
	// CSV switches the table output from aligned text to comma-separated
	// values, convenient for plotting the figures.
	CSV bool
	// Plot additionally renders series experiments (F21, F22) as ASCII
	// bar charts — the harness's stand-in for the paper's figures.
	Plot bool
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.25
	}
	if c.Sources <= 0 {
		c.Sources = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Out == nil {
		c.Out = os.Stdout
	}
	return c
}

// Experiment couples an ID with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) error
}

var experiments = []Experiment{
	{"T3", "Table III: SSRWR query time of index-free algorithms", runTable3},
	{"T4", "Table IV: index-oriented algorithms vs ResAcc", runTable4},
	{"F4", "Fig 4: absolute error of the k-th largest RWR value", runFig4},
	{"F5", "Fig 5: NDCG@k of each algorithm", runFig5},
	{"F6", "Fig 6: fair comparison with FORA (equal time / equal error)", runFig6},
	{"F7", "Figs 7-10: query-time/error/NDCG distribution (boxplot + error-bar)", runFig7to10},
	{"T5", "Table V: SSRWR ordering vs distance ordering in NISE", runTable5},
	{"T6", "Table VI: community detection with FORA vs ResAcc", runTable6},
	{"F11", "Fig 11 (App A): accuracy on Web-Stan", runFig11},
	{"F12", "Figs 12-13 (App B): Particle Filtering comparison", runFig12to13},
	{"F14", "Figs 14-15 (App C): highest-out-degree query nodes", runFig14to15},
	{"F16", "Figs 16-17 (App D): multiple-sources RWR query", runFig16to17},
	{"F18", "Figs 18-20 (App E): fair comparison with TopPPR (K sweep)", runFig18to20},
	{"F21", "Fig 21 (App G): effect of the hop count h", runFig21},
	{"F22", "Fig 22 (App H): effect of r_max^hop", runFig22},
	{"F23", "Fig 23 (App I): index update cost per node deletion", runFig23},
	{"T7", "Table VII (App J): per-phase breakdown of ResAcc", runTable7},
	{"F24", "Fig 24 (App K): ablation of each ResAcc trick", runFig24},
	{"X2", "Extension: certified top-k query vs full query", runX2TopK},
	{"X3", "Extension: HubPPR pairwise cache vs BiPPR", runX3HubPPR},
	{"X4", "Extension: forward-push scheduling (FIFO vs max-residue-first)", runX4Scheduling},
	{"X5", "Extension: degree-relabeled memory layout", runX5Relabel},
}

// Experiments returns all experiment descriptors in paper order.
func Experiments() []Experiment { return append([]Experiment(nil), experiments...) }

// Run executes the experiment with the given ID.
func Run(id string, cfg Config) error {
	for _, e := range experiments {
		if e.ID == id {
			cfg = cfg.withDefaults()
			fmt.Fprintf(cfg.Out, "=== %s — %s ===\n", e.ID, e.Title)
			fmt.Fprintf(cfg.Out, "(scale=%.3g, sources=%d, seed=%d)\n", cfg.Scale, cfg.Sources, cfg.Seed)
			start := time.Now()
			err := e.Run(cfg)
			fmt.Fprintf(cfg.Out, "[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
			return err
		}
	}
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}

// RunAll executes every experiment in paper order.
func RunAll(cfg Config) error {
	for _, e := range experiments {
		if err := Run(e.ID, cfg); err != nil {
			return fmt.Errorf("bench: %s: %w", e.ID, err)
		}
	}
	return nil
}

// --- shared helpers -------------------------------------------------------

// buildDataset constructs a named dataset at the run's scale and returns
// the paper parameters for it (h from Table II).
func buildDataset(name string, cfg Config) (*graph.Graph, algo.Params, error) {
	g, info, err := dataset.Build(name, cfg.Scale)
	if err != nil {
		return nil, algo.Params{}, err
	}
	p := algo.DefaultParams(g)
	p.H = info.H
	p.Seed = cfg.Seed
	return g, p, nil
}

// pickSources returns cfg.Sources distinct query nodes with positive
// out-degree, chosen uniformly (the paper picks 50 uniform sources).
func pickSources(g *graph.Graph, cfg Config) []int32 {
	out, err := workload.Sources(g, workload.Uniform, cfg.Sources, cfg.Seed^0xabcdef)
	if err != nil {
		return []int32{0}
	}
	return out
}

// timeSolver returns the mean query time of solver over the sources.
func timeSolver(g *graph.Graph, s algo.SingleSource, sources []int32, p algo.Params) (time.Duration, error) {
	start := time.Now()
	for _, src := range sources {
		if _, err := s.SingleSource(g, src, p); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(len(sources)), nil
}

// truthCache memoizes ground-truth vectors within one experiment run and,
// when a cache directory is configured, across runs on disk.
type truthCache struct {
	g           *graph.Graph
	p           algo.Params
	data        map[int32][]float64
	dir         string
	fingerprint uint64
}

func newTruthCache(g *graph.Graph, p algo.Params) *truthCache {
	return &truthCache{g: g, p: p, data: make(map[int32][]float64)}
}

// newTruthCacheDisk is newTruthCache backed by cfg.CacheDir when set.
func newTruthCacheDisk(g *graph.Graph, p algo.Params, cfg Config) *truthCache {
	tc := newTruthCache(g, p)
	if cfg.CacheDir != "" {
		tc.dir = cfg.CacheDir
		tc.fingerprint = graphFingerprint(g)
	}
	return tc
}

// prefetch computes any missing truth vectors for the given sources in one
// batched power solve, sharing edge traversals across the batch.
func (tc *truthCache) prefetch(sources []int32) error {
	var missing []int32
	for _, src := range sources {
		if _, ok := tc.data[src]; ok {
			continue
		}
		if tc.dir != "" {
			if v, ok := tc.loadTruth(src); ok {
				tc.data[src] = v
				continue
			}
		}
		missing = append(missing, src)
	}
	if len(missing) == 0 {
		return nil
	}
	batch, err := power.BatchSolver{Tol: 1e-14}.SingleSourceBatch(tc.g, missing, tc.p)
	if err != nil {
		return err
	}
	for j, src := range missing {
		tc.data[src] = batch[j]
		if tc.dir != "" {
			tc.saveTruth(src, batch[j])
		}
	}
	return nil
}

func (tc *truthCache) get(src int32) ([]float64, error) {
	if v, ok := tc.data[src]; ok {
		return v, nil
	}
	if tc.dir != "" {
		if v, ok := tc.loadTruth(src); ok {
			tc.data[src] = v
			return v, nil
		}
	}
	v, err := power.GroundTruth(tc.g, src, tc.p)
	if err != nil {
		return nil, err
	}
	tc.data[src] = v
	if tc.dir != "" {
		tc.saveTruth(src, v)
	}
	return v, nil
}

// newTable returns a table with a header row; aligned text by default,
// CSV when the run's config asked for it (see newTableCfg).
func newTable(w io.Writer, headers ...string) *table {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	t := &table{tw: tw}
	t.row(toAny(headers)...)
	return t
}

// newTableCfg is newTable honouring cfg.CSV.
func newTableCfg(cfg Config, headers ...string) *table {
	if !cfg.CSV {
		return newTable(cfg.Out, headers...)
	}
	t := &table{csv: cfg.Out}
	t.row(toAny(headers)...)
	return t
}

type table struct {
	tw  *tabwriter.Writer
	csv io.Writer
}

func (t *table) row(cells ...any) {
	w := io.Writer(t.tw)
	sep := "\t"
	if t.csv != nil {
		w = t.csv
		sep = ","
	}
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(w, sep)
		}
		switch v := c.(type) {
		case float64:
			fmt.Fprintf(w, "%.4g", v)
		case time.Duration:
			fmt.Fprintf(w, "%v", v.Round(time.Microsecond))
		default:
			fmt.Fprintf(w, "%v", v)
		}
	}
	fmt.Fprintln(w)
}

func (t *table) flush() {
	if t.tw != nil {
		t.tw.Flush()
	}
}

func toAny(ss []string) []any {
	out := make([]any, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

// ks returns the paper's k values {1,10,100,...} clamped to n.
func ks(n int) []int {
	out := []int{}
	for k := 1; k <= n && k <= 100000; k *= 10 {
		out = append(out, k)
	}
	return out
}

// benchTopPPR returns the TopPPR configuration the harness uses: a bounded
// refinement budget (the published TopPPR refines the top-K frontier
// iteratively rather than exhaustively, so an unbounded candidate set would
// misrepresent its cost) and a coarse backward threshold matched to the
// scaled graphs.
func benchTopPPR(k int) algo.SingleSource {
	return topppr.Solver{K: k, MaxCandidates: 32, RMaxB: 1e-3}
}

// fmtBytes renders a byte count the way Table IV does.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
