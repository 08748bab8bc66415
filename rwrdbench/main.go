// Command rwrdbench is the repository's end-to-end benchmark. It starts this
// checkout's rwrd on one fixed deployment, drives one seeded workload over
// loopback HTTP from two closed-loop connections, checks every answer, and
// prints each metric BENCHMARK.json names, with its unit. See README.md.
//
//	bash rwrdbench/run.sh --workload cold-topk --seed 1 --seconds 10 --trace 0
//	bash rwrdbench/run.sh --workload hot-read --seed 1 --seconds 10 --repeat 10 --save a.json
//	bash rwrdbench/run.sh --compare a.json,b.json
//
// The last line of standard output is one JSON object: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer metrics of a traced pass
// that runs after the untraced one.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

const (
	// runLimit bounds one run, so a hung server fails it instead of stalling.
	runLimit = 170 * time.Second
	// rwrdBin is where run.sh builds this checkout's server, and outDir
	// where traced runs write their spans; both are relative to the root of
	// the checkout, the directory the benchmark runs from.
	rwrdBin = ".bench_build/rwrd"
	outDir  = ".bench_build/out"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: cold-topk, hot-read or zipf-live")
		seed     = flag.Uint64("seed", 1, "seed of the operation sequence")
		seconds  = flag.Int("seconds", 20, "size of the measured phase: each workload sends a fixed number of operations per second of it")
		trace    = flag.Int("trace", 0, "1 adds a traced pass and prints the per-layer metrics")
		repeat   = flag.Int("repeat", 0, "run the workload this many times on consecutive seeds and print each metric's median and quartiles")
		save     = flag.String("save", "", "with -repeat, write the set of runs to this JSON file")
		compare  = flag.String("compare", "", "base.json,new.json: check two saved sets against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fail(err)
	}
	if *compare != "" {
		base, cur, ok := strings.Cut(*compare, ",")
		if !ok {
			fail(errors.New("-compare wants base.json,new.json"))
		}
		pass, err := compareSets(os.Stdout, spec, base, cur)
		if err != nil {
			fail(err)
		}
		if !pass {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fail(err)
	}
	cfg := config{rwrd: rwrdBin, workload: *workload, seed: *seed, seconds: *seconds,
		trace: *trace == 1, outDir: outDir}
	if *repeat > 0 {
		if err := repeatRuns(os.Stdout, spec, cfg, *repeat, *save); err != nil {
			fail(err)
		}
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	res, err := runBenchmark(ctx, cfg)
	cancel()
	var bad checkError
	if errors.As(err, &bad) {
		fmt.Fprintln(os.Stderr, "rwrdbench: incorrect:", err)
		fmt.Println(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
		os.Exit(1)
	}
	if err != nil {
		fail(err)
	}
	metrics := res.untraced.e2e
	if cfg.trace {
		printLayerReport(os.Stdout, spec, cfg, res)
		metrics = res.traced.layers
	} else {
		printEndToEnd(os.Stdout, spec, cfg.workload, metrics)
	}
	if err := printResult(spec, cfg, res.attempted, res.failed, metrics); err != nil {
		fail(err)
	}
}

// printResult prints the result line with every metric the spec lists for
// the mode, and fails if the run measured a different set.
func printResult(spec *benchSpec, cfg config, attempted, failed int, values map[string]float64) error {
	list := spec.EndToEnd
	if cfg.trace {
		list = spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(list))
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("metric %q in BENCHMARK.json is not measured", m.Name)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	if len(values) != len(list) {
		return fmt.Errorf("measured %d metrics, BENCHMARK.json lists %d", len(values), len(list))
	}
	body, err := json.Marshal(map[string]any{
		"correct": true, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(body))
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rwrdbench:", err)
	os.Exit(1)
}
