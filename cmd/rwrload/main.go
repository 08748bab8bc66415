// Command rwrload is a closed-loop load driver for rwrd. Each worker
// issues one request, waits for the answer, and immediately issues the
// next — so offered load tracks server capacity and the interesting
// question becomes throughput, tail latency, and how often admission
// control sheds (HTTP 429).
//
//	rwrload -addr http://localhost:8080 -workers 16 -duration 30s
//	rwrload -addr http://localhost:8080 -zipf 0 -batch 32
//
// Sources are sampled Zipfian by default (-zipf 1.3), the skewed access
// pattern that exercises the server's result cache and singleflight; pass
// -zipf 0 for uniform, cache-hostile traffic. Which node ids form the Zipf
// head is a deterministic function of -seed shared by every worker in both
// loop modes, so reruns with the same seed hammer the same hot sources.
// With -batch N each request is a POST /v1/batch carrying N sources
// instead of one GET /v1/query.
// Shed (429) and unavailable (503) answers are retried up to -retries
// times with jittered exponential backoff, honouring the server's
// Retry-After hint; the report counts retries separately from requests.
// The node count is discovered from /v1/stats unless -nodes is given.
//
// With -write-mix F (and a server running -live), each worker sends that
// fraction of its requests as POST /v1/edges batches of -edit-batch edge
// edits — inserting fresh random edges and periodically deleting the
// oldest again, so the edge count stays roughly stationary. The report
// then shows sustained edges/s alongside query throughput and latency.
//
//	rwrload -addr http://localhost:8080 -write-mix 0.1 -edit-batch 8
//
// With -open the driver switches to an open-loop arrival process: requests
// fire on Poisson arrivals at -rate per second whether or not earlier
// answers have come back, optionally multiplied by -burst for the first
// -burst-len of every -burst-every window. That is the arrival model that
// actually overloads a server (a closed loop self-throttles to capacity),
// so it is the mode that exercises admission control, brownout, and
// write backpressure. Open-loop requests are never retried, and arrivals
// past -max-inflight outstanding requests are counted as client drops.
// With -slo the report adds SLO attainment over all query arrivals —
// shed, errored, and dropped arrivals count as misses — plus goodput
// (SLO-meeting answers per second):
//
//	rwrload -addr http://localhost:8080 -open -rate 500 -burst 4 -slo 100ms
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"
)

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "base URL of the rwrd server")
		workers  = flag.Int("workers", 8, "concurrent closed-loop workers")
		duration = flag.Duration("duration", 10*time.Second, "how long to drive load")
		zipf     = flag.Float64("zipf", 1.3, "source skew exponent (> 1 Zipfian, <= 1 uniform)")
		k        = flag.Int("k", 10, "ranking depth per query")
		batch    = flag.Int("batch", 0, "sources per request via POST /v1/batch (0 = GET /v1/query)")
		nodes    = flag.Int("nodes", 0, "source id space (0 = discover from /v1/stats)")
		seed     = flag.Int64("seed", 1, "base RNG seed: every worker stream and the Zipf hot-source id set derive from it, so reruns replay the same traffic")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request client timeout")
		retries  = flag.Int("retries", 3, "retries per request on 429/503 (0 = fail fast)")
		backoff  = flag.Duration("backoff", 100*time.Millisecond, "base retry backoff (doubles per attempt, jittered, raised to Retry-After)")
		writeMix = flag.Float64("write-mix", 0, "fraction of requests sent as POST /v1/edges edit batches (server must run -live)")
		editN    = flag.Int("edit-batch", 8, "edge edits per write request (with -write-mix)")

		open       = flag.Bool("open", false, "open-loop mode: Poisson arrivals at -rate instead of closed-loop workers")
		rate       = flag.Float64("rate", 100, "mean arrivals per second (with -open)")
		burst      = flag.Float64("burst", 1, "arrival-rate multiplier during burst windows (with -open; <= 1 disables)")
		burstEvery = flag.Duration("burst-every", 10*time.Second, "burst window period (with -open -burst)")
		burstLen   = flag.Duration("burst-len", 2*time.Second, "burst window length at the start of each period (with -open -burst)")
		slo        = flag.Duration("slo", 0, "per-query latency SLO; the report adds attainment over all arrivals (0 = off)")
		inflight   = flag.Int("max-inflight", 256, "outstanding-request cap in open-loop mode; arrivals past it count as drops")
	)
	flag.Parse()

	cfg := loadConfig{
		base:     strings.TrimRight(*addr, "/"),
		workers:  *workers,
		duration: *duration,
		skew:     *zipf,
		k:        *k,
		batch:    *batch,
		n:        int32(*nodes),
		seed:     *seed,
		retries:  *retries,
		backoff:  *backoff,
		client:   &http.Client{Timeout: *timeout},

		writeMix:  *writeMix,
		editBatch: *editN,
	}
	if cfg.writeMix < 0 || cfg.writeMix > 1 {
		fmt.Fprintln(os.Stderr, "rwrload: -write-mix must be in [0,1]")
		os.Exit(1)
	}
	if cfg.editBatch <= 0 {
		cfg.editBatch = 8
	}
	if cfg.n <= 0 {
		n, err := fetchNodes(cfg.base, cfg.client)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rwrload: discover nodes:", err)
			os.Exit(1)
		}
		cfg.n = n
	}

	var rep *report
	var err error
	if *open {
		rep, err = runOpenLoad(context.Background(), openConfig{
			loadConfig:  cfg,
			rate:        *rate,
			burst:       *burst,
			burstEvery:  *burstEvery,
			burstLen:    *burstLen,
			slo:         *slo,
			maxInflight: *inflight,
		})
	} else {
		cfg.slo = *slo
		rep, err = runLoad(context.Background(), cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rwrload:", err)
		os.Exit(1)
	}
	fmt.Println(rep)
}

// fetchNodes asks the server how many nodes the served graph has, which
// bounds the source id space the samplers draw from.
func fetchNodes(base string, client *http.Client) (int32, error) {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/v1/stats returned %s", resp.Status)
	}
	var stats struct {
		Nodes int32 `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return 0, err
	}
	if stats.Nodes <= 0 {
		return 0, fmt.Errorf("server reports %d nodes", stats.Nodes)
	}
	return stats.Nodes, nil
}
