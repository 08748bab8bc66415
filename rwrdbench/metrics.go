package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// parseMetrics reads Prometheus text exposition into a map from series, the
// metric name with its label set as printed (`name{k="v"}`), to value.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		split := strings.IndexByte(text, ' ')
		if brace := strings.IndexByte(text, '{'); brace >= 0 && (split < 0 || brace < split) {
			end := strings.IndexByte(text, '}')
			if end < 0 {
				return nil, fmt.Errorf("metrics line %d: unclosed label set", line)
			}
			split = end + 1
		}
		if split <= 0 || split >= len(text) {
			return nil, fmt.Errorf("metrics line %d: no value in %q", line, text)
		}
		fields := strings.Fields(text[split:])
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("metrics line %d: want value [timestamp] in %q", line, text)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[text[:split]] = v
	}
	return out, sc.Err()
}

// stats is the part of /v1/stats the benchmark reads.
type stats struct {
	Edges  int `json:"edges"`
	Engine struct {
		Hits   float64 `json:"cache_hits"`
		Misses float64 `json:"cache_misses"`
		Joins  float64 `json:"dedup_joins"`
		Shed   float64 `json:"shed"`
	} `json:"engine"`
	Hot struct {
		Hits    float64 `json:"hits"`
		Partial float64 `json:"partial"`
		Builds  float64 `json:"builds"`
		Bytes   float64 `json:"bytes"`
	} `json:"hotset"`
	Live struct {
		Swaps       float64 `json:"swaps"`
		Scoped      float64 `json:"scoped_swaps"`
		Full        float64 `json:"full_swaps"`
		Invalidated float64 `json:"invalidated"`
	} `json:"live"`
}

// scrape is the server's counters at one instant: /metrics and /v1/stats,
// both parsed and as sent.
type scrape struct {
	metrics  map[string]float64
	stats    stats
	rawStats json.RawMessage
}

func (c *client) scrape(ctx context.Context) (scrape, error) {
	var s scrape
	body, err := c.get(ctx, "/metrics")
	if err != nil {
		return s, err
	}
	if s.metrics, err = parseMetrics(bytes.NewReader(body)); err != nil {
		return s, err
	}
	if s.rawStats, err = c.get(ctx, "/v1/stats"); err != nil {
		return s, err
	}
	if err := json.Unmarshal(s.rawStats, &s.stats); err != nil {
		return s, fmt.Errorf("decode /v1/stats: %w", err)
	}
	return s, nil
}

// delta returns after − before for one series (absent series count as 0).
func delta(before, after scrape, series string) float64 {
	return after.metrics[series] - before.metrics[series]
}

// seriesDeltas returns every series that changed between two scrapes.
func seriesDeltas(before, after scrape) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range after.metrics {
		if d := v - before.metrics[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work this phase).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics from the measured phase's
// outcomes and the server's counters around it.
func layerMetrics(ops []op, outs []outcome, before, after scrape) map[string]float64 {
	var self, engine []float64
	non200 := 0
	for i, o := range outs {
		if !o.ok() {
			non200++
			continue
		}
		if !ops[i].isWrite() {
			rtt := ms(o.rtt)
			self = append(self, rtt-o.queryMS)
			engine = append(engine, o.queryMS)
		}
	}
	nreads := float64(reads(ops))
	d := func(series string) float64 { return delta(before, after, series) }
	b, a := before.stats, after.stats
	hits, misses := a.Engine.Hits-b.Engine.Hits, a.Engine.Misses-b.Engine.Misses
	rounds := d(`rwr_query_duration_seconds_count{phase="total"}`)
	perRound := func(phase string) float64 {
		return ratio(1000*d(`rwr_query_duration_seconds_sum{phase="`+phase+`"}`), rounds)
	}
	allWalks, queryWalks := d("rwr_walks_total"), d("rwr_query_walks_sum")
	return map[string]float64{
		"rwrd.self_ms_p50":    percentile(self, 0.5),
		"rwrd.self_ms_p90":    percentile(self, 0.9),
		"rwrd.non200":         float64(non200),
		"resacc.query_ms_p50": percentile(engine, 0.5),
		"resacc.query_ms_p90": percentile(engine, 0.9),

		"serve.hit_ratio": ratio(hits, hits+misses),
		"serve.misses":    misses,
		"serve.joins":     a.Engine.Joins - b.Engine.Joins,
		"serve.shed":      a.Engine.Shed - b.Engine.Shed,
		"serve.cache_ms_mean": ratio(1000*d(`rwr_engine_latency_seconds_sum{path="cache"}`),
			d(`rwr_engine_latency_seconds_count{path="cache"}`)),
		"serve.compute_ms_mean": ratio(1000*d(`rwr_engine_latency_seconds_sum{path="compute"}`),
			d(`rwr_engine_latency_seconds_count{path="compute"}`)),

		"topk.rounds_per_miss": ratio(rounds, misses),

		"core.hopfwd_ms_per_round": perRound("hopfwd"),
		"core.omfwd_ms_per_round":  perRound("omfwd"),
		"core.remedy_ms_per_round": perRound("remedy"),
		"core.walks_per_round":     ratio(queryWalks, d("rwr_query_walks_count")),

		"hotset.hits":              a.Hot.Hits - b.Hot.Hits,
		"hotset.partial":           a.Hot.Partial - b.Hot.Partial,
		"hotset.builds":            a.Hot.Builds - b.Hot.Builds,
		"hotset.build_ms_mean":     ratio(1000*d("rwr_hot_build_seconds_sum"), d("rwr_hot_build_seconds_count")),
		"hotset.bytes":             a.Hot.Bytes,
		"hotset.warmer_walk_share": ratio(allWalks-queryWalks, allWalks),

		"live.swaps":        a.Live.Swaps - b.Live.Swaps,
		"live.scoped_swaps": a.Live.Scoped - b.Live.Scoped,
		"live.full_swaps":   a.Live.Full - b.Live.Full,
		"live.invalidated":  a.Live.Invalidated - b.Live.Invalidated,
		"live.swap_ms_mean": ratio(1000*d("rwr_graph_swap_seconds_sum"), d("rwr_graph_swap_seconds_count")),

		"pressure.sheds":    d("rwr_pressure_sojourn_sheds_total") + d("rwr_pressure_critical_sheds_total"),
		"pressure.degraded": d("rwr_degraded_bound_count"),

		"runtime.alloc_kb_per_read": ratio(d("go_memstats_alloc_bytes_total")/1024, nreads),
		"runtime.gc_per_1k_reads":   ratio(1000*d("go_gc_cycles_total"), nreads),
	}
}
