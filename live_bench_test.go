package resacc

import (
	"context"
	"sort"
	"testing"
	"time"
)

// BenchmarkLiveWriteMix measures a mixed read/write serving loop: each
// iteration streams a small batch of edge edits through the live write
// path at default options, flushes it into a snapshot swap (which purges
// the result cache), and then replays a fixed working set of queries, all
// of which recompute. Reported metrics: sustained edges/s plus query
// p50/p99 under the write stream.
func BenchmarkLiveWriteMix(b *testing.B) {
	g := GenerateBarabasiAlbert(5000, 3, 17)
	e := NewEngine(g, DefaultParams(g), EngineOptions{})
	defer e.Close()
	l, err := e.StartLive(LiveOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()

	// Toggling add/remove keeps every batch state-changing instead of
	// coalescing to noops.
	const editBatch = 4
	batch := func(i int) [][2]int32 {
		out := make([][2]int32, editBatch)
		for j := range out {
			u := int32(4000 + (i*editBatch+j)%900)
			out[j] = [2]int32{u, u + 57}
		}
		return out
	}
	mutate := func(i int) {
		var add, rem [][2]int32
		if i%2 == 0 {
			add = batch(i / 2)
		} else {
			rem = batch(i / 2)
		}
		if _, err := l.Apply(add, rem); err != nil {
			b.Fatal(err)
		}
		if _, err := l.Flush(); err != nil {
			b.Fatal(err)
		}
	}

	ctx := context.Background()
	sources := make([]int32, 32)
	for i := range sources {
		sources[i] = int32(i * 7)
	}
	for _, s := range sources { // warm the working set
		if _, err := e.Query(ctx, s); err != nil {
			b.Fatal(err)
		}
	}

	lat := make([]time.Duration, 0, b.N*len(sources))
	edges := 0
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		mutate(i)
		edges += editBatch
		for _, s := range sources {
			t0 := time.Now()
			if _, err := e.Query(ctx, s); err != nil {
				b.Fatal(err)
			}
			lat = append(lat, time.Since(t0))
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	quantile := func(q float64) float64 {
		idx := int(q * float64(len(lat)-1))
		return float64(lat[idx].Microseconds()) / 1000
	}
	b.ReportMetric(float64(edges)/elapsed.Seconds(), "edges/s")
	b.ReportMetric(quantile(0.50), "q_p50_ms")
	b.ReportMetric(quantile(0.99), "q_p99_ms")
}
