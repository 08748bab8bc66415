package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSamplerUniformCoversRange(t *testing.T) {
	s := newSampler(16, 0, 42, 0)
	seen := make(map[int32]bool)
	for i := 0; i < 4096; i++ {
		v := s.next()
		if v < 0 || v >= 16 {
			t.Fatalf("sample %d out of [0,16)", v)
		}
		seen[v] = true
	}
	if len(seen) != 16 {
		t.Fatalf("uniform sampler hit %d/16 ids", len(seen))
	}
}

func TestSamplerZipfSkews(t *testing.T) {
	s := newSampler(1000, 1.3, 42, 0)
	counts := make(map[int32]int)
	const draws = 20000
	top := int32(-1)
	for i := 0; i < draws; i++ {
		v := s.next()
		if v < 0 || v >= 1000 {
			t.Fatalf("sample %d out of [0,1000)", v)
		}
		counts[v]++
		if top < 0 || counts[v] > counts[top] {
			top = v
		}
	}
	// Zipf with exponent 1.3: the hottest id should dwarf a uniform share
	// (draws/1000 = 20) by an order of magnitude. Which id is hottest is a
	// function of the seed-derived rank bijection, not always 0.
	if counts[top] < 10*draws/1000 {
		t.Fatalf("hottest id drawn %d times, too flat for zipf", counts[top])
	}
}

func TestSamplerDeterministic(t *testing.T) {
	a, b := newSampler(100, 1.3, 7, 0), newSampler(100, 1.3, 7, 0)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("same seed diverged")
		}
	}
}

// hotHead returns the most-drawn id over a fixed number of draws.
func hotHead(s *sampler) int32 {
	counts := make(map[int32]int)
	top := int32(-1)
	for i := 0; i < 8192; i++ {
		v := s.next()
		counts[v]++
		if top < 0 || counts[v] > counts[top] {
			top = v
		}
	}
	return top
}

// TestSamplerWorkersShareHotHead pins the seeded Zipf head: one shared id
// set derived from the base seed, identical across workers, and moved by a
// different seed.
func TestSamplerWorkersShareHotHead(t *testing.T) {
	h0 := hotHead(newSampler(1000, 1.3, 9, 0))
	h3 := hotHead(newSampler(1000, 1.3, 9, 3))
	if h0 != h3 {
		t.Fatalf("workers 0 and 3 disagree on the hot head: %d vs %d", h0, h3)
	}
	moved := false
	for seed := int64(10); seed < 14; seed++ {
		if hotHead(newSampler(1000, 1.3, seed, 0)) != h0 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("hot head identical across 4 different seeds; rank bijection not seed-derived")
	}
}

// TestStreamSeedsDistinct guards the worker-0 regression where the source,
// jitter, and edit streams all collapsed to the bare base seed.
func TestStreamSeedsDistinct(t *testing.T) {
	seen := make(map[int64]string)
	for worker := 0; worker < 4; worker++ {
		for stream := streamSource; stream <= streamRank; stream++ {
			s := streamSeed(1, worker, stream)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: worker=%d stream=%d matches %s", worker, stream, prev)
			}
			seen[s] = fmt.Sprintf("worker=%d stream=%d", worker, stream)
		}
	}
}

func TestReportCountsAndQuantiles(t *testing.T) {
	r := newReport()
	for i := 0; i < 90; i++ {
		r.record(200, time.Millisecond)
	}
	for i := 0; i < 9; i++ {
		r.record(429, 0)
	}
	r.record(-1, 0)
	r.elapsed = time.Second

	if got := r.requests.Load(); got != 100 {
		t.Fatalf("requests=%d", got)
	}
	if r.ok.Load() != 90 || r.shed.Load() != 9 || r.errs.Load() != 1 {
		t.Fatalf("ok=%d shed=%d errs=%d", r.ok.Load(), r.shed.Load(), r.errs.Load())
	}
	p99 := r.latency.Quantile(0.99)
	if p99 < 1e-3 || p99 > 1e-1 {
		t.Fatalf("p99=%g, want near 1ms", p99)
	}
	out := r.String()
	for _, want := range []string{"requests", "shed (429) 9 (9.0%)", "p50", "p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestRunLoadAgainstStub drives the closed loop against a stub server
// that sheds every fourth request, checking classification end to end.
func TestRunLoadAgainstStub(t *testing.T) {
	var hits atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/query" {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		if hits.Add(1)%4 == 0 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"results": []any{}})
	}))
	defer srv.Close()

	rep, err := runLoad(context.Background(), loadConfig{
		base: srv.URL, workers: 4, duration: 200 * time.Millisecond,
		skew: 1.3, k: 5, n: 50, seed: 1, client: srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	total := rep.requests.Load()
	if total == 0 {
		t.Fatal("no requests issued")
	}
	if rep.ok.Load()+rep.shed.Load()+rep.errs.Load() != total {
		t.Fatalf("counts don't add up: %s", rep)
	}
	if rep.shed.Load() == 0 {
		t.Fatalf("stub sheds 25%% but report saw none: %s", rep)
	}
	if rep.errs.Load() != 0 {
		t.Fatalf("unexpected errors: %s", rep)
	}
}

// TestRunLoadRetriesShedRequests flips the stub between 429 and 200 so
// every shed answer succeeds on its first retry: with retries enabled the
// report should show successes and a retry count but no shed outcomes.
func TestRunLoadRetriesShedRequests(t *testing.T) {
	var hits atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1)%2 == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"results": []any{}})
	}))
	defer srv.Close()

	rep, err := runLoad(context.Background(), loadConfig{
		base: srv.URL, workers: 1, duration: 200 * time.Millisecond,
		skew: 0, k: 5, n: 50, seed: 1, retries: 2, backoff: time.Millisecond,
		client: srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ok.Load() == 0 {
		t.Fatalf("no requests succeeded: %s", rep)
	}
	if rep.shed.Load() != 0 {
		t.Fatalf("shed outcomes recorded despite retries: %s", rep)
	}
	if rep.retries.Load() == 0 {
		t.Fatalf("no retries counted: %s", rep)
	}
	if !strings.Contains(rep.String(), "retries") {
		t.Fatalf("summary missing retry line:\n%s", rep)
	}
}

// TestRunLoadDropsRetryAbandonedAtDeadline pins down how a request still
// backing off when the run ends is counted. The stub always sheds with
// Retry-After: 1, so every worker's first request is mid-backoff (at least
// 500ms) when the 100ms run expires. Such a request was abandoned, not
// answered: it must be dropped like one cancelled in flight, not recorded
// as a 429.
func TestRunLoadDropsRetryAbandonedAtDeadline(t *testing.T) {
	for _, tc := range []struct {
		name     string
		writeMix float64
	}{{"reads", 0}, {"writes", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Uint64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusTooManyRequests)
			}))
			defer srv.Close()

			rep, err := runLoad(context.Background(), loadConfig{
				base: srv.URL, workers: 2, duration: 100 * time.Millisecond,
				k: 5, n: 50, seed: 1, retries: 3, client: srv.Client(),
				writeMix: tc.writeMix, editBatch: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if hits.Load() == 0 {
				t.Fatal("stub saw no requests")
			}
			if rep.shed.Load() != 0 {
				t.Fatalf("abandoned retries counted as sheds: %s", rep)
			}
		})
	}
}

// TestRetryDelayHonoursRetryAfter checks the backoff schedule: the server's
// Retry-After wins when longer than the exponential delay, and jitter keeps
// the wait within (d/2, d].
func TestRetryDelayHonoursRetryAfter(t *testing.T) {
	cfg := &loadConfig{backoff: 10 * time.Millisecond}
	jit := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		if d := cfg.retryDelay(0, 2*time.Second, jit); d < time.Second || d > 2*time.Second {
			t.Fatalf("Retry-After=2s gave delay %s", d)
		}
		if d := cfg.retryDelay(0, 0, jit); d < 5*time.Millisecond || d > 10*time.Millisecond {
			t.Fatalf("base delay %s outside (5ms,10ms]", d)
		}
		// Exponential growth, capped at 5s.
		if d := cfg.retryDelay(20, 0, jit); d > 5*time.Second {
			t.Fatalf("capped delay %s exceeds 5s", d)
		}
	}
}

// TestRunLoadBatchMode checks that -batch N posts N sources per request.
func TestRunLoadBatchMode(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/batch" || r.Method != http.MethodPost {
			t.Errorf("unexpected %s %s", r.Method, r.URL.Path)
		}
		var req struct {
			Sources []int32 `json:"sources"`
			K       int     `json:"k"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		if len(req.Sources) != 8 || req.K != 5 {
			t.Errorf("batch carried %d sources k=%d, want 8 k=5", len(req.Sources), req.K)
		}
		json.NewEncoder(w).Encode(map[string]any{"count": len(req.Sources)})
	}))
	defer srv.Close()

	rep, err := runLoad(context.Background(), loadConfig{
		base: srv.URL, workers: 2, duration: 100 * time.Millisecond,
		skew: 0, k: 5, batch: 8, n: 50, seed: 1, client: srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ok.Load() == 0 {
		t.Fatalf("no batches succeeded: %s", rep)
	}
}

func TestFetchNodes(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"nodes": 123, "edges": 456})
	}))
	defer srv.Close()
	n, err := fetchNodes(srv.URL, srv.Client())
	if err != nil || n != 123 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}
