//go:build faultinject

package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"resacc"
	"resacc/internal/faultinject"
)

// TestChaosPanicInWalkWorkerKeepsServing is the end-to-end containment
// proof: a panic injected into the remedy's walk loop, on a serve worker
// goroutine, turns exactly the faulted query into an HTTP 500, bumps
// resacc_panics_total, and leaves the server fully able to answer the next
// request.
func TestChaosPanicInWalkWorkerKeepsServing(t *testing.T) {
	defer faultinject.Reset()
	g := resacc.GenerateBarabasiAlbert(200, 3, 7)
	s := newServer(g, resacc.DefaultParams(g), serverOpts{
		Log:    discardLogger(),
		Engine: resacc.EngineOptions{Workers: 1},
	})
	defer s.Close()

	faultinject.Set("algo.remedy.worker", func() { panic("chaos: worker killed") })
	rec, body := get(t, s, "/v1/query?source=5&k=3")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("faulted query: status %d body %v, want 500", rec.Code, body)
	}
	if body["error"] == nil || !strings.Contains(body["error"].(string), "panic") {
		t.Fatalf("500 body does not name the panic: %v", body)
	}

	// The panic was counted, both in /metrics and /v1/stats.
	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(mrec.Body.String(), "resacc_panics_total 1") {
		t.Fatalf("metrics missing resacc_panics_total 1:\n%s", grepMetric(mrec.Body.String(), "panics"))
	}
	_, stats := get(t, s, "/v1/stats")
	if stats["engine"].(map[string]any)["panics"].(float64) != 1 {
		t.Fatalf("stats panics=%v, want 1", stats["engine"].(map[string]any)["panics"])
	}

	// Clear the fault: the server answers the next query — the serve pool,
	// singleflight group and workspace pool all survived the panic.
	faultinject.Reset()
	rec, body = get(t, s, "/v1/query?source=5&k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("post-panic query: status %d body %v, want 200", rec.Code, body)
	}
	if len(body["results"].([]any)) != 3 {
		t.Fatalf("post-panic query returned %v", body["results"])
	}
}

// TestChaosConcurrentPanicsDoNotCrash hammers the server while every
// remedy walk loop panics, under -race: the process must absorb all of them
// and stay consistent (each request answers 500, one contained panic per
// compute).
func TestChaosConcurrentPanicsDoNotCrash(t *testing.T) {
	defer faultinject.Reset()
	g := resacc.GenerateBarabasiAlbert(200, 3, 7)
	s := newServer(g, resacc.DefaultParams(g), serverOpts{
		Log:    discardLogger(),
		Engine: resacc.EngineOptions{Workers: 2},
	})
	defer s.Close()

	faultinject.Set("algo.remedy.worker", func() { panic("chaos: storm") })
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet,
				"/v1/query?source="+string(rune('0'+i%8))+"&k=3", nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusInternalServerError {
				t.Errorf("request %d: status %d, want 500", i, rec.Code)
			}
		}()
	}
	wg.Wait()

	faultinject.Reset()
	deadline := time.Now().Add(2 * time.Second)
	for {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/query?source=1&k=3", nil))
		if rec.Code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not recover after panic storm: %d %s", rec.Code, rec.Body.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosDeadlineViaLatencyInjectionServes206: latency injected at the
// remedy phase plus a short server query timeout turns the answer into an
// HTTP 206 carrying the degradation contract fields.
func TestChaosDeadlineViaLatencyInjectionServes206(t *testing.T) {
	defer faultinject.Reset()
	g := resacc.GenerateBarabasiAlbert(200, 3, 7)
	s := newServer(g, resacc.DefaultParams(g), serverOpts{
		Log:          discardLogger(),
		QueryTimeout: time.Second,
	})
	defer s.Close()

	// The engine runs computations against a flight context whose deadline
	// is the caller's minus ~50ms of headroom. The injected stall must end
	// AFTER the flight deadline (so the remedy phase wakes up already
	// cancelled and degrades) but BEFORE the caller's own deadline (so the
	// degraded answer is published to a still-listening waiter).
	faultinject.Set("core.remedy.start", func() { time.Sleep(965 * time.Millisecond) })
	rec, body := get(t, s, "/v1/query?source=5&k=3")
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("status %d body %v, want 206", rec.Code, body)
	}
	if body["degraded"] != true {
		t.Fatalf("206 without degraded flag: %v", body)
	}
	bound, ok := body["bound"].(float64)
	if !ok || bound <= 0 || bound >= 1 {
		t.Fatalf("degraded bound %v outside (0,1)", body["bound"])
	}
	if body["phase"] != "remedy" {
		t.Fatalf("phase=%v, want remedy", body["phase"])
	}
	if d, ok := body["delta"]; ok {
		t.Fatalf("206 carries delta %v; a degraded answer's guarantee is its bound", d)
	}
	// Degraded cancellations are visible on /metrics.
	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		`rwr_query_cancellations_total{phase="remedy"}`,
		"rwr_degraded_bound_bucket",
	} {
		if !strings.Contains(mrec.Body.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// grepMetric trims a metrics exposition to the lines mentioning substr,
// keeping failure output readable.
func grepMetric(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
