package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"resacc"
)

func testServer(t *testing.T) *server {
	t.Helper()
	g := resacc.GenerateBarabasiAlbert(200, 3, 7)
	s := newServer(g, resacc.DefaultParams(g), serverOpts{Log: discardLogger()})
	t.Cleanup(s.Close)
	return s
}

func get(t *testing.T, s *server, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: non-JSON body %q", path, rec.Body.String())
	}
	return rec, body
}

func TestHealthz(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/healthz")
	if rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("health: %d %v", rec.Code, body)
	}
	if rec.Header().Get("X-Request-ID") == "" {
		t.Fatal("missing X-Request-ID header")
	}
}

func TestQueryEndpoint(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/v1/query?source=5&k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	results := body["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	first := results[0].(map[string]any)
	if first["score"].(float64) <= 0 {
		t.Fatal("top result has non-positive score")
	}
	if body["query_ms"].(float64) <= 0 {
		t.Fatal("missing query timing")
	}
	// The certified threshold δ′ = δ/level is at least δ at any level up
	// to the full budget.
	if delta, ok := body["delta"].(float64); !ok || delta < s.params.Delta {
		t.Fatalf("delta = %v, want present and ≥ δ = %v", body["delta"], s.params.Delta)
	}
}

func TestQueryClampsK(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/v1/query?source=5&k=100000")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	if got := int(body["k"].(float64)); got != s.g.N() {
		t.Fatalf("k=%d, want clamp to n=%d", got, s.g.N())
	}
	if len(body["results"].([]any)) > s.g.N() {
		t.Fatal("more results than nodes")
	}
}

func TestQueryValidation(t *testing.T) {
	s := testServer(t)
	for _, path := range []string{
		"/v1/query",               // missing source
		"/v1/query?source=abc",    // non-integer
		"/v1/query?source=99999",  // out of range
		"/v1/query?source=1&k=0",  // bad k
		"/v1/query?source=1&k=-3", // bad k
		"/v1/query?source=-1&k=5", // negative node
		"/v1/pair?source=1",       // missing target
		"/v1/pair?source=1&target=x",
		"/v1/traces?n=x", // bad trace count
	} {
		rec, _ := get(t, s, path)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, rec.Code)
		}
	}
}

func TestPairEndpoint(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/v1/pair?source=0&target=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	if _, ok := body["estimate"].(float64); !ok {
		t.Fatalf("missing estimate: %v", body)
	}
}

func TestStatsEndpointCountsQueries(t *testing.T) {
	s := testServer(t)
	get(t, s, "/v1/query?source=1")
	get(t, s, "/v1/query?source=2")
	_, body := get(t, s, "/v1/stats")
	if body["queries_served"].(float64) != 2 {
		t.Fatalf("queries_served=%v, want 2", body["queries_served"])
	}
	if body["nodes"].(float64) != 200 {
		t.Fatalf("nodes=%v", body["nodes"])
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t)
	get(t, s, "/v1/query?source=3")

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	// One HTTP query runs the top-k loop, which fires one query event per
	// solver round (one to four) — so phase counts are ≥ 1, not exactly 1.
	for _, want := range []string{
		"# TYPE rwr_query_duration_seconds histogram",
		`rwr_query_duration_seconds_count{phase="hopfwd"}`,
		`rwr_query_duration_seconds_count{phase="omfwd"}`,
		`rwr_query_duration_seconds_count{phase="remedy"}`,
		`rwr_query_duration_seconds_count{phase="total"}`,
		"# TYPE rwr_http_requests_total counter",
		`rwr_http_requests_total{code="200",path="/v1/query"} 1`,
		`rwr_queries_total{status="ok"}`,
		"rwr_graph_nodes 200",
		"rwr_walks_total",
		"rwr_pushes_total",
		"rwr_http_inflight_requests",
		// Engine families (cache, dedup, admission) must be exposed.
		"rwr_engine_cache_hits_total",
		"rwr_engine_cache_misses_total",
		`rwr_engine_cache_evictions_total{reason="capacity"}`,
		"rwr_engine_dedup_joins_total",
		"rwr_engine_shed_total",
		"rwr_engine_queue_depth",
		`rwr_engine_latency_seconds_bucket{path="cache",le="0.0001"}`,
		`rwr_engine_latency_seconds_bucket{path="compute",le="0.0001"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
	if strings.Contains(body, `rwr_queries_total{status="ok"} 0`) {
		t.Error("no ok query counted after a served request")
	}
}

func TestTracesEndpoint(t *testing.T) {
	s := testServer(t)
	get(t, s, "/v1/query?source=4")
	get(t, s, "/v1/query?source=5")

	_, body := get(t, s, "/v1/traces")
	// Each HTTP query fires one trace per top-k solver round, so two
	// requests leave at least two traces.
	if body["count"].(float64) < 2 {
		t.Fatalf("count=%v, want >= 2", body["count"])
	}
	traces := body["traces"].([]any)
	// Newest first: the source=5 query produced the latest round.
	first := traces[0].(map[string]any)
	if first["source"].(float64) != 5 {
		t.Fatalf("newest trace source=%v, want 5", first["source"])
	}
	for _, raw := range traces {
		tr := raw.(map[string]any)
		total := tr["total_us"].(float64)
		spans := tr["spans"].([]any)
		if len(spans) != 3 {
			t.Fatalf("trace has %d spans, want 3", len(spans))
		}
		var sum float64
		names := make([]string, 0, 3)
		for _, sp := range spans {
			m := sp.(map[string]any)
			sum += m["duration_us"].(float64)
			names = append(names, m["name"].(string))
		}
		if got := strings.Join(names, ","); got != "hopfwd,omfwd,remedy" {
			t.Fatalf("span order %q", got)
		}
		// The phase durations must account for (almost all of, and never
		// more than) the reported total query time.
		if sum > total {
			t.Fatalf("span sum %.1fµs exceeds total %.1fµs", sum, total)
		}
	}

	_, limited := get(t, s, "/v1/traces?n=1")
	if limited["count"].(float64) != 1 {
		t.Fatalf("n=1 count=%v", limited["count"])
	}
}

// TestServersCountOnlyTheirOwnQueries: two servers over one graph in one
// process each observe only their own engine's solver rounds, so a query
// sent to one leaves the other's counters, walk tally and trace ring
// untouched.
func TestServersCountOnlyTheirOwnQueries(t *testing.T) {
	g := resacc.GenerateBarabasiAlbert(200, 3, 7)
	a := newServer(g, resacc.DefaultParams(g), serverOpts{Log: discardLogger()})
	t.Cleanup(a.Close)
	b := newServer(g, resacc.DefaultParams(g), serverOpts{Log: discardLogger()})
	t.Cleanup(b.Close)

	if rec, body := get(t, b, "/v1/query?source=3"); rec.Code != http.StatusOK {
		t.Fatalf("query to b: %d %v", rec.Code, body)
	}
	observed := func(s *server) (queries float64, traces int, walked bool) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return s.queriesByStat["ok"].Value() + s.queriesByStat["error"].Value(),
			len(s.traces.Snapshot()), !strings.Contains(rec.Body.String(), "\nrwr_walks_total 0\n")
	}
	if q, tr, walked := observed(a); q != 0 || tr != 0 || walked {
		t.Fatalf("a counted %v queries and %d traces of a query sent to b (walks counted: %v)", q, tr, walked)
	}
	if q, tr, walked := observed(b); q == 0 || tr != int(q) || !walked {
		t.Fatalf("b counted %v queries and %d traces of its own query (walks counted: %v)", q, tr, walked)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/query?source=1", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d, want 405", rec.Code)
	}
}

func TestPprofGating(t *testing.T) {
	s := testServer(t) // pprof off by default
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("pprof without -pprof: status %d, want 404", rec.Code)
	}

	g := resacc.GenerateBarabasiAlbert(50, 2, 3)
	sp := newServer(g, resacc.DefaultParams(g), serverOpts{Log: discardLogger(), Pprof: true})
	defer sp.Close()
	rec = httptest.NewRecorder()
	sp.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof with -pprof: status %d, want 200", rec.Code)
	}
}

func TestConcurrentQueries(t *testing.T) {
	s := testServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet, "/v1/query?source=1&k=5", nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("concurrent query failed: %d", rec.Code)
			}
		}(i)
	}
	wg.Wait()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	body := rec.Body.String()
	if !strings.Contains(body, `rwr_http_requests_total{code="200",path="/v1/query"} 16`) {
		t.Error("metrics did not count 16 served requests")
	}
	// Identical concurrent queries must collapse: the engine answers most
	// of them from the shared flight or the cache.
	_, stats := get(t, s, "/v1/stats")
	engine := stats["engine"].(map[string]any)
	if engine["cache_hits"].(float64)+engine["dedup_joins"].(float64) == 0 {
		t.Errorf("no sharing across 16 identical queries: %v", engine)
	}
}

func TestLoadGraphHelpers(t *testing.T) {
	if _, err := loadGraph("", "", 1, false); err == nil {
		t.Error("want usage error")
	}
	g, err := loadGraph("", "webstan-s", 0.02, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() == 0 {
		t.Fatal("empty graph")
	}
}

func postJSON(t *testing.T, s *server, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s: non-JSON body %q", path, rec.Body.String())
	}
	return rec, out
}

func TestBatchEndpoint(t *testing.T) {
	s := testServer(t)
	rec, body := postJSON(t, s, "/v1/batch", `{"sources":[1,2,1,3],"k":4}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	if body["count"].(float64) != 4 || body["failed"].(float64) != 0 {
		t.Fatalf("count/failed: %v", body)
	}
	items := body["results"].([]any)
	for i, raw := range items {
		item := raw.(map[string]any)
		results := item["results"].([]any)
		if len(results) != 4 {
			t.Fatalf("item %d: %d results, want 4", i, len(results))
		}
		top := results[0].(map[string]any)
		if top["score"].(float64) <= 0 {
			t.Fatalf("item %d: non-positive top score", i)
		}
	}
	// Sources 1 appears twice: the second occurrence shares work.
	_, stats := get(t, s, "/v1/stats")
	engine := stats["engine"].(map[string]any)
	if engine["cache_hits"].(float64)+engine["dedup_joins"].(float64) == 0 {
		t.Errorf("repeated batch source did not share: %v", engine)
	}
}

func TestBatchPerSourceErrors(t *testing.T) {
	s := testServer(t)
	rec, body := postJSON(t, s, "/v1/batch", `{"sources":[1,99999]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	if body["failed"].(float64) != 1 {
		t.Fatalf("failed=%v, want 1", body["failed"])
	}
	items := body["results"].([]any)
	good := items[0].(map[string]any)
	if good["error"] != nil {
		t.Fatalf("valid source errored: %v", good["error"])
	}
	bad := items[1].(map[string]any)
	if bad["error"] == nil || bad["error"].(string) == "" {
		t.Fatal("invalid source did not report an error")
	}
}

func TestBatchValidation(t *testing.T) {
	s := testServer(t)
	for _, body := range []string{
		``, `not json`, `{"sources":[]}`, `{"sources":[1],"bogus":true}`,
		`{"sources":[1]} garbage`, `{"sources":[1]}]`, `{"sources":[1]}{"sources":[2]}`,
	} {
		rec, _ := postJSON(t, s, "/v1/batch", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, rec.Code)
		}
	}
	// Batch size limit.
	small := newServer(s.g, s.params, serverOpts{Log: discardLogger(), MaxBatch: 2})
	defer small.Close()
	rec, _ := postJSON(t, small, "/v1/batch", `{"sources":[1,2,3]}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oversize batch: status %d, want 400", rec.Code)
	}
}

// TestQueryEmptyResultsIsArray pins the JSON contract: even when the
// ranking is empty, "results" must be [] — never null.
func TestQueryEmptyResultsIsArray(t *testing.T) {
	g := resacc.GenerateBarabasiAlbert(50, 2, 3)
	empty := func(_ context.Context, _ *resacc.Graph, source int32, _ resacc.Params) (*resacc.Result, error) {
		return &resacc.Result{Source: source, Scores: []float64{}}, nil
	}
	s := newServer(g, resacc.DefaultParams(g), serverOpts{
		Log:    discardLogger(),
		Engine: resacc.EngineOptions{Compute: empty},
	})
	defer s.Close()

	req := httptest.NewRequest(http.MethodGet, "/v1/query?source=1&k=5", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if strings.Contains(rec.Body.String(), `"results":null`) {
		t.Fatalf("results serialised as null: %s", rec.Body.String())
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	results, ok := body["results"].([]any)
	if !ok {
		t.Fatalf("results is %T, want JSON array", body["results"])
	}
	if len(results) != 0 {
		t.Fatalf("want empty results, got %v", results)
	}
}

// TestSaturationReturns429 pins the admission-control contract: when the
// worker pool and wait queue are full, /v1/query answers 429 with a
// Retry-After header instead of queueing unboundedly.
func TestSaturationReturns429(t *testing.T) {
	g := resacc.GenerateBarabasiAlbert(50, 2, 3)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	started := make(chan struct{}, 64)
	slow := func(_ context.Context, g *resacc.Graph, source int32, _ resacc.Params) (*resacc.Result, error) {
		started <- struct{}{}
		<-release
		return &resacc.Result{Source: source, Scores: make([]float64, g.N())}, nil
	}
	s := newServer(g, resacc.DefaultParams(g), serverOpts{
		Log:          discardLogger(),
		QueryTimeout: 10 * time.Second,
		Engine:       resacc.EngineOptions{Workers: 1, QueueDepth: 1, Compute: slow},
	})
	defer s.Close()

	// Occupy the single worker, then the single queue slot, with distinct
	// sources so nothing is deduplicated.
	codes := make(chan int, 2)
	fire := func(source string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/query?source="+source, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		codes <- rec.Code
	}
	go fire("1")
	<-started
	go fire("2")
	deadline := time.Now().Add(2 * time.Second)
	for s.engine.Stats().QueueDepth != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/query?source=3", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == nil {
		t.Fatalf("429 body not a JSON error: %s", rec.Body.String())
	}
	// /metrics must surface the shed.
	mreq := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, mreq)
	if !strings.Contains(mrec.Body.String(), "rwr_engine_shed_total 1") {
		t.Error("shed not counted in /metrics")
	}
	// Unblock the two in-flight queries so Close can drain.
	unblock()
	if c := <-codes; c != http.StatusOK {
		t.Errorf("in-flight query finished with %d", c)
	}
	if c := <-codes; c != http.StatusOK {
		t.Errorf("queued query finished with %d", c)
	}
}

func liveServer(t *testing.T, opts serverOpts) *server {
	t.Helper()
	g := resacc.GenerateBarabasiAlbert(200, 3, 7)
	opts.Log = discardLogger()
	opts.Live = true
	if opts.LiveOptions.MaxStaleness == 0 {
		opts.LiveOptions.MaxStaleness = time.Hour // swaps only when asked
	}
	s := newServer(g, resacc.DefaultParams(g), opts)
	t.Cleanup(s.Close)
	return s
}

func TestEdgesEndpointDisabledWithoutLive(t *testing.T) {
	s := testServer(t)
	rec, body := postJSON(t, s, "/v1/edges", `{"add":[[0,5]]}`)
	if rec.Code != http.StatusForbidden {
		t.Fatalf("status %d, want 403", rec.Code)
	}
	if !strings.Contains(body["error"].(string), "-live") {
		t.Fatalf("403 body does not say how to enable: %v", body)
	}
}

func TestEdgesEndpointAppliesAndFlushes(t *testing.T) {
	s := liveServer(t, serverOpts{})

	// Batch with one fresh edge: accepted, pending, not yet swapped.
	rec, body := postJSON(t, s, "/v1/edges", `{"add":[[190,191]]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	if body["applied"].(float64) != 1 || body["swapped"].(bool) {
		t.Fatalf("apply response: %v", body)
	}
	if body["pending_adds"].(float64) != 1 {
		t.Fatalf("pending_adds=%v, want 1", body["pending_adds"])
	}

	// Flush publishes; re-adding the same edge afterwards is a noop. The
	// newline json.Encoder ends a body with is not trailing data.
	rec, body = postJSON(t, s, "/v1/edges", "{\"flush\":true}\n")
	if rec.Code != http.StatusOK || !body["swapped"].(bool) {
		t.Fatalf("flush: %d %v", rec.Code, body)
	}
	if body["epoch"].(float64) != 1 {
		t.Fatalf("epoch=%v, want 1", body["epoch"])
	}
	rec, body = postJSON(t, s, "/v1/edges", `{"add":[[190,191]]}`)
	if rec.Code != http.StatusOK || body["applied"].(float64) != 0 || body["noop"].(float64) != 1 {
		t.Fatalf("duplicate add: %d %v", rec.Code, body)
	}

	// The served graph moved: stats and metrics reflect the swap.
	_, stats := get(t, s, "/v1/stats")
	if stats["edges"].(float64) != float64(s.g.M()+1) {
		t.Fatalf("served edges=%v, want boot+1=%d", stats["edges"], s.g.M()+1)
	}
	live := stats["live"].(map[string]any)
	if live["swaps"].(float64) != 1 || live["edges_added"].(float64) != 1 {
		t.Fatalf("live stats: %v", live)
	}
	if live["edge_noops"].(float64) != 1 {
		t.Fatalf("live noops: %v", live)
	}
	engine := stats["engine"].(map[string]any)
	if engine["graph_swaps"].(float64) == 0 {
		t.Fatalf("engine swap counter: %v", engine)
	}

	mreq := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, mreq)
	mbody := mrec.Body.String()
	for _, want := range []string{
		"rwr_graph_swaps_total 1",
		`rwr_edges_applied_total{op="add"} 1`,
		"# TYPE rwr_graph_swap_seconds histogram",
		"rwr_live_pending_edits 0",
		"rwr_live_snapshot_epoch 1",
	} {
		if !strings.Contains(mbody, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(mbody, "rwr_graph_edges "+strconv.Itoa(s.g.M()+1)) {
		t.Errorf("edge gauge not tracking the served graph:\n%s", mbody)
	}
}

func TestEdgesEndpointValidation(t *testing.T) {
	s := liveServer(t, serverOpts{MaxEdits: 2})
	for _, tc := range []struct {
		body string
		code int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"add":[[0,0]]}`, http.StatusBadRequest},     // self-loop
		{`{"add":[[0,9999]]}`, http.StatusBadRequest},  // out of range
		{`{"remove":[[-1,2]]}`, http.StatusBadRequest}, // negative node
		{`{"add":[[0,1],[1,2],[2,3]]}`, http.StatusRequestEntityTooLarge},
		{`{"add":[[190,191]]}{"add":[[0,0]]} trailing`, http.StatusBadRequest},
	} {
		rec, body := postJSON(t, s, "/v1/edges", tc.body)
		if rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d (%v)", tc.body, rec.Code, tc.code, body)
		}
		if body["error"] == nil {
			t.Errorf("%s: no error message", tc.body)
		}
	}
	// A rejected batch must leave nothing pending: the whole batch fails.
	_, stats := get(t, s, "/v1/stats")
	live := stats["live"].(map[string]any)
	if live["pending_adds"].(float64) != 0 || live["pending_removes"].(float64) != 0 {
		t.Fatalf("rejected batches left pending edits: %v", live)
	}
}

func TestEdgesVisibleToQueries(t *testing.T) {
	s := liveServer(t, serverOpts{})
	// Node 199 is a BA tail node; give it an edge to another tail node and
	// flush, then its ranking must surface the new neighbour.
	rec, body := postJSON(t, s, "/v1/edges", `{"add":[[199,198]],"flush":true}`)
	if rec.Code != http.StatusOK || !body["swapped"].(bool) {
		t.Fatalf("edit: %d %v", rec.Code, body)
	}
	rec, qbody := get(t, s, "/v1/query?source=199&k=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("query after edit: %d %v", rec.Code, qbody)
	}
	found := false
	for _, raw := range qbody["results"].([]any) {
		if raw.(map[string]any)["node"].(float64) == 198 {
			found = true
		}
	}
	if !found {
		t.Fatalf("query does not see the flushed edge: %v", qbody["results"])
	}
}
