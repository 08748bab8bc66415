package resacc

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestQueryHookFires(t *testing.T) {
	g := GenerateBarabasiAlbert(100, 3, 1)
	var events []QueryEvent
	var mu sync.Mutex
	e := NewEngine(g, DefaultParams(g), EngineOptions{OnQuery: func(ev QueryEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}})
	defer e.Close()

	res, err := e.Query(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 {
		t.Fatalf("observer fired %d times for a miss and a hit, want 1", len(events))
	}
	ev := events[0]
	if ev.Source != 5 || ev.Err != nil {
		t.Fatalf("event: %+v", ev)
	}
	if ev.Duration < ev.Stats.Total() {
		t.Errorf("wall duration %v below phase sum %v", ev.Duration, ev.Stats.Total())
	}
	if ev.Stats != res.Stats {
		t.Error("event stats differ from result stats")
	}
	if ev.Start.IsZero() || time.Since(ev.Start) < 0 {
		t.Error("bad start time")
	}
}

// TestQueryHookErrorAndRemove: a failed computation reaches the engine's
// observer with its error, and queries the engine does not run — on a
// second engine over the same graph, or through the package-level
// facade — never do.
func TestQueryHookErrorAndRemove(t *testing.T) {
	g := GenerateBarabasiAlbert(50, 2, 1)
	var calls atomic.Int64
	var lastErr atomic.Value
	e := NewEngine(g, DefaultParams(g), EngineOptions{OnQuery: func(ev QueryEvent) {
		calls.Add(1)
		if ev.Err != nil {
			lastErr.Store(ev.Err)
		}
	}})
	defer e.Close()
	ctx := context.Background()

	if _, err := e.Query(ctx, 9999); err == nil {
		t.Fatal("out-of-range source should fail")
	}
	if calls.Load() != 1 || lastErr.Load() == nil {
		t.Fatalf("error event not delivered: calls=%d", calls.Load())
	}

	var otherCalls atomic.Int64
	other := NewEngine(g, DefaultParams(g), EngineOptions{OnQuery: func(QueryEvent) { otherCalls.Add(1) }})
	defer other.Close()
	if _, err := other.Query(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := other.QueryTopK(ctx, 2, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := Query(g, 1, DefaultParams(g)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := QueryTopK(g, 2, 5, DefaultParams(g)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("first engine observed %d events, want only its own 1", calls.Load())
	}
	if otherCalls.Load() < 2 {
		t.Fatalf("second engine observed %d events, want at least 2", otherCalls.Load())
	}
}

func TestQueryHookMultiAndTopK(t *testing.T) {
	g := GenerateBarabasiAlbert(80, 2, 3)
	var calls atomic.Int64
	e := NewEngine(g, DefaultParams(g), EngineOptions{OnQuery: func(QueryEvent) { calls.Add(1) }})
	defer e.Close()
	ctx := context.Background()

	if _, errs := e.QueryBatch(ctx, []int32{1, 2, 3}); errs[0] != nil || errs[1] != nil || errs[2] != nil {
		t.Fatal(errs)
	}
	if calls.Load() != 3 {
		t.Fatalf("QueryBatch fired %d events, want 3", calls.Load())
	}

	calls.Store(0)
	if _, err := e.QueryTopK(ctx, 1, 5); err != nil {
		t.Fatal(err)
	}
	if calls.Load() < 1 {
		t.Fatal("QueryTopK fired no events")
	}
}

func TestStatsString(t *testing.T) {
	g := GenerateBarabasiAlbert(100, 3, 1)
	res, err := Query(g, 0, DefaultParams(g))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats.String()
	// All three phase durations must appear in the one-line summary.
	for _, phase := range []string{"h-HopFWD=", "OMFWD=", "Remedy=", "total="} {
		if !strings.Contains(s, phase) {
			t.Errorf("summary missing %q: %s", phase, s)
		}
	}
	if !strings.Contains(s, "walks=") || !strings.Contains(s, "pushes=") {
		t.Errorf("summary missing counters: %s", s)
	}
}
