package live

import (
	"errors"
	"testing"
	"time"

	"resacc/internal/graph"
	"resacc/internal/pressure"
)

func noSwap(*graph.Graph, func()) int { return 0 }

func TestManagerBacklogRejectsWholeBatch(t *testing.T) {
	g := chain(t, 64)
	m := NewManager(g, noSwap, Config{
		MaxStaleness: time.Hour, MaxPending: 100, MaxBacklog: 4})
	defer m.Close()

	if _, err := m.Apply([][2]int32{{0, 9}, {0, 10}, {0, 11}}, nil); err != nil {
		t.Fatal(err)
	}
	// 3 pending + a batch of 2 would exceed 4: rejected whole, nothing applied.
	_, err := m.Apply([][2]int32{{0, 12}, {0, 13}}, nil)
	if !errors.Is(err, ErrBacklog) {
		t.Fatalf("Apply past backlog = %v, want ErrBacklog", err)
	}
	st := m.Stats()
	if st.PendingAdds != 3 {
		t.Fatalf("pending = %d after rejection, want 3 (nothing applied)", st.PendingAdds)
	}
	if st.RejectedBacklog != 1 || st.MaxBacklog != 4 {
		t.Fatalf("stats: rejected=%d maxBacklog=%d, want 1/4", st.RejectedBacklog, st.MaxBacklog)
	}
	if g := m.Graph(); g.HasEdge(0, 12) {
		t.Fatal("rejected edit leaked into the graph")
	}
	// A batch that still fits is admitted.
	if _, err := m.Apply([][2]int32{{0, 12}}, nil); err != nil {
		t.Fatalf("fitting batch rejected: %v", err)
	}
	// Draining the backlog reopens the gate.
	if _, err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply([][2]int32{{0, 13}, {0, 14}}, nil); err != nil {
		t.Fatalf("Apply after drain = %v, want nil", err)
	}
}

func TestManagerBacklogFrac(t *testing.T) {
	g := chain(t, 64)
	m := NewManager(g, noSwap, Config{
		MaxStaleness: time.Hour, MaxPending: 100, MaxBacklog: 10})
	defer m.Close()
	if f := m.BacklogFrac(); f != 0 {
		t.Fatalf("empty BacklogFrac = %v, want 0", f)
	}
	for i := int32(0); i < 5; i++ {
		if _, err := m.Apply([][2]int32{{0, 9 + i}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if f := m.BacklogFrac(); f != 0.5 {
		t.Fatalf("BacklogFrac at 5/10 = %v, want 0.5", f)
	}
}

func TestManagerRetryAfterBounds(t *testing.T) {
	g := chain(t, 64)
	m := NewManager(g, noSwap, Config{
		MaxStaleness: 1500 * time.Millisecond, MaxPending: 100, MaxBacklog: 2})
	defer m.Close()
	if _, err := m.Apply([][2]int32{{0, 9}, {0, 10}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply([][2]int32{{0, 11}}, nil); !errors.Is(err, ErrBacklog) {
		t.Fatalf("err = %v, want ErrBacklog", err)
	}
	// Backlog pending for ~0s of a 1.5s staleness window: the flush is
	// ≤ 1.5s away, so the hint is 1–2s and in whole seconds.
	d := m.RetryAfter()
	if d < time.Second || d > 2*time.Second {
		t.Fatalf("RetryAfter = %v, want within [1s, 2s]", d)
	}
	if d%time.Second != 0 {
		t.Fatalf("RetryAfter = %v, want whole seconds", d)
	}
	if d > pressure.MaxRetryAfter {
		t.Fatalf("RetryAfter = %v above clamp %v", d, pressure.MaxRetryAfter)
	}
}

func TestManagerMinSwapGapDefersInlineSwap(t *testing.T) {
	g := chain(t, 64)
	swaps := 0
	m := NewManager(g, func(*graph.Graph, func()) int {
		swaps++
		return 0
	}, Config{
		MaxStaleness: 40 * time.Millisecond, MaxPending: 2, MinSwapGap: time.Hour})
	defer m.Close()

	// First MaxPending trip swaps inline (no previous swap to throttle on).
	res, err := m.Apply([][2]int32{{0, 9}, {0, 10}}, nil)
	if err != nil || !res.Swapped {
		t.Fatalf("first inline swap: %+v err=%v", res, err)
	}
	// Second trip is inside the gap: deferred, edits stay pending...
	res, err = m.Apply([][2]int32{{0, 11}, {0, 12}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Swapped || res.PendingAdds != 2 {
		t.Fatalf("inline swap not deferred by MinSwapGap: %+v", res)
	}
	// ...until the staleness timer flushes them regardless of the gap.
	deadline := time.Now().Add(2 * time.Second)
	for m.Stats().Epoch < 2 {
		if time.Now().After(deadline) {
			t.Fatal("staleness timer did not flush past MinSwapGap")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !m.Graph().HasEdge(0, 12) {
		t.Fatal("deferred edit not visible after timer flush")
	}
}
