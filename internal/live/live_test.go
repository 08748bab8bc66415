package live

import (
	"errors"
	"sync"
	"testing"
	"time"

	"resacc/internal/graph"
)

// chain builds the path 0→1→…→n-1.
func chain(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.MustBuild()
}

func TestSnapshotRetiresExactlyOnceAfterDrain(t *testing.T) {
	g := chain(t, 4)
	retired := 0
	s := NewSnapshot(g, 7, func() { retired++ })
	if s.Graph() != g || s.Epoch() != 7 || s.Refs() != 1 {
		t.Fatalf("fresh snapshot state: g=%p epoch=%d refs=%d", s.Graph(), s.Epoch(), s.Refs())
	}
	s.Acquire() // reader pins
	s.Release() // reader done; current-pointer ref still held
	if retired != 0 {
		t.Fatal("retired while still current")
	}
	s.Acquire() // a reader still in flight when the swap lands
	s.Release() // the swap drops the current-pointer reference
	if retired != 0 {
		t.Fatalf("retired with a reader still pinned (retired=%d)", retired)
	}
	s.Release() // last reader drains → retire fires
	if retired != 1 {
		t.Fatalf("retire hook ran %d times, want 1", retired)
	}
	// A stray pin-loop Acquire/Release on the drained snapshot must not
	// re-fire the hook.
	s.Acquire()
	s.Release()
	if retired != 1 {
		t.Fatalf("retire hook re-fired: %d", retired)
	}
}

func TestSnapshotInstallRetire(t *testing.T) {
	g := chain(t, 3)
	s := NewSnapshot(g, 0, nil)
	fired := false
	s.InstallRetire(func() { fired = true })
	s.Release()
	if !fired {
		t.Fatal("installed retire hook did not fire")
	}
}

// TestSwapCallbackPanicKeepsBacklog: a panicking swap callback is
// contained. Each failed attempt leaves the previous graph as the base and
// the edit queued, and the first attempt that publishes carries the edit.
func TestSwapCallbackPanicKeepsBacklog(t *testing.T) {
	g := chain(t, 16)
	fail := true
	var published *graph.Graph
	m := NewManager(g, func(ng *graph.Graph, _ func()) int {
		if fail {
			panic("test: swap callback")
		}
		published = ng
		return 0
	}, Config{MaxStaleness: time.Hour})
	defer m.Close()

	if _, err := m.Apply([][2]int32{{0, 9}}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Flush(); err == nil {
			t.Fatal("faulted swap reported success")
		}
	}
	if st := m.Stats(); st.SwapFailures != 3 || st.Epoch != 0 || st.PendingAdds != 1 {
		t.Fatalf("failure bookkeeping: %+v", st)
	}
	if m.Graph() != g {
		t.Fatal("a failed swap moved the base graph")
	}

	fail = false
	if swapped, err := m.Flush(); err != nil || !swapped {
		t.Fatalf("post-fault flush: swapped=%v err=%v", swapped, err)
	}
	if published == nil || m.Graph() != published || !published.HasEdge(0, 9) {
		t.Fatal("recovered swap did not publish the queued edit")
	}
}

func TestManagerBatchesAndFlushes(t *testing.T) {
	g := chain(t, 16)
	var mu sync.Mutex
	swaps := 0
	var lastG *graph.Graph
	m := NewManager(g, func(ng *graph.Graph, onRetire func()) int {
		mu.Lock()
		defer mu.Unlock()
		swaps++
		lastG = ng
		return 0
	}, Config{MaxStaleness: time.Hour, MaxPending: 1000})
	defer m.Close()

	res, err := m.Apply([][2]int32{{0, 5}, {0, 5}, {0, 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// {0,5} applies once, the duplicate coalesces, {0,1} already in base.
	if res.Applied != 1 || res.Noops != 2 {
		t.Fatalf("applied=%d noops=%d, want 1/2", res.Applied, res.Noops)
	}
	if res.Swapped || res.PendingAdds != 1 {
		t.Fatalf("premature swap or wrong pending: %+v", res)
	}
	mu.Lock()
	if swaps != 0 {
		mu.Unlock()
		t.Fatal("swap before flush")
	}
	mu.Unlock()

	swapped, err := m.Flush()
	if err != nil || !swapped {
		t.Fatalf("flush: swapped=%v err=%v", swapped, err)
	}
	mu.Lock()
	if swaps != 1 || !lastG.HasEdge(0, 5) {
		mu.Unlock()
		t.Fatalf("swap missing or edge absent (swaps=%d)", swaps)
	}
	mu.Unlock()
	if m.Graph() != lastG {
		t.Fatal("manager base not re-based on the published snapshot")
	}
	st := m.Stats()
	if st.Epoch != 1 || st.Swaps != 1 || st.EdgesAdded != 1 || st.EdgeNoops != 2 {
		t.Fatalf("stats: %+v", st)
	}
	// Nothing pending: Flush is a no-op.
	if swapped, err := m.Flush(); err != nil || swapped {
		t.Fatalf("empty flush swapped=%v err=%v", swapped, err)
	}
}

func TestManagerValidationRejectsWholeBatch(t *testing.T) {
	g := chain(t, 8)
	m := NewManager(g, func(*graph.Graph, func()) int { return 0 },
		Config{MaxStaleness: time.Hour})
	defer m.Close()
	_, err := m.Apply([][2]int32{{0, 5}, {3, 99}}, nil)
	if err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := m.Apply([][2]int32{{2, 2}}, nil); err == nil {
		t.Fatal("self-loop accepted")
	}
	if st := m.Stats(); st.PendingAdds != 0 || st.EdgesAdded != 0 {
		t.Fatalf("rejected batch left state behind: %+v", st)
	}
}

func TestManagerMaxPendingForcesInlineSwap(t *testing.T) {
	g := chain(t, 64)
	swaps := 0
	m := NewManager(g, func(*graph.Graph, func()) int {
		swaps++
		return 0
	}, Config{MaxStaleness: time.Hour, MaxPending: 3})
	defer m.Close()
	res, err := m.Apply([][2]int32{{0, 9}, {0, 10}, {0, 11}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Swapped || swaps != 1 || res.PendingAdds != 0 {
		t.Fatalf("pending cap did not swap inline: %+v (swaps=%d)", res, swaps)
	}
}

func TestManagerStalenessTimerFlushes(t *testing.T) {
	g := chain(t, 8)
	done := make(chan struct{})
	m := NewManager(g, func(*graph.Graph, func()) int {
		close(done)
		return 0
	}, Config{MaxStaleness: 20 * time.Millisecond})
	defer m.Close()
	if _, err := m.Apply([][2]int32{{0, 5}}, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("max-staleness timer never swapped")
	}
}

func TestManagerCloseFlushesAndRejects(t *testing.T) {
	g := chain(t, 8)
	swaps := 0
	m := NewManager(g, func(*graph.Graph, func()) int {
		swaps++
		return 0
	}, Config{MaxStaleness: time.Hour})
	if _, err := m.Apply([][2]int32{{0, 5}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if swaps != 1 {
		t.Fatalf("close did not flush (swaps=%d)", swaps)
	}
	if _, err := m.Apply([][2]int32{{0, 6}}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply after close: %v", err)
	}
	if _, err := m.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("flush after close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestManagerCountsRetiredSnapshots: the retire hook handed to the swap
// callback, and the one Adopt installs on the boot snapshot, each count
// one retirement.
func TestManagerCountsRetiredSnapshots(t *testing.T) {
	g := chain(t, 8)
	var retire func()
	m := NewManager(g, func(ng *graph.Graph, onRetire func()) int {
		retire = onRetire
		return 0
	}, Config{MaxStaleness: time.Hour})
	defer m.Close()
	if _, err := m.Apply([][2]int32{{0, 5}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().RetiredSnapshots != 0 {
		t.Fatalf("retired=%d before any drain, want 0", m.Stats().RetiredSnapshots)
	}
	retire() // the serving layer drained the snapshot
	if m.Stats().RetiredSnapshots != 1 {
		t.Fatalf("retired=%d, want 1", m.Stats().RetiredSnapshots)
	}
	// Adopt installs the retire hook for the boot snapshot.
	s := NewSnapshot(g, 0, nil)
	m.Adopt(s)
	s.Release()
	if m.Stats().RetiredSnapshots != 2 {
		t.Fatalf("retired=%d after the boot snapshot drained, want 2", m.Stats().RetiredSnapshots)
	}
}

func TestManagerOnSwapReportsExactDelta(t *testing.T) {
	g := chain(t, 16)
	var added, removed [][2]int32
	m := NewManager(g, func(*graph.Graph, func()) int { return 0 },
		Config{MaxStaleness: time.Hour,
			OnSwap: func(_ *graph.Graph, a, r [][2]int32) { added, removed = a, r }})
	defer m.Close()
	// add (0,5); remove (3,4) from base; add-then-remove (7,9) nets out.
	if _, err := m.Apply([][2]int32{{0, 5}, {7, 9}}, [][2]int32{{3, 4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(nil, [][2]int32{{7, 9}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(added) != 1 || added[0] != [2]int32{0, 5} {
		t.Fatalf("added=%v, want [[0 5]]", added)
	}
	if len(removed) != 1 || removed[0] != [2]int32{3, 4} {
		t.Fatalf("removed=%v, want [[3 4]]", removed)
	}
}
