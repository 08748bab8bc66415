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

// TestSwapCallbackPanicDoesNotLeakOwnership: a snapshot registered in the
// ownership set ahead of publication must be rolled back when the swap
// callback panics — otherwise every failed retry leaks one entry and Owns
// reports a never-published graph forever.
func TestSwapCallbackPanicDoesNotLeakOwnership(t *testing.T) {
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
	if st := m.Stats(); st.SwapFailures != 3 || st.Epoch != 0 {
		t.Fatalf("failure bookkeeping: %+v", st)
	}
	m.ownMu.Lock()
	ownedN := len(m.owned)
	m.ownMu.Unlock()
	if ownedN != 1 || !m.Owns(g) {
		t.Fatalf("failed swaps leaked ownership entries: owned=%d", ownedN)
	}

	fail = false
	if swapped, err := m.Flush(); err != nil || !swapped {
		t.Fatalf("post-fault flush: swapped=%v err=%v", swapped, err)
	}
	if published == nil || !m.Owns(published) {
		t.Fatal("recovered swap did not register the published snapshot")
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

func TestManagerOwnershipAndRetire(t *testing.T) {
	g := chain(t, 8)
	var retire func()
	m := NewManager(g, func(ng *graph.Graph, onRetire func()) int {
		retire = onRetire
		return 0
	}, Config{MaxStaleness: time.Hour})
	defer m.Close()
	if !m.Owns(g) {
		t.Fatal("manager does not own its base graph")
	}
	if _, err := m.Apply([][2]int32{{0, 5}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	ng := m.Graph()
	if ng == g || !m.Owns(ng) {
		t.Fatal("published snapshot not owned")
	}
	retire() // the serving layer drained the snapshot
	if m.Owns(ng) {
		t.Fatal("retired snapshot still owned")
	}
	if m.Stats().RetiredSnapshots != 1 {
		t.Fatalf("retired=%d, want 1", m.Stats().RetiredSnapshots)
	}
	// Adopt installs the retire hook for the boot snapshot.
	s := NewSnapshot(g, 0, nil)
	m.Adopt(s)
	s.Release()
	if m.Owns(g) {
		t.Fatal("boot snapshot still owned after drain")
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
