//go:build faultinject

package live

import (
	"testing"
	"time"

	"resacc/internal/crash"
	"resacc/internal/faultinject"
	"resacc/internal/graph"
)

// TestChaosSwapPanicKeepsOldSnapshot is the swap-pipeline containment
// proof: a panic injected at live.swap (after the new snapshot is built,
// before it is published) must leave the previously served graph in place,
// keep the edit backlog queued, surface as a contained error — and the
// next un-faulted flush must publish the exact same edits.
func TestChaosSwapPanicKeepsOldSnapshot(t *testing.T) {
	defer faultinject.Reset()
	g := chain(t, 16)
	swaps := 0
	var published *graph.Graph
	m := NewManager(g, func(ng *graph.Graph, _ func()) int {
		swaps++
		published = ng
		return 0
	}, Config{MaxStaleness: time.Hour})
	defer m.Close()

	faultinject.Set("live.swap", func() { panic("chaos: swap") })
	if _, err := m.Apply([][2]int32{{0, 9}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Flush(); err == nil {
		t.Fatal("faulted swap reported success")
	} else if !crash.IsPanic(err) {
		t.Fatalf("swap failure is not a contained panic: %v", err)
	}
	if swaps != 0 || m.Graph() != g {
		t.Fatalf("faulted swap published something: swaps=%d", swaps)
	}
	st := m.Stats()
	if st.SwapFailures != 1 || st.Epoch != 0 {
		t.Fatalf("failure bookkeeping: %+v", st)
	}
	if st.PendingAdds != 1 {
		t.Fatalf("edit backlog lost on failed swap: %+v", st)
	}

	// Clear the fault: the retry publishes the queued edit.
	faultinject.Reset()
	if swapped, err := m.Flush(); err != nil || !swapped {
		t.Fatalf("post-fault flush: swapped=%v err=%v", swapped, err)
	}
	if swaps != 1 || !published.HasEdge(0, 9) {
		t.Fatalf("recovered swap wrong: swaps=%d", swaps)
	}
}

// TestChaosSwapPanicTimerRetries proves the max-staleness timer re-arms
// after a faulted background flush, so staleness stays bounded by the
// retry cadence instead of becoming unbounded after one bad swap.
func TestChaosSwapPanicTimerRetries(t *testing.T) {
	defer faultinject.Reset()
	g := chain(t, 16)
	done := make(chan struct{})
	m := NewManager(g, func(*graph.Graph, func()) int {
		close(done)
		return 0
	}, Config{MaxStaleness: 15 * time.Millisecond})
	defer m.Close()

	armed := true
	faultinject.Set("live.swap", func() {
		if armed {
			armed = false // fault the first attempt only
			panic("chaos: swap")
		}
	})
	if _, err := m.Apply([][2]int32{{0, 9}}, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timer did not retry after a faulted flush")
	}
	if m.Stats().SwapFailures != 1 {
		t.Fatalf("failures=%d, want 1", m.Stats().SwapFailures)
	}
}
