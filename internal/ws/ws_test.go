package ws

import "testing"

func TestMarksBasics(t *testing.T) {
	var m Marks
	m.Grow(8)
	if m.Cap() != 8 {
		t.Fatalf("Cap=%d, want 8", m.Cap())
	}
	if !m.Mark(3) || m.Mark(3) {
		t.Fatal("Mark should report newly-added exactly once")
	}
	if !m.Has(3) || m.Has(4) {
		t.Fatal("membership wrong after Mark")
	}
	m.Mark(5)
	if got := m.Touched(); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("Touched=%v, want [3 5]", got)
	}
	m.Clear()
	if m.Has(3) || m.Len() != 0 {
		t.Fatal("Clear should empty the set")
	}
	if !m.Mark(3) {
		t.Fatal("Mark after Clear should be newly-added")
	}
}

// TestMarksAddSkipsTouched: Add has Mark's membership semantics but leaves
// the touched list alone, also across Unmark and re-Add.
func TestMarksAddSkipsTouched(t *testing.T) {
	var m Marks
	m.Grow(8)
	if !m.Add(2) || m.Add(2) {
		t.Fatal("Add should report newly-added exactly once")
	}
	if !m.Has(2) || m.Has(3) || m.Mark(2) {
		t.Fatal("membership wrong after Add")
	}
	m.Unmark(2)
	if m.Has(2) || !m.Add(2) {
		t.Fatal("re-Add after Unmark should report newly-added")
	}
	if m.Len() != 0 {
		t.Fatalf("Add recorded touches: %v", m.Touched())
	}
	m.Clear()
	if m.Has(2) {
		t.Fatal("Clear should empty a set filled by Add")
	}
}

func TestMarksUnmark(t *testing.T) {
	var m Marks
	m.Grow(4)
	m.Mark(1)
	m.Unmark(1)
	if m.Has(1) {
		t.Fatal("Unmark left 1 in the set")
	}
	if m.Len() != 1 {
		t.Fatalf("touched list should keep unmarked slots, Len=%d", m.Len())
	}
	// Re-Mark after Unmark: membership is restored; the touched list may
	// contain duplicates (documented), which idempotent consumers tolerate.
	if !m.Mark(1) {
		t.Fatal("re-Mark after Unmark should report newly-added")
	}
	if !m.Has(1) {
		t.Fatal("re-Mark did not restore membership")
	}
}

func TestMarksGrowPreservesMembers(t *testing.T) {
	var m Marks
	m.Grow(2)
	m.Mark(1)
	m.Grow(10)
	if !m.Has(1) || m.Has(5) {
		t.Fatal("Grow must preserve members and not invent new ones")
	}
}

func TestMarksGenerationWrap(t *testing.T) {
	var m Marks
	m.Grow(3)
	m.Mark(2)
	// Force the wraparound path: set gen to the max value, then Clear.
	m.gen = ^uint32(0)
	m.stamp[1] = m.gen // a stale member from "2^32 generations ago"
	m.Clear()
	if m.gen != 1 {
		t.Fatalf("gen after wrap=%d, want 1", m.gen)
	}
	if m.Has(0) || m.Has(1) || m.Has(2) {
		t.Fatal("wrap wipe left stale members")
	}
	m.Mark(1)
	if !m.Has(1) {
		t.Fatal("Mark after wrap broken")
	}
}

func TestWorkspaceSparseReset(t *testing.T) {
	w := New(6)
	w.AddReserve(2, 0.5)
	w.AddResidue(4, 0.25)
	w.SetResidue(2, 0.1)
	if w.Dirty.Len() != 2 {
		t.Fatalf("Dirty.Len=%d, want 2", w.Dirty.Len())
	}
	if got := w.SumResidue(); got != 0.35 {
		t.Fatalf("SumResidue=%v, want 0.35", got)
	}
	scores := w.ExtractScores()
	if len(scores) != 6 || scores[2] != 0.5 || scores[4] != 0 {
		t.Fatalf("ExtractScores=%v", scores)
	}
	w.Reset(6)
	for i, x := range w.Reserve {
		if x != 0 {
			t.Fatalf("Reserve[%d]=%v after Reset", i, x)
		}
	}
	for i, x := range w.Residue {
		if x != 0 {
			t.Fatalf("Residue[%d]=%v after Reset", i, x)
		}
	}
	if w.Dirty.Len() != 0 || w.InSub.Len() != 0 {
		t.Fatal("Reset left marks")
	}
}

func TestWorkspaceResetGrows(t *testing.T) {
	w := New(4)
	w.AddReserve(3, 1)
	w.Reset(16)
	if len(w.Reserve) != 16 || len(w.Residue) != 16 {
		t.Fatalf("Reset(16) sized vectors to %d/%d", len(w.Reserve), len(w.Residue))
	}
	if w.Reserve[3] != 0 {
		t.Fatal("Reset did not zero the dirty slot before growing")
	}
	w.AddReserve(15, 1)
	if w.N() != 16 {
		t.Fatalf("N=%d, want 16", w.N())
	}
}

func TestPoolRecyclesAndResets(t *testing.T) {
	p := NewPool()
	w := p.Get(8)
	w.AddReserve(1, 2)
	p.Put(w)
	w2 := p.Get(8)
	if w2 != w {
		t.Skip("sync.Pool declined to recycle (GC ran); nothing to assert")
	}
	if w2.Reserve[1] != 0 || w2.Dirty.Len() != 0 {
		t.Fatal("recycled workspace was not reset")
	}
}

func TestPoolInvalidateDropsStale(t *testing.T) {
	p := NewPool()
	w := p.Get(8)
	p.Put(w)
	p.Invalidate()
	if got := p.Epoch(); got != 1 {
		t.Fatalf("Epoch=%d, want 1", got)
	}
	w2 := p.Get(8)
	if w2 == w {
		t.Fatal("Get returned a workspace from a retired epoch")
	}
	p.Put(w2)
	if w3 := p.Get(8); w3 == w {
		t.Fatal("stale workspace resurfaced")
	}
}

func TestPoolShrinksOversized(t *testing.T) {
	p := NewPool()
	big := p.Get(shrinkFloor + 1)
	p.Put(big)
	small := p.Get(4)
	if small == big {
		t.Fatal("pool reused a workspace more than shrinkFactor× oversized")
	}
}

func TestNilPoolFallsBack(t *testing.T) {
	var p *Pool
	w := p.Get(5)
	if w == nil || w.N() != 5 {
		t.Fatal("nil pool should allocate fresh workspaces")
	}
	p.Put(w)       // no-op
	p.Invalidate() // no-op
	if p.Epoch() != 0 {
		t.Fatal("nil pool epoch should be 0")
	}
}

func TestPoolRefit(t *testing.T) {
	p := NewPool()
	// First Refit records the geometry without invalidating anything.
	if p.Refit(100) {
		t.Fatal("initial refit invalidated an empty pool")
	}
	w := p.Get(100)
	p.Put(w)
	// Same node count: an edge-only swap keeps the pooled workspace.
	if p.Refit(100) {
		t.Fatal("same-size refit invalidated the pool")
	}
	// sync.Pool may drop any Put (the race detector drops a quarter of
	// them on purpose), so offer w again until the pool keeps it. An
	// invalidated pool would refuse w on every attempt.
	got := p.Get(100)
	for i := 0; i < 64 && got != w; i++ {
		p.Put(w)
		got = p.Get(100)
	}
	if got != w {
		t.Fatal("pooled workspace not reused across same-size refit")
	}
	p.Put(w)
	// Geometry change: pooled scratch is sized wrong, must be retired.
	if !p.Refit(101) {
		t.Fatal("size change did not invalidate")
	}
	if got := p.Get(101); got == w {
		t.Fatal("stale-size workspace served after refit")
	}
}
