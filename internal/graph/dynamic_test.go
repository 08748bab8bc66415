package graph

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestDynamicAddRemoveEdge(t *testing.T) {
	g := line(4) // 0->1->2->3
	d := NewDynamic(g)
	if err := d.AddEdge(3, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if !d.HasEdge(3, 0) || d.HasEdge(0, 1) || !d.HasEdge(1, 2) {
		t.Fatal("edit state wrong")
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.M() != 3 {
		t.Fatalf("m=%d, want 3", snap.M())
	}
	if !snap.HasEdge(3, 0) || snap.HasEdge(0, 1) {
		t.Fatal("snapshot edges wrong")
	}
	// Base graph untouched.
	if !g.HasEdge(0, 1) || g.HasEdge(3, 0) {
		t.Fatal("base graph mutated")
	}
}

func TestDynamicCancellingEdits(t *testing.T) {
	g := line(3)
	d := NewDynamic(g)
	// Remove then re-add an existing edge: net no-op.
	if err := d.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	// Add then remove a new edge: net no-op.
	if err := d.AddEdge(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveEdge(2, 0); err != nil {
		t.Fatal(err)
	}
	adds, removes := d.PendingEdits()
	if adds != 0 || removes != 0 {
		t.Fatalf("pending edits %d/%d, want 0/0", adds, removes)
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.M() != g.M() {
		t.Fatal("cancelling edits changed the graph")
	}
}

func TestDynamicNoOpEdits(t *testing.T) {
	g := line(3)
	d := NewDynamic(g)
	if err := d.AddEdge(0, 1); err != nil { // already present
		t.Fatal(err)
	}
	if err := d.RemoveEdge(2, 0); err != nil { // never existed
		t.Fatal(err)
	}
	adds, removes := d.PendingEdits()
	if adds != 0 || removes != 0 {
		t.Fatalf("no-op edits recorded: %d/%d", adds, removes)
	}
}

func TestDynamicRejectsBadEdges(t *testing.T) {
	d := NewDynamic(line(3))
	if err := d.AddEdge(0, 9); err == nil {
		t.Error("want range error")
	}
	if err := d.AddEdge(1, 1); err == nil {
		t.Error("want self-loop error")
	}
	if err := d.RemoveEdge(-1, 0); err == nil {
		t.Error("want range error")
	}
	if err := d.IsolateNode(17); err == nil {
		t.Error("want range error")
	}
}

func TestDynamicAddNode(t *testing.T) {
	g := line(3)
	d := NewDynamic(g)
	if err := d.AddEdge(2, 0); err != nil { // pending edit before AddNode
		t.Fatal(err)
	}
	v := d.AddNode()
	if v != 3 || d.N() != 4 {
		t.Fatalf("new node %d, n=%d", v, d.N())
	}
	if err := d.AddEdge(v, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(1, v); err != nil {
		t.Fatal(err)
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.N() != 4 || snap.M() != 5 {
		t.Fatalf("snapshot n=%d m=%d", snap.N(), snap.M())
	}
	if !snap.HasEdge(2, 0) || !snap.HasEdge(3, 0) || !snap.HasEdge(1, 3) {
		t.Fatal("edges lost across AddNode re-encoding")
	}
}

func TestDynamicIsolateNode(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 1)
	b.AddEdge(3, 1)
	g := b.MustBuild()
	d := NewDynamic(g)
	if err := d.AddEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := d.IsolateNode(1); err != nil {
		t.Fatal(err)
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.OutDegree(1) != 0 || snap.InDegree(1) != 0 {
		t.Fatalf("node 1 not isolated: out=%d in=%d", snap.OutDegree(1), snap.InDegree(1))
	}
	if snap.M() != 0 {
		t.Fatalf("m=%d, want 0 (all edges touched node 1)", snap.M())
	}
}

func TestDynamicSnapshotMatchesRebuild(t *testing.T) {
	// Property: applying random edits through Dynamic equals rebuilding
	// from scratch with a Builder.
	check := func(seed uint64) bool {
		g := randomGraph(20, 60, seed)
		d := NewDynamic(g)
		want := map[[2]int32]bool{}
		for u := int32(0); int(u) < g.N(); u++ {
			for _, v := range g.Out(u) {
				want[[2]int32{u, v}] = true
			}
		}
		x := seed*2 + 1
		next := func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x
		}
		for i := 0; i < 40; i++ {
			u := int32(next() % 20)
			v := int32(next() % 20)
			if u == v {
				continue
			}
			if next()%2 == 0 {
				if d.AddEdge(u, v) != nil {
					return false
				}
				want[[2]int32{u, v}] = true
			} else {
				if d.RemoveEdge(u, v) != nil {
					return false
				}
				delete(want, [2]int32{u, v})
			}
		}
		snap, err := d.Snapshot()
		if err != nil {
			return false
		}
		if snap.M() != len(want) {
			return false
		}
		for e := range want {
			if !snap.HasEdge(e[0], e[1]) {
				return false
			}
		}
		// Adjacency must be sorted (CSR invariant used by binary format).
		for u := int32(0); int(u) < snap.N(); u++ {
			out := snap.Out(u)
			for i := 1; i < len(out); i++ {
				if out[i-1] >= out[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicVersion(t *testing.T) {
	g := line(4) // 0->1->2->3
	d := NewDynamic(g)
	if d.Version() != 0 {
		t.Fatalf("fresh session version %d, want 0", d.Version())
	}
	mustBump := func(op func() error, wantBump uint64, what string) {
		t.Helper()
		before := d.Version()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := d.Version() - before; got != wantBump {
			t.Fatalf("%s: version moved by %d, want %d", what, got, wantBump)
		}
	}
	mustBump(func() error { return d.AddEdge(3, 0) }, 1, "add new edge")
	mustBump(func() error { return d.AddEdge(3, 0) }, 0, "re-add pending edge")
	mustBump(func() error { return d.AddEdge(0, 1) }, 0, "add existing base edge")
	mustBump(func() error { return d.RemoveEdge(0, 1) }, 1, "remove base edge")
	mustBump(func() error { return d.RemoveEdge(0, 1) }, 0, "remove already-removed edge")
	mustBump(func() error { return d.AddEdge(0, 1) }, 1, "restore removed edge")
	mustBump(func() error { return d.RemoveEdge(2, 0) }, 0, "remove non-existent edge")
	mustBump(func() error { _ = d.AddNode(); return nil }, 1, "add node")
	mustBump(func() error { return d.IsolateNode(3) }, 2, "isolate node with two incident edges")
}

func TestDynamicSingleWriterGuardPanics(t *testing.T) {
	g := line(4)
	d := NewDynamic(g)
	d.beginMut() // another goroutine is mid-mutation
	defer d.endMut()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not trip the single-writer guard", name)
			}
		}()
		fn()
	}
	mustPanic("AddEdge", func() { _ = d.AddEdge(3, 0) })
	mustPanic("RemoveEdge", func() { _ = d.RemoveEdge(0, 1) })
	mustPanic("AddNode", func() { d.AddNode() })
	mustPanic("IsolateNode", func() { _ = d.IsolateNode(1) })
	mustPanic("Snapshot", func() { _, _ = d.Snapshot() })
}

func TestDynamicIsolateNodeDoesNotSelfTripGuard(t *testing.T) {
	// IsolateNode removes edges internally; the guard must treat the whole
	// call as ONE mutation, not panic on its own nested removals.
	g := line(4)
	d := NewDynamic(g)
	if err := d.IsolateNode(1); err != nil {
		t.Fatal(err)
	}
	if d.HasEdge(0, 1) || d.HasEdge(1, 2) {
		t.Fatal("isolation incomplete")
	}
}

func TestDynamicInterleavedAddRemoveAdd(t *testing.T) {
	// Regression for the live write path's coalescing: interleaving add,
	// remove, add of the same edge must land as exactly one pending
	// insertion, with the version counting all three effective changes.
	g := line(4) // 0->1->2->3
	d := NewDynamic(g)
	v0 := d.Version()
	for i, op := range []func() error{
		func() error { return d.AddEdge(3, 0) },
		func() error { return d.RemoveEdge(3, 0) },
		func() error { return d.AddEdge(3, 0) },
	} {
		if err := op(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if d.Version() != v0+3 {
		t.Fatalf("version advanced %d, want 3", d.Version()-v0)
	}
	adds, removes := d.PendingEdits()
	if adds != 1 || removes != 0 {
		t.Fatalf("pending %d/%d, want 1/0", adds, removes)
	}
	// The mirror interleaving on a base edge: remove, add, remove → one
	// pending deletion.
	if err := d.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	adds, removes = d.PendingEdits()
	if adds != 1 || removes != 1 {
		t.Fatalf("pending %d/%d, want 1/1", adds, removes)
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.HasEdge(3, 0) || snap.HasEdge(1, 2) {
		t.Fatal("snapshot does not reflect the interleaved edits")
	}
}

func TestDynamicEditsRoundTrip(t *testing.T) {
	g := line(5)
	d := NewDynamic(g)
	if err := d.AddEdge(4, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	added, removed := d.Edits()
	if len(added) != 2 || len(removed) != 1 {
		t.Fatalf("edits %v/%v, want 2 adds and 1 remove", added, removed)
	}
	// Replaying the reported delta on a fresh session reproduces the
	// snapshot exactly — the contract the live swap's OnSwap observer and
	// the offline-rebuild consistency tests rely on.
	d2 := NewDynamic(g)
	for _, e := range added {
		if err := d2.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range removed {
		if err := d2.RemoveEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	s1, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := d2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if s1.N() != s2.N() || s1.M() != s2.M() {
		t.Fatalf("replayed graph differs: n %d/%d m %d/%d", s1.N(), s2.N(), s1.M(), s2.M())
	}
	for u := int32(0); int(u) < s1.N(); u++ {
		o1, o2 := s1.Out(u), s2.Out(u)
		if len(o1) != len(o2) {
			t.Fatalf("node %d degree differs", u)
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("node %d adjacency differs", u)
			}
		}
	}
}

// sameCSR reports whether a and b have identical out- and in-lists, order
// included.
func sameCSR(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := int32(0); int(v) < a.N(); v++ {
		if !slices.Equal(a.Out(v), b.Out(v)) || !slices.Equal(a.In(v), b.In(v)) {
			return false
		}
	}
	return true
}

func TestDynamicSnapshotCSRMatchesBuilder(t *testing.T) {
	// Chained sessions, each based on the previous snapshot, with node
	// growth and isolation mixed in: every snapshot's CSR, in-lists
	// included, must equal a Builder rebuild of the edited edge set.
	for seed := uint64(1); seed <= 20; seed++ {
		g := randomGraph(30, 120, seed)
		want := map[[2]int32]bool{}
		for u := int32(0); int(u) < g.N(); u++ {
			for _, v := range g.Out(u) {
				want[[2]int32{u, v}] = true
			}
		}
		x := seed*2 + 1
		next := func(n int) int32 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int32(x % uint64(n))
		}
		for round := 0; round < 4; round++ {
			d := NewDynamic(g)
			if round == 2 {
				d.AddNode()
			}
			for i := 0; i < 25; i++ {
				u, v := next(d.N()), next(d.N())
				if u == v {
					continue
				}
				if next(2) == 0 {
					if err := d.AddEdge(u, v); err != nil {
						t.Fatal(err)
					}
					want[[2]int32{u, v}] = true
				} else {
					if err := d.RemoveEdge(u, v); err != nil {
						t.Fatal(err)
					}
					delete(want, [2]int32{u, v})
				}
			}
			if round == 3 {
				v := next(d.N())
				if err := d.IsolateNode(v); err != nil {
					t.Fatal(err)
				}
				for e := range want {
					if e[0] == v || e[1] == v {
						delete(want, e)
					}
				}
			}
			snap, err := d.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			b := NewBuilder(d.N())
			for e := range want {
				b.AddEdge(e[0], e[1])
			}
			if !sameCSR(snap, b.MustBuild()) {
				t.Fatalf("seed %d round %d: snapshot CSR differs from a Builder rebuild", seed, round)
			}
			g = snap
		}
	}
}

func TestDynamicSnapshotSortsInLists(t *testing.T) {
	// Out-lists in descending order make the transpose's in-lists
	// descending; a snapshot of it still has ascending in-lists.
	g := &Graph{n: 4, outAdj: []int32{3, 2, 1, 3, 2}, outOff: []int{0, 3, 5, 5, 5}}
	g.inAdj, g.inOff = []int32{0, 0, 1, 0, 1}, []int{0, 0, 1, 3, 5}
	d := NewDynamic(Transpose(g))
	if err := d.AddEdge(0, 1); err != nil { // in-list of 1 gains 0
		t.Fatal(err)
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 4; v++ {
		if !slices.IsSorted(snap.In(v)) {
			t.Fatalf("in-list of %d is %v, want ascending", v, snap.In(v))
		}
	}
	if !slices.Equal(snap.In(0), []int32{1, 2, 3}) || !slices.Equal(snap.In(1), []int32{0, 2, 3}) {
		t.Fatalf("in(0)=%v in(1)=%v, want [1 2 3] and [0 2 3]", snap.In(0), snap.In(1))
	}
}
