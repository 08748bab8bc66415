package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func line(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.MustBuild()
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("got n=%d m=%d, want 4,4", g.N(), g.M())
	}
	if g.OutDegree(0) != 2 || g.InDegree(0) != 1 {
		t.Errorf("node 0 degrees: out=%d in=%d, want 2,1", g.OutDegree(0), g.InDegree(0))
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("HasEdge mismatch")
	}
	if got := g.Out(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Out(0)=%v, want [1 2]", got)
	}
	if got := g.In(0); len(got) != 1 || got[0] != 3 {
		t.Errorf("In(0)=%v, want [3]", got)
	}
}

func TestBuilderDedupAndSelfLoop(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 1) // self loop dropped
	b.AddEdge(1, 2)
	g := b.MustBuild()
	if g.M() != 2 {
		t.Fatalf("M=%d, want 2 (dedup + self-loop drop)", g.M())
	}
}

func TestBuilderKeepParallelEdges(t *testing.T) {
	b := NewBuilder(2).KeepParallelEdges()
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	if g.M() != 2 {
		t.Fatalf("M=%d, want 2 parallel edges", g.M())
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("want error for out-of-range edge")
	}
	b2 := NewBuilder(2)
	b2.AddEdge(-1, 0)
	if _, err := b2.Build(); err == nil {
		t.Fatal("want error for negative node id")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).MustBuild()
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph n=%d m=%d", g.N(), g.M())
	}
	g = NewBuilder(3).MustBuild()
	if g.M() != 0 || g.OutDegree(1) != 0 {
		t.Fatal("edgeless graph should have zero degrees")
	}
}

func TestInOutConsistency(t *testing.T) {
	// Property: v appears in In(w) exactly when w appears in Out(v).
	check := func(seed uint64) bool {
		g := randomGraph(40, 120, seed)
		for v := int32(0); v < int32(g.N()); v++ {
			for _, w := range g.Out(v) {
				found := false
				for _, u := range g.In(w) {
					if u == v {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		// Total in-degree equals total out-degree equals M.
		din, dout := 0, 0
		for v := int32(0); v < int32(g.N()); v++ {
			din += g.InDegree(v)
			dout += g.OutDegree(v)
		}
		return din == g.M() && dout == g.M()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// randomGraph builds a pseudo-random simple digraph without importing the
// gen package (avoiding an import cycle in tests).
func randomGraph(n, m int, seed uint64) *Graph {
	b := NewBuilder(n)
	x := seed | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < m; i++ {
		u := int32(next() % uint64(n))
		v := int32(next() % uint64(n))
		b.AddEdge(u, v)
	}
	return b.MustBuild()
}

func TestLoadEdgeList(t *testing.T) {
	in := "# comment\n% also comment\n0 1\n1 2\n\n2 0 extra-ignored\n"
	g, err := LoadEdgeList(strings.NewReader(in), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("n=%d m=%d, want 3,3", g.N(), g.M())
	}
}

func TestLoadEdgeListUndirected(t *testing.T) {
	g, err := LoadEdgeList(strings.NewReader("0 1\n"), LoadOptions{Undirected: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 || !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatalf("undirected load produced M=%d", g.M())
	}
}

// TestLoadEdgeListRejectsSparseIDs: one edge naming node 2·10^9 would
// need gigabytes as dense ids, so it is refused unless remapped; a sparse
// id space under 2^20 still loads.
func TestLoadEdgeListRejectsSparseIDs(t *testing.T) {
	if _, err := LoadEdgeList(strings.NewReader("2000000000 0\n"), LoadOptions{}); err == nil || !strings.Contains(err.Error(), "Remap") {
		t.Fatalf("sparse dense ids: err = %v, want a Remap hint", err)
	}
	g, err := LoadEdgeList(strings.NewReader("2000000000 0\n"), LoadOptions{Remap: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 {
		t.Fatalf("remapped n=%d, want 2", g.N())
	}
	if g, err = LoadEdgeList(strings.NewReader("999999 0\n"), LoadOptions{}); err != nil {
		t.Fatalf("id space under the floor: %v", err)
	}
	if g.N() != 1000000 {
		t.Fatalf("n=%d, want 10^6", g.N())
	}
}

func TestLoadEdgeListRemap(t *testing.T) {
	g, err := LoadEdgeList(strings.NewReader("100 200\n200 300\n"), LoadOptions{Remap: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("remap n=%d m=%d, want 3,2", g.N(), g.M())
	}
}

func TestLoadEdgeListErrors(t *testing.T) {
	cases := []string{"0\n", "a b\n", "0 b\n", "-1 2\n"}
	for _, in := range cases {
		if _, err := LoadEdgeList(strings.NewReader(in), LoadOptions{}); err == nil {
			t.Errorf("input %q: want parse error", in)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := randomGraph(30, 90, 7)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadEdgeList(&buf, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() > g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed size: (%d,%d) -> (%d,%d)", g.N(), g.M(), g2.N(), g2.M())
	}
	for v := int32(0); v < int32(g2.N()); v++ {
		got, want := g2.Out(v), g.Out(v)
		if len(got) != len(want) {
			t.Fatalf("node %d degree changed", v)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("node %d adjacency changed", v)
			}
		}
	}
}

func TestBFSLayersLine(t *testing.T) {
	g := line(5) // 0->1->2->3->4
	l := BFSLayers(g, 0, 10)
	if l.Depth() != 4 {
		t.Fatalf("depth=%d, want 4", l.Depth())
	}
	for i := 0; i < 5; i++ {
		layer := l.Layer(i)
		if len(layer) != 1 || layer[0] != int32(i) {
			t.Fatalf("layer %d = %v", i, layer)
		}
	}
	if got := l.Within(2); len(got) != 3 {
		t.Fatalf("Within(2) size=%d, want 3", len(got))
	}
	if l.Layer(9) != nil {
		t.Error("layer beyond depth should be nil")
	}
}

func TestBFSLayersMaxDepth(t *testing.T) {
	g := line(10)
	l := BFSLayers(g, 0, 3)
	if l.Depth() != 3 {
		t.Fatalf("depth=%d, want 3", l.Depth())
	}
	if len(l.Order) != 4 {
		t.Fatalf("order size=%d, want 4", len(l.Order))
	}
	dist := l.DistanceMap(g.N())
	if dist[3] != 3 || dist[4] != -1 {
		t.Fatalf("dist[3]=%d dist[4]=%d", dist[3], dist[4])
	}
}

func TestBFSLayersPartitionProperty(t *testing.T) {
	// Property: layers partition the reachable set, and every node in
	// layer i>0 has an in-neighbour in layer i-1 and none in layers <i-1.
	check := func(seed uint64) bool {
		g := randomGraph(50, 150, seed)
		l := BFSLayers(g, 0, g.N())
		dist := l.DistanceMap(g.N())
		seen := Reachable(g, 0)
		for v := int32(0); v < int32(g.N()); v++ {
			if seen[v] != (dist[v] >= 0) {
				return false
			}
		}
		for d := 1; d <= l.Depth(); d++ {
			for _, v := range l.Layer(d) {
				best := int32(1 << 30)
				for _, u := range g.In(v) {
					if dist[u] >= 0 && dist[u] < best {
						best = dist[u]
					}
				}
				if best != int32(d-1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteNode(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.MustBuild()
	g2, err := g.DeleteNode(1)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != 3 || g2.M() != 2 {
		t.Fatalf("after delete: n=%d m=%d, want 3,2", g2.N(), g2.M())
	}
	// Old node 2 is now 1, old 3 is now 2: edges 1->2, 2->0 survive.
	if !g2.HasEdge(1, 2) || !g2.HasEdge(2, 0) {
		t.Error("renumbered edges wrong")
	}
	if _, err := g.DeleteNode(99); err == nil {
		t.Error("want error for out-of-range delete")
	}
}

func TestMaxOutDegreeNodes(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(2, 0)
	b.AddEdge(2, 1)
	b.AddEdge(2, 3)
	b.AddEdge(4, 0)
	b.AddEdge(4, 1)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	top := g.MaxOutDegreeNodes(2)
	if len(top) != 2 || top[0] != 2 || top[1] != 4 {
		t.Fatalf("top=%v, want [2 4]", top)
	}
	if got := g.MaxOutDegreeNodes(100); len(got) != 5 {
		t.Fatalf("k>n should clamp, got %d", len(got))
	}
}

func TestLargestUndirectedComponent(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4) // smaller component
	g := b.MustBuild()
	comp := LargestUndirectedComponent(g)
	if len(comp) != 3 {
		t.Fatalf("component size=%d, want 3", len(comp))
	}
}

func TestReachable(t *testing.T) {
	g := line(4)
	r := Reachable(g, 1)
	want := []bool{false, true, true, true}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Reachable=%v", r)
		}
	}
}

func TestGraphBytesPositive(t *testing.T) {
	g := line(10)
	if g.Bytes() <= 0 {
		t.Fatal("Bytes should be positive")
	}
	if g.AvgDegree() <= 0 {
		t.Fatal("AvgDegree should be positive")
	}
}
