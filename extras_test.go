package resacc

import (
	"bytes"
	"math"
	"testing"
)

func TestQueryPair(t *testing.T) {
	g := GenerateErdosRenyi(150, 900, 5)
	p := DefaultParams(g)
	p.Seed = 7
	got, err := QueryPair(g, 0, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	powerSolver, _ := NewSolver(AlgPower)
	truth, err := powerSolver.SingleSource(g, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-truth[3]) > p.Epsilon*truth[3]+1e-3 {
		t.Fatalf("pair %v vs truth %v", got, truth[3])
	}
}

func TestBinaryGraphFacade(t *testing.T) {
	g := GenerateBarabasiAlbert(100, 3, 1)
	var buf bytes.Buffer
	if err := WriteBinaryGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinaryGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatal("binary round trip changed the graph")
	}
}

func TestDynamicGraphFacade(t *testing.T) {
	g := GenerateErdosRenyi(50, 200, 1)
	d := NewDynamicGraph(g)
	nv := d.AddNode()
	if err := d.AddEdge(nv, 0); err != nil {
		t.Fatal(err)
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.N() != g.N()+1 {
		t.Fatal("node not added")
	}
	// A query on the snapshot just works — that is the index-free pitch.
	p := DefaultParams(snap)
	if _, err := Query(snap, nv, p); err != nil {
		t.Fatal(err)
	}
}

func TestDetectCommunitiesFacade(t *testing.T) {
	g, planted := GenerateCommunities(400, 40, 10, 1, 3)
	res, err := DetectCommunities(g, CommunityConfig{
		NumCommunities: len(planted),
		Params:         DefaultParams(g),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Communities) != len(planted) {
		t.Fatalf("found %d communities", len(res.Communities))
	}
	if res.AC > 0.5 {
		t.Fatalf("conductance too high: %v", res.AC)
	}
}
