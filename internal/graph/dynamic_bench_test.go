package graph_test

import (
	"testing"

	"resacc/internal/dataset"
	"resacc/internal/graph"
	"resacc/internal/rng"
)

// BenchmarkDynamicSnapshot measures one live-swap session on webstan-s at
// scale 1 (16k nodes, 131k edges): insert 4 random absent edges, delete
// the previous batch's 4, and materialise the snapshot the next session
// starts from. That is the edit batch of the rwrd benchmark's writes.
func BenchmarkDynamicSnapshot(b *testing.B) {
	g := dataset.MustBuild("webstan-s", 1)
	r := rng.New(1)
	var last [][2]int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := graph.NewDynamic(g)
		add := make([][2]int32, 0, 4)
		for len(add) < 4 {
			u, v := int32(r.Intn(g.N())), int32(r.Intn(g.N()))
			if u == v || d.HasEdge(u, v) {
				continue
			}
			if err := d.AddEdge(u, v); err != nil {
				b.Fatal(err)
			}
			add = append(add, [2]int32{u, v})
		}
		for _, e := range last {
			if err := d.RemoveEdge(e[0], e[1]); err != nil {
				b.Fatal(err)
			}
		}
		snap, err := d.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		g, last = snap, add
	}
}
