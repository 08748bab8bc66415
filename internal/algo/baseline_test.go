package algo_test

import (
	"math"
	"sync"
	"testing"

	"resacc/internal/algo"
	"resacc/internal/algo/fora"
	"resacc/internal/algo/topppr"
	"resacc/internal/graph"
	"resacc/internal/graph/gen"
)

// TestBaselinesConcurrentBitIdentical: FORA, FORA+ and TopPPR borrow
// workspaces from package-level pools, so concurrent queries over graphs
// of two sizes must answer exactly what the same queries answer one at a
// time.
func TestBaselinesConcurrentBitIdentical(t *testing.T) {
	type query struct {
		g   *graph.Graph
		s   algo.SingleSource
		src int32
	}
	var qs []query
	for _, g := range []*graph.Graph{gen.ErdosRenyi(300, 1800, 1), gen.BarabasiAlbert(1200, 3, 2)} {
		ix, err := fora.BuildIndex(g, algo.DefaultParams(g), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []algo.SingleSource{fora.Solver{}, fora.PlusSolver{Index: ix}, topppr.Solver{K: 20}} {
			for src := int32(0); src < 3; src++ {
				qs = append(qs, query{g, s, src})
			}
		}
	}
	want := make([][]float64, len(qs))
	for i, q := range qs {
		var err error
		if want[i], err = q.s.SingleSource(q.g, q.src, algo.DefaultParams(q.g)); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := len(qs) - 1 - wk; i >= 0; i -= workers {
				q := qs[i]
				got, err := q.s.SingleSource(q.g, q.src, algo.DefaultParams(q.g))
				if err != nil {
					t.Error(err)
					return
				}
				for v := range got {
					if math.Float64bits(got[v]) != math.Float64bits(want[i][v]) {
						t.Errorf("%s n=%d src=%d: score[%d] %v concurrently, %v alone", q.s.Name(), q.g.N(), q.src, v, got[v], want[i][v])
						return
					}
				}
			}
		}(wk)
	}
	wg.Wait()
}
