package resacc

import (
	"context"
	"math"
	"sync"
	"testing"
)

// TestEngineConcurrentQueriesSharedPool hammers one engine from many
// goroutines so `go test -race` can observe the workspace pool under real
// contention: concurrent queries borrowing/returning workspaces, cache hits
// interleaved with computations, and pool invalidations racing both.
func TestEngineConcurrentQueriesSharedPool(t *testing.T) {
	e, g := testEngine(t, EngineOptions{Workers: 4})
	ctx := context.Background()

	// Reference answers computed before the stampede.
	refs := make(map[int32][]float64)
	for src := int32(0); src < 8; src++ {
		res, err := e.Query(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		refs[src] = res.Scores
	}
	e.Invalidate() // force the stampede to recompute everything

	const goroutines = 8
	const perG = 30
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		gi := gi
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				src := int32((gi*perG + i) % 8)
				res, err := e.Query(ctx, src)
				if err != nil {
					errs <- err
					return
				}
				want := refs[src]
				for v := range want {
					if math.Float64bits(res.Scores[v]) != math.Float64bits(want[v]) {
						t.Errorf("src=%d scores[%d]=%v, want %v", src, v, res.Scores[v], want[v])
						return
					}
				}
			}
		}()
	}
	// Race pool invalidation against the queries (recomputations after an
	// epoch bump must still produce the same deterministic answers).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			e.Invalidate()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	_ = g
}
