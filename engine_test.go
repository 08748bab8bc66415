package resacc

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testEngine(t *testing.T, opts EngineOptions) (*Engine, *Graph) {
	t.Helper()
	g := GenerateBarabasiAlbert(300, 3, 11)
	e := NewEngine(g, DefaultParams(g), opts)
	t.Cleanup(e.Close)
	return e, g
}

// workCounters installs an OnQuery observer in opts that tallies the walks
// and pushes of every solver round the engine runs, and returns a function
// that snapshots the tallies, so tests can assert whether ResAcc actually
// ran on that engine.
func workCounters(opts *EngineOptions) func() (walks, pushes int64) {
	var walks, pushes atomic.Int64
	opts.OnQuery = func(ev QueryEvent) {
		walks.Add(ev.Stats.Walks)
		pushes.Add(ev.Stats.HopPushes + ev.Stats.OMFWDPushes)
	}
	return func() (int64, int64) { return walks.Load(), pushes.Load() }
}

func TestEngineCacheHitSkipsComputation(t *testing.T) {
	opts := EngineOptions{}
	work := workCounters(&opts)
	e, _ := testEngine(t, opts)
	ctx := context.Background()

	res1, err := e.Query(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	walks, pushes := work()
	res2, err := e.Query(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	w2, p2 := work()
	if w2 != walks || p2 != pushes {
		t.Fatalf("cache hit did work: walks %d->%d, pushes %d->%d", walks, w2, pushes, p2)
	}
	if res2 != res1 {
		t.Fatal("cache hit returned a different result pointer")
	}
	st := e.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestEngineSingleflightCollapsesDuplicates(t *testing.T) {
	opts := EngineOptions{Workers: 2, QueueDepth: 64}
	work := workCounters(&opts)
	e, _ := testEngine(t, opts)
	ctx := context.Background()

	// Cost of one computation, measured on a separate cold source.
	w0, _ := work()
	if _, err := e.Query(ctx, 7); err != nil {
		t.Fatal(err)
	}
	w1, _ := work()
	oneQuery := w1 - w0
	if oneQuery == 0 {
		t.Fatal("expected a real query to simulate walks")
	}

	// N concurrent queries for one cold source must cost ~one computation
	// (singleflight) — not N of them.
	const callers = 8
	var wg sync.WaitGroup
	var firstErr atomic.Value
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Query(ctx, 9); err != nil {
				firstErr.Store(err)
			}
		}()
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		t.Fatal(err)
	}
	w2, _ := work()
	spent := w2 - w1
	// Timing may let a caller miss the flight and recompute once more, but
	// anything close to callers× means dedup is broken.
	if spent > 2*oneQuery {
		t.Fatalf("%d concurrent duplicates spent %d walks (single query costs %d)", callers, spent, oneQuery)
	}
	st := e.Stats()
	if st.Joins == 0 && st.Hits == 0 {
		t.Fatalf("no dedup joins and no hits across duplicate burst: %+v", st)
	}
}

func TestEngineShedsUnderSaturation(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 16)
	slow := func(_ context.Context, g *Graph, source int32, _ Params) (*Result, error) {
		started <- struct{}{}
		<-block
		return &Result{Source: source, Scores: make([]float64, g.N())}, nil
	}
	e, _ := testEngine(t, EngineOptions{Workers: 1, QueueDepth: 1, Compute: slow})
	ctx := context.Background()

	go e.Query(ctx, 1) // occupies the worker
	<-started
	go e.Query(ctx, 2) // occupies the single queue slot
	deadline := time.Now().Add(2 * time.Second)
	for e.Stats().QueueDepth != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	_, err := e.Query(ctx, 3)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err=%v, want ErrOverloaded", err)
	}
	if e.Stats().Shed != 1 {
		t.Fatalf("shed=%v, want 1", e.Stats().Shed)
	}
	close(block)
}

// TestEngineInvalidationAfterDynamicRebuild: an answer served after a live
// edit reflects the edit. The swap purges the cached pre-edit answer and
// bumps the epoch, and the source recomputes on the rebuilt snapshot.
func TestEngineInvalidationAfterDynamicRebuild(t *testing.T) {
	g := GenerateBarabasiAlbert(120, 3, 13)
	e := NewEngine(g, DefaultParams(g), EngineOptions{})
	defer e.Close()
	l, err := e.StartLive(LiveOptions{MaxStaleness: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx := context.Background()

	before, err := e.Query(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Rewire node 0: drop its current out-edges, point it at the far end
	// of the id space. Its RWR vector must change materially.
	var remove [][2]int32
	for _, w := range g.Out(0) {
		if w != 119 {
			remove = append(remove, [2]int32{0, w})
		}
	}
	if _, err := l.Apply([][2]int32{{0, 119}}, remove); err != nil {
		t.Fatal(err)
	}
	swapped, err := l.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if !swapped {
		t.Fatal("flush did not swap after edits")
	}
	if swapped, _ := l.Flush(); swapped {
		t.Fatal("flush swapped twice for the same edits")
	}
	if e.Stats().CacheEntries != 0 {
		t.Fatalf("cache not purged: %d entries", e.Stats().CacheEntries)
	}

	after, err := e.Query(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after.Scores[119]-before.Scores[119]) < 1e-6 {
		t.Fatalf("score to new neighbour unchanged: before=%g after=%g",
			before.Scores[119], after.Scores[119])
	}
	if e.Stats().Epoch != 1 {
		t.Fatalf("epoch=%d, want 1", e.Stats().Epoch)
	}
}

func TestEngineQueryTopK(t *testing.T) {
	opts := EngineOptions{}
	work := workCounters(&opts)
	e, g := testEngine(t, opts)
	ctx := context.Background()

	top, err := e.QueryTopK(ctx, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	ranked := top.Ranked
	if len(ranked) != 5 {
		t.Fatalf("got %d ranked, want 5", len(ranked))
	}
	if top.Degraded {
		t.Fatal("undeadlined query reported degraded")
	}
	if want := DefaultParams(g).Delta / top.Level; top.Delta != want {
		t.Fatalf("delta %v at level %v, want δ/level = %v", top.Delta, top.Level, want)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score > ranked[i-1].Score {
			t.Fatal("ranking not sorted")
		}
	}
	// k clamps to n.
	all, err := e.QueryTopK(ctx, 3, g.N()+100)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Ranked) != g.N() {
		t.Fatalf("got %d ranked, want n=%d", len(all.Ranked), g.N())
	}
	if _, err := e.QueryTopK(ctx, 3, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	// Cached: second identical call does no walk/push work and returns
	// the miss's certificate.
	w, p := work()
	hit, err := e.QueryTopK(ctx, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if w2, p2 := work(); w2 != w || p2 != p {
		t.Fatal("top-k cache hit did work")
	}
	if hit.Level != top.Level || hit.Delta != top.Delta {
		t.Fatalf("hit level/delta %v/%v, miss %v/%v", hit.Level, hit.Delta, top.Level, top.Delta)
	}
}

func TestEngineQueryPair(t *testing.T) {
	e, g := testEngine(t, EngineOptions{})
	ctx := context.Background()

	full, err := e.Query(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	est, err := e.QueryPair(ctx, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if est < 0 || est > 1 {
		t.Fatalf("pair estimate %g outside [0,1]", est)
	}
	if full.Scores[4] > 0.01 && est == 0 {
		t.Fatalf("pair=0 but full vector says %g", full.Scores[4])
	}
	if _, err := e.QueryPair(ctx, 2, int32(g.N())); err == nil {
		t.Fatal("out-of-range target accepted")
	}
}

func TestEngineQueryBatch(t *testing.T) {
	e, _ := testEngine(t, EngineOptions{Workers: 2, QueueDepth: 2})
	ctx := context.Background()

	// 12 items over a depth-2 queue: batch items must wait, not shed.
	sources := []int32{1, 2, 3, 1, 2, 3, 1, 2, 3, 4, 5, 6}
	results, errs := e.QueryBatch(ctx, sources)
	for i := range sources {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		if results[i] == nil || results[i].Source != sources[i] {
			t.Fatalf("item %d: wrong result %+v", i, results[i])
		}
	}
	// Repeats collapse: at most 6 distinct computations.
	st := e.Stats()
	if st.Misses > 0 && st.Hits+st.Joins == 0 {
		t.Fatalf("no sharing across repeated batch sources: %+v", st)
	}
	if st.Shed != 0 {
		t.Fatalf("batch items shed: %+v", st)
	}

	// Invalid source surfaces as a per-item error, not a batch failure.
	results, errs = e.QueryBatch(ctx, []int32{1, 100000})
	if errs[0] != nil || results[0] == nil {
		t.Fatalf("valid item failed: %v", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("invalid source accepted")
	}
}

func TestEngineBatchHonoursContext(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	slow := func(_ context.Context, g *Graph, source int32, _ Params) (*Result, error) {
		<-block
		return &Result{Source: source, Scores: make([]float64, g.N())}, nil
	}
	e, _ := testEngine(t, EngineOptions{Workers: 1, QueueDepth: 1, Compute: slow})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	_, errs := e.QueryBatch(ctx, []int32{1, 2, 3, 4, 5, 6, 7, 8})
	deadlineErrs := 0
	for _, err := range errs {
		if errors.Is(err, context.DeadlineExceeded) {
			deadlineErrs++
		}
	}
	if deadlineErrs == 0 {
		t.Fatalf("no deadline errors in saturated batch: %v", errs)
	}
}

func TestEngineParamsFingerprintSeparatesEngines(t *testing.T) {
	g := GenerateBarabasiAlbert(150, 3, 17)
	p := DefaultParams(g)
	e1 := NewEngine(g, p, EngineOptions{})
	defer e1.Close()
	q := p
	q.Epsilon = 0.1
	e2 := NewEngine(g, q, EngineOptions{})
	defer e2.Close()
	if e1.fp == e2.fp {
		t.Fatal("different params share a fingerprint")
	}
	if e1.Params().Epsilon == e2.Params().Epsilon {
		t.Fatal("params not retained")
	}
}

// TestEngineComputeStraddlingLiveSwapNotCached: a computation that pinned
// the pre-swap snapshot and finishes after a live swap must not be served
// afterwards. The swap purges and bumps the key epoch, and the put gate
// refuses the straddling result, so the next query recomputes against the
// new snapshot.
func TestEngineComputeStraddlingLiveSwapNotCached(t *testing.T) {
	g := GenerateBarabasiAlbert(120, 3, 13)
	started := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int32
	compute := func(_ context.Context, cg *Graph, source int32, _ Params) (*Result, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-release
		}
		return &Result{Source: source, Scores: make([]float64, cg.N())}, nil
	}
	e := NewEngine(g, DefaultParams(g), EngineOptions{Compute: compute})
	defer e.Close()
	l, err := e.StartLive(LiveOptions{MaxStaleness: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	done := make(chan error, 1)
	go func() {
		_, qerr := e.Query(context.Background(), 11)
		done <- qerr
	}()
	<-started // the computation has pinned the pre-swap snapshot

	if _, err := l.Apply([][2]int32{tailEdit(g)}, nil); err != nil {
		t.Fatal(err)
	}
	if swapped, err := l.Flush(); err != nil || !swapped {
		t.Fatalf("flush: swapped=%v err=%v", swapped, err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := e.Stats().CacheEntries; n != 0 {
		t.Fatalf("straddling result cached after the swap: %d entries", n)
	}
	if _, err := e.Query(context.Background(), 11); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("straddling result was served from cache: computes=%d, want 2", got)
	}
}
