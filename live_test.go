package resacc

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// liveTestEngine builds a deterministic engine (single worker, single walk
// worker) so results are bit-identical across engines on the same graph.
func liveTestEngine(g *Graph) *Engine {
	return NewEngine(g, DefaultParams(g), EngineOptions{Workers: 1})
}

// tailEdit returns an edge between two late, low-degree nodes of a
// Barabási–Albert graph, for tests that insert a single edge.
func tailEdit(g *Graph) [2]int32 {
	n := int32(g.N())
	return [2]int32{n - 2, n - 7}
}

func TestStartLiveSingleAttachment(t *testing.T) {
	g := GenerateBarabasiAlbert(200, 3, 5)
	e := liveTestEngine(g)
	defer e.Close()
	l, err := e.StartLive(LiveOptions{MaxStaleness: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.StartLive(LiveOptions{}); err == nil {
		t.Fatal("second live attachment accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Detached: a new write path may attach.
	l2, err := e.StartLive(LiveOptions{MaxStaleness: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
}

// TestLiveSwapPurgesCache: every live swap bumps the cache epoch by one
// and empties the cache, with or without degree relabeling, and the edited
// source recomputes against the new snapshot.
func TestLiveSwapPurgesCache(t *testing.T) {
	for _, relabel := range []bool{false, true} {
		g := GenerateBarabasiAlbert(1500, 3, 9)
		e := NewEngine(g, DefaultParams(g), EngineOptions{Workers: 1, Relabel: relabel})
		l, err := e.StartLive(LiveOptions{MaxStaleness: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		edit := tailEdit(g)
		for _, s := range []int32{0, 50, edit[0]} {
			if _, err := e.Query(ctx, s); err != nil {
				t.Fatal(err)
			}
		}
		before, err := e.Query(ctx, edit[0])
		if err != nil {
			t.Fatal(err)
		}
		es := e.Stats()
		if es.CacheEntries != 3 {
			t.Fatalf("relabel=%v: warm cache entries=%d, want 3", relabel, es.CacheEntries)
		}
		epoch0 := es.Epoch

		if _, err := l.Apply([][2]int32{edit}, nil); err != nil {
			t.Fatal(err)
		}
		if swapped, err := l.Flush(); err != nil || !swapped {
			t.Fatalf("relabel=%v: flush swapped=%v err=%v", relabel, swapped, err)
		}
		es = e.Stats()
		if es.CacheEntries != 0 {
			t.Fatalf("relabel=%v: swap left %d cache entries", relabel, es.CacheEntries)
		}
		if es.Epoch != epoch0+1 {
			t.Fatalf("relabel=%v: epoch %d -> %d, want +1", relabel, epoch0, es.Epoch)
		}
		if ls := l.Stats(); ls.Swaps != 1 || ls.Invalidated != 3 {
			t.Fatalf("relabel=%v: live stats %+v, want 1 swap invalidating 3", relabel, ls)
		}
		after, err := e.Query(ctx, edit[0])
		if err != nil {
			t.Fatal(err)
		}
		if after.Scores[edit[1]] <= before.Scores[edit[1]] {
			t.Fatalf("relabel=%v: edited source did not move: before=%g after=%g",
				relabel, before.Scores[edit[1]], after.Scores[edit[1]])
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		e.Close()
	}
}

// TestLiveSwapHitRateMatchesPurgeBaseline: a live flush has the same cache
// effect as UpdateGraph with the same edit. Both engines miss every source
// after the swap and then serve identical scores from the edited graph.
func TestLiveSwapHitRateMatchesPurgeBaseline(t *testing.T) {
	g := GenerateBarabasiAlbert(1500, 3, 11)
	edit := tailEdit(g)
	sources := []int32{0, 25, 50, 75, 100, edit[0]}

	replay := func(e *Engine, mutate func()) (EngineStats, [][]float64) {
		ctx := context.Background()
		for _, s := range sources {
			if _, err := e.Query(ctx, s); err != nil {
				t.Fatal(err)
			}
		}
		mutate()
		var scores [][]float64
		for _, s := range sources {
			r, err := e.Query(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			scores = append(scores, r.Scores)
		}
		return e.Stats(), scores
	}

	live := liveTestEngine(g)
	defer live.Close()
	l, err := live.StartLive(LiveOptions{MaxStaleness: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	liveStats, liveScores := replay(live, func() {
		if _, err := l.Apply([][2]int32{edit}, nil); err != nil {
			t.Fatal(err)
		}
		if swapped, err := l.Flush(); err != nil || !swapped {
			t.Fatalf("flush swapped=%v err=%v", swapped, err)
		}
	})

	purge := liveTestEngine(g)
	defer purge.Close()
	purgeStats, purgeScores := replay(purge, func() {
		d := NewDynamicGraph(purge.Graph())
		if err := d.AddEdge(edit[0], edit[1]); err != nil {
			t.Fatal(err)
		}
		snap, err := d.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		purge.UpdateGraph(snap)
	})

	n := float64(len(sources))
	for name, st := range map[string]EngineStats{"live": liveStats, "purge": purgeStats} {
		if st.Hits != 0 || st.Misses != 2*n {
			t.Fatalf("%s: hits=%v misses=%v, want 0 and %v", name, st.Hits, st.Misses, 2*n)
		}
		if st.Epoch != 1 {
			t.Fatalf("%s: epoch=%d after one swap, want 1", name, st.Epoch)
		}
	}
	for i, s := range sources {
		for v := range liveScores[i] {
			if liveScores[i][v] != purgeScores[i][v] {
				t.Fatalf("source %d node %d: live %g != purge %g", s, v, liveScores[i][v], purgeScores[i][v])
			}
		}
	}
}

func TestLiveSnapshotBinaryRoundTrip(t *testing.T) {
	g := GenerateBarabasiAlbert(400, 3, 21)
	e := liveTestEngine(g)
	defer e.Close()
	l, err := e.StartLive(LiveOptions{MaxStaleness: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Apply([][2]int32{tailEdit(g)}, [][2]int32{{0, g.Out(0)[0]}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	swapped := e.Graph()
	var buf bytes.Buffer
	if err := WriteBinaryGraph(&buf, swapped); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadBinaryGraph(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := WriteBinaryGraph(&buf2, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("swapped snapshot does not round-trip through the binary codec")
	}
	if loaded.N() != swapped.N() || loaded.M() != swapped.M() {
		t.Fatalf("round-trip changed the graph: n %d/%d m %d/%d",
			loaded.N(), swapped.N(), loaded.M(), swapped.M())
	}
}

// TestLiveConcurrentQueriesAndMutations is the race hammer: writers stream
// random edits through the live path while readers query under -race, and
// afterwards the served graph must be byte-identical to an offline rebuild
// of the exact swap deltas, with queries bit-identical to a fresh engine
// on that rebuilt graph.
func TestLiveConcurrentQueriesAndMutations(t *testing.T) {
	g := GenerateBarabasiAlbert(600, 3, 31)
	n := int32(g.N())
	e := NewEngine(g, DefaultParams(g), EngineOptions{Workers: 2})
	defer e.Close()

	type delta struct{ add, rem [][2]int32 }
	var deltaMu sync.Mutex
	var deltas []delta
	l, err := e.StartLive(LiveOptions{
		MaxStaleness: 5 * time.Millisecond,
		MaxPending:   64,
		OnSwap: func(_ *Graph, added, removed [][2]int32) {
			deltaMu.Lock()
			deltas = append(deltas, delta{add: added, rem: removed})
			deltaMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				var add, rem [][2]int32
				for j := 0; j < 3; j++ {
					u, v := rng.Int31n(n), rng.Int31n(n)
					if u == v {
						continue
					}
					if rng.Intn(2) == 0 {
						add = append(add, [2]int32{u, v})
					} else {
						rem = append(rem, [2]int32{u, v})
					}
				}
				if _, err := l.Apply(add, rem); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
			}
		}(int64(w) + 1)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			ctx := context.Background()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := e.Query(ctx, rng.Int31n(n))
				if err != nil {
					if errors.Is(err, ErrOverloaded) {
						continue // admission control doing its job
					}
					t.Errorf("query: %v", err)
					return
				}
				if len(res.Scores) != int(n) {
					t.Errorf("inconsistent snapshot: %d scores for n=%d", len(res.Scores), n)
					return
				}
			}
		}(int64(100 + r))
	}

	// Writers finish, readers stop, and Close performs the final flush so
	// the tail of the edit stream is published too.
	writers.Wait()
	close(stop)
	readers.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Offline rebuild: replay each swap's exact delta on its predecessor.
	cur := g
	deltaMu.Lock()
	replay := append([]delta(nil), deltas...)
	deltaMu.Unlock()
	for i, dl := range replay {
		d := NewDynamicGraph(cur)
		for _, edge := range dl.add {
			if err := d.AddEdge(edge[0], edge[1]); err != nil {
				t.Fatalf("replay %d add: %v", i, err)
			}
		}
		for _, edge := range dl.rem {
			if err := d.RemoveEdge(edge[0], edge[1]); err != nil {
				t.Fatalf("replay %d remove: %v", i, err)
			}
		}
		var err error
		cur, err = d.Snapshot()
		if err != nil {
			t.Fatalf("replay %d snapshot: %v", i, err)
		}
	}

	var servedBuf, rebuiltBuf bytes.Buffer
	if err := WriteBinaryGraph(&servedBuf, e.Graph()); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryGraph(&rebuiltBuf, cur); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(servedBuf.Bytes(), rebuiltBuf.Bytes()) {
		t.Fatalf("served graph diverged from offline rebuild of %d swap deltas (m=%d vs %d)",
			len(replay), e.Graph().M(), cur.M())
	}

	// Fresh computations on the served engine must be bit-identical to a
	// fresh engine on the rebuilt graph. Purge first: entries cached
	// before the last swaps are allowed to be tolerance-stale by design.
	// Same params as e: an engine keeps its boot-time parameters across
	// live swaps, and default params depend on the (changed) edge count.
	e.Invalidate()
	fresh := NewEngine(cur, DefaultParams(g), EngineOptions{Workers: 2})
	defer fresh.Close()
	ctx := context.Background()
	for _, s := range []int32{0, 7, n / 2, n - 1} {
		got, err := e.Query(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Query(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want.Scores {
			if got.Scores[v] != want.Scores[v] {
				t.Fatalf("source %d node %d: served %v != offline %v",
					s, v, got.Scores[v], want.Scores[v])
			}
		}
	}
}
