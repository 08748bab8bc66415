package resacc

import (
	"sync"
	"sync/atomic"
	"time"
)

// QueryEvent describes one completed (or failed) ResAcc query, delivered
// to registered hooks. Stats is zero when Err is non-nil.
type QueryEvent struct {
	// Graph is the graph the query ran against; observability layers
	// serving several graphs use it to attribute the event.
	Graph *Graph
	// Source is the query source node.
	Source int32
	// Start is when the query began.
	Start time.Time
	// Duration is the end-to-end wall time, including validation and
	// allocation outside the three phases, so it is ≥ Stats.Total().
	Duration time.Duration
	// Stats is the per-phase breakdown.
	Stats Stats
	// Err is the query error, if any.
	Err error
}

// QueryHook observes completed queries. Hooks run synchronously on the
// querying goroutine and must be fast and concurrency-safe.
type QueryHook func(QueryEvent)

var queryHooks struct {
	mu       sync.Mutex
	nextID   int
	byID     map[int]QueryHook
	order    []int
	snapshot atomic.Value // []QueryHook, rebuilt on every (un)register
}

// RegisterQueryHook installs h to run after every Query call and after
// every QueryTopK round (QueryMulti* fan out through Query, so each
// per-source query fires the hook once). A top-k query fires it once per
// solver round, not once per call: one event when the first round
// certifies, up to four when it does not. It returns a function
// that removes the hook again; callers that come and go (servers, tests)
// must call it to avoid observing queries they no longer care about.
func RegisterQueryHook(h QueryHook) (remove func()) {
	queryHooks.mu.Lock()
	defer queryHooks.mu.Unlock()
	if queryHooks.byID == nil {
		queryHooks.byID = make(map[int]QueryHook)
	}
	id := queryHooks.nextID
	queryHooks.nextID++
	queryHooks.byID[id] = h
	queryHooks.order = append(queryHooks.order, id)
	rebuildHookSnapshot()
	return func() {
		queryHooks.mu.Lock()
		defer queryHooks.mu.Unlock()
		if _, ok := queryHooks.byID[id]; !ok {
			return
		}
		delete(queryHooks.byID, id)
		for i, v := range queryHooks.order {
			if v == id {
				queryHooks.order = append(queryHooks.order[:i], queryHooks.order[i+1:]...)
				break
			}
		}
		rebuildHookSnapshot()
	}
}

// rebuildHookSnapshot publishes a fresh copy-on-write hook slice; callers
// hold queryHooks.mu.
func rebuildHookSnapshot() {
	hs := make([]QueryHook, 0, len(queryHooks.order))
	for _, id := range queryHooks.order {
		hs = append(hs, queryHooks.byID[id])
	}
	queryHooks.snapshot.Store(hs)
}

// notifyQueryHooks fans the event out to every registered hook. The
// lock-free snapshot keeps the no-hooks fast path at one atomic load.
func notifyQueryHooks(ev QueryEvent) {
	hs, _ := queryHooks.snapshot.Load().([]QueryHook)
	for _, h := range hs {
		h(ev)
	}
}
