package ws

import (
	"sync"
	"sync/atomic"
)

// Pool recycles Workspaces across queries. It wraps sync.Pool with two
// policies the serving layer needs:
//
//   - Capacity awareness: a workspace whose capacity dwarfs the requested
//     size (beyond shrinkFactor×) is discarded instead of reused, so one
//     query against a huge graph does not pin huge scratch vectors for a
//     workload that moved to small graphs.
//   - Epoch keying: Invalidate bumps the pool epoch and Get drops
//     workspaces issued under older epochs. Engine.UpdateGraph and
//     Engine.Invalidate call it alongside their result-cache purge, so a
//     graph replacement retires scratch sized for the old snapshot
//     together with the stale results.
//
// A nil *Pool is valid and falls back to fresh allocation per Get — the
// unpooled path, kept for golden comparisons against the pooled one.
type Pool struct {
	pool  sync.Pool
	epoch atomic.Uint64
	// fitN is the node count the pooled workspaces were last validated
	// for; see Refit. 0 means "not yet recorded".
	fitN atomic.Int64
}

// shrinkFactor is the capacity slack tolerated on reuse: a pooled workspace
// serves a request for n nodes only while cap ≤ shrinkFactor·n (or the
// capacity is trivially small).
const (
	shrinkFactor = 8
	shrinkFloor  = 1 << 16
)

// NewPool returns an empty workspace pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a workspace reset and sized for an n-node graph: pooled if a
// suitably-sized one from the current epoch is available, fresh otherwise.
// Callers must return it with Put (typically deferred).
func (p *Pool) Get(n int) *Workspace {
	if p == nil {
		return New(n)
	}
	epoch := p.epoch.Load()
	for {
		v := p.pool.Get()
		if v == nil {
			w := New(n)
			w.epoch = epoch
			return w
		}
		w := v.(*Workspace)
		if w.epoch != epoch {
			continue // stale epoch: drop and keep looking
		}
		if c := len(w.Reserve); c > shrinkFloor && c > shrinkFactor*n {
			continue // oversized for this workload: let the GC have it
		}
		w.Reset(n)
		return w
	}
}

// Put returns w to the pool. Reset is deferred to the next Get so the
// release path stays O(1); the workspace keeps its dirty state until then.
func (p *Pool) Put(w *Workspace) {
	if p == nil || w == nil {
		return
	}
	p.pool.Put(w)
}

// Invalidate retires every pooled workspace: subsequent Gets allocate
// fresh. It is O(1); stale workspaces are dropped lazily as Get encounters
// them (sync.Pool empties itself across GCs regardless).
func (p *Pool) Invalidate() {
	if p == nil {
		return
	}
	p.epoch.Add(1)
}

// Refit declares the node count subsequent queries will run against and
// reports whether the pool was invalidated. Live snapshot swaps call it
// instead of Invalidate: an edge-only swap keeps the node set, so scratch
// sized for the retiring snapshot stays exactly right for the new one and
// the pool survives the swap; only a geometry change (different n) retires
// the pooled workspaces.
func (p *Pool) Refit(n int) bool {
	if p == nil {
		return false
	}
	old := p.fitN.Swap(int64(n))
	if old != 0 && old != int64(n) {
		p.epoch.Add(1)
		return true
	}
	return false
}

// Epoch returns the current pool epoch (diagnostics and tests).
func (p *Pool) Epoch() uint64 {
	if p == nil {
		return 0
	}
	return p.epoch.Load()
}
