package graph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Dynamic accumulates edge insertions and deletions on top of an immutable
// base Graph and materialises updated snapshots on demand. This backs the
// paper's dynamic-graph argument (§I, Appendix I): index-free queries only
// need the current snapshot, so an update costs one O(n+m+|edits|) merge
// instead of an index rebuild.
//
// Single-writer contract: Dynamic is NOT safe for concurrent use. At most
// one goroutine may mutate (AddEdge, RemoveEdge, AddNode, IsolateNode) or
// materialise (Snapshot) at a time, and reads (HasEdge, Edits, ...) must
// not overlap a mutation. Serving write paths must serialize edits behind
// a lock — internal/live.Manager is the supported way to drive a Dynamic
// from concurrent HTTP writers. Overlapping mutations are detected
// best-effort and panic with a clear message rather than corrupting the
// edit maps silently. Snapshots are immutable Graphs and safe to query
// concurrently like any other.
type Dynamic struct {
	base    *Graph
	n       int
	added   map[int64]struct{}
	removed map[int64]struct{}
	version uint64

	// mutating flags an in-progress mutation so a second concurrent writer
	// trips the single-writer guard (beginMut) instead of racing on the
	// maps. It is best-effort detection, not a lock.
	mutating atomic.Bool
}

// beginMut enters the single-writer critical section; a second concurrent
// writer panics here with a actionable message instead of corrupting state.
func (d *Dynamic) beginMut() {
	if !d.mutating.CompareAndSwap(false, true) {
		panic("graph: concurrent Dynamic mutation — Dynamic is single-writer; " +
			"serialize edits (e.g. behind live.Manager or your own mutex)")
	}
}

func (d *Dynamic) endMut() { d.mutating.Store(false) }

// NewDynamic starts an edit session over g.
func NewDynamic(g *Graph) *Dynamic {
	return &Dynamic{
		base:    g,
		n:       g.N(),
		added:   make(map[int64]struct{}),
		removed: make(map[int64]struct{}),
	}
}

// N returns the current node count (base nodes plus added ones).
func (d *Dynamic) N() int { return d.n }

// PendingEdits returns the number of recorded insertions and deletions.
func (d *Dynamic) PendingEdits() (adds, removes int) {
	return len(d.added), len(d.removed)
}

// Version is a monotonic edit counter: it increments every time the edited
// state actually changes (no-op edits do not count). Serving layers cache
// query results against a graph epoch and compare versions to decide when
// a cached snapshot is stale — the index-free analogue of an index rebuild
// trigger.
func (d *Dynamic) Version() uint64 { return d.version }

func (d *Dynamic) encode(u, v int32) int64 {
	return int64(u)*int64(d.n) + int64(v)
}

func (d *Dynamic) check(u, v int32) error {
	if u < 0 || int(u) >= d.n || v < 0 || int(v) >= d.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, d.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop (%d,%d) not allowed", u, v)
	}
	return nil
}

// inBase reports whether (u,v) exists in the base graph. Only nodes that
// existed at session start can have base edges.
func (d *Dynamic) inBase(u, v int32) bool {
	return int(u) < d.base.N() && int(v) < d.base.N() && d.base.HasEdge(u, v)
}

// HasEdge reports whether the edge exists in the current edited state.
func (d *Dynamic) HasEdge(u, v int32) bool {
	if d.check(u, v) != nil {
		return false
	}
	key := d.encode(u, v)
	if _, ok := d.added[key]; ok {
		return true
	}
	if _, ok := d.removed[key]; ok {
		return false
	}
	return d.inBase(u, v)
}

// AddEdge records the insertion of (u,v). Inserting an existing edge is a
// no-op.
func (d *Dynamic) AddEdge(u, v int32) error {
	d.beginMut()
	defer d.endMut()
	return d.addEdge(u, v)
}

func (d *Dynamic) addEdge(u, v int32) error {
	if err := d.check(u, v); err != nil {
		return err
	}
	key := d.encode(u, v)
	if _, ok := d.removed[key]; ok {
		delete(d.removed, key)
		d.version++
		return nil
	}
	if d.inBase(u, v) {
		return nil
	}
	if _, ok := d.added[key]; !ok {
		d.added[key] = struct{}{}
		d.version++
	}
	return nil
}

// RemoveEdge records the deletion of (u,v). Removing a non-existent edge
// is a no-op.
func (d *Dynamic) RemoveEdge(u, v int32) error {
	d.beginMut()
	defer d.endMut()
	return d.removeEdge(u, v)
}

func (d *Dynamic) removeEdge(u, v int32) error {
	if err := d.check(u, v); err != nil {
		return err
	}
	key := d.encode(u, v)
	if _, ok := d.added[key]; ok {
		delete(d.added, key)
		d.version++
		return nil
	}
	if _, gone := d.removed[key]; !gone && d.inBase(u, v) {
		d.removed[key] = struct{}{}
		d.version++
	}
	return nil
}

// AddNode grows the node set by one and returns the new id.
//
// Node ids are stable across AddNode, but edge keys are encoded against
// the session's node count, so AddNode re-encodes pending edits; add nodes
// before bulk edge edits when possible.
func (d *Dynamic) AddNode() int32 {
	d.beginMut()
	defer d.endMut()
	old := d.n
	d.n++
	d.version++
	if len(d.added)+len(d.removed) > 0 {
		reEncode := func(m map[int64]struct{}) map[int64]struct{} {
			out := make(map[int64]struct{}, len(m))
			for key := range m {
				u := int32(key / int64(old))
				v := int32(key % int64(old))
				out[int64(u)*int64(d.n)+int64(v)] = struct{}{}
			}
			return out
		}
		d.added = reEncode(d.added)
		d.removed = reEncode(d.removed)
	}
	return int32(old)
}

// IsolateNode removes every edge incident to v (the node keeps its id with
// degree zero). This is the dynamic-session analogue of the paper's node
// deletions (Appendix I) without the renumbering Graph.DeleteNode does.
func (d *Dynamic) IsolateNode(v int32) error {
	d.beginMut()
	defer d.endMut()
	if v < 0 || int(v) >= d.n {
		return fmt.Errorf("graph: node %d out of range [0,%d)", v, d.n)
	}
	if int(v) < d.base.N() {
		for _, w := range d.base.Out(v) {
			if err := d.removeEdge(v, w); err != nil {
				return err
			}
		}
		for _, w := range d.base.In(v) {
			if err := d.removeEdge(w, v); err != nil {
				return err
			}
		}
	}
	for key := range d.added {
		u := int32(key / int64(d.n))
		w := int32(key % int64(d.n))
		if u == v || w == v {
			delete(d.added, key)
			d.version++
		}
	}
	return nil
}

// Edits returns the pending edit set relative to the base graph: the edges
// this session would insert and delete, in no particular order. The live
// write path hands it to swap observers so they can replay exactly the
// delta a snapshot applied.
func (d *Dynamic) Edits() (added, removed [][2]int32) {
	decode := func(m map[int64]struct{}) [][2]int32 {
		if len(m) == 0 {
			return nil
		}
		out := make([][2]int32, 0, len(m))
		for key := range m {
			out = append(out, [2]int32{int32(key / int64(d.n)), int32(key % int64(d.n))})
		}
		return out
	}
	return decode(d.added), decode(d.removed)
}

// Snapshot materialises the edited graph as an immutable Graph in
// O(n + m + |edits|·log|edits|) — no global edge re-sort. Snapshot
// participates in the single-writer contract: it must not overlap a
// concurrent mutation (it reads the edit maps a writer would be changing).
func (d *Dynamic) Snapshot() (*Graph, error) {
	d.beginMut()
	defer d.endMut()
	// Group added edges by source, sorted by target.
	addedBy := make(map[int32][]int32, len(d.added))
	for key := range d.added {
		u := int32(key / int64(d.n))
		v := int32(key % int64(d.n))
		addedBy[u] = append(addedBy[u], v)
	}
	for _, vs := range addedBy {
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	}

	g := &Graph{n: d.n}
	m := d.base.M() + len(d.added) - len(d.removed)
	g.outAdj = make([]int32, 0, m)
	g.outOff = make([]int, d.n+1)
	for u := int32(0); int(u) < d.n; u++ {
		var baseOut []int32
		if int(u) < d.base.N() {
			baseOut = d.base.Out(u)
		}
		add := addedBy[u]
		// Sorted merge of the surviving base edges with the additions.
		bi, ai := 0, 0
		for bi < len(baseOut) || ai < len(add) {
			var v int32
			takeBase := ai >= len(add) || (bi < len(baseOut) && baseOut[bi] <= add[ai])
			if takeBase {
				v = baseOut[bi]
				bi++
				if _, gone := d.removed[d.encode(u, v)]; gone {
					continue
				}
			} else {
				v = add[ai]
				ai++
			}
			g.outAdj = append(g.outAdj, v)
		}
		g.outOff[u+1] = len(g.outAdj)
	}
	if len(g.outAdj) != m {
		return nil, fmt.Errorf("graph: snapshot edge count %d != expected %d (edit bookkeeping bug)", len(g.outAdj), m)
	}
	// In-CSR by counting sort.
	g.inAdj = make([]int32, len(g.outAdj))
	g.inOff = make([]int, d.n+1)
	for _, v := range g.outAdj {
		g.inOff[v+1]++
	}
	for i := 0; i < d.n; i++ {
		g.inOff[i+1] += g.inOff[i]
	}
	cursor := make([]int, d.n)
	copy(cursor, g.inOff[:d.n])
	for u := int32(0); int(u) < d.n; u++ {
		for _, v := range g.outAdj[g.outOff[u]:g.outOff[u+1]] {
			g.inAdj[cursor[v]] = u
			cursor[v]++
		}
	}
	return g, nil
}
