package graph

import (
	"fmt"
	"slices"
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
// O(n + m + |edits|·log|edits|) — no global edge re-sort. Each direction
// of the CSR is copied from the base in runs of untouched nodes, and only
// the nodes an edit touches are merged, so a small edit batch costs two
// sequential copies of the base arrays. Out-lists keep the base order with
// additions merged in; in-lists come out ascending, as Builder makes them.
// Snapshot participates in the single-writer contract: it must not overlap
// a concurrent mutation (it reads the edit maps a writer would be changing).
func (d *Dynamic) Snapshot() (*Graph, error) {
	d.beginMut()
	defer d.endMut()
	m := d.base.M() + len(d.added) - len(d.removed)
	g := &Graph{n: d.n}
	g.outAdj, g.outOff = d.mergeCSR(d.base.outAdj, d.base.outOff, false, m)
	if len(g.outAdj) != m {
		return nil, fmt.Errorf("graph: snapshot edge count %d != expected %d (edit bookkeeping bug)", len(g.outAdj), m)
	}
	g.inAdj, g.inOff = d.mergeCSR(d.base.inAdj, d.base.inOff, true, m)
	// A base whose in-lists are not ascending (the Transpose of a graph
	// with unsorted out-lists) is the only way to get an unsorted merge.
	for v := 0; v < d.n; v++ {
		in := g.inAdj[g.inOff[v]:g.inOff[v+1]]
		for i := 1; i < len(in); i++ {
			if in[i] < in[i-1] {
				slices.Sort(in)
				break
			}
		}
	}
	return g, nil
}

// mergeCSR builds one direction of the snapshot's CSR from the base's
// (baseAdj, baseOff): out-lists, or in-lists when in is set. The lists of
// nodes no edit touches are copied in runs; a touched node's list merges
// the surviving base entries with its additions, sorted.
func (d *Dynamic) mergeCSR(baseAdj []int32, baseOff []int, in bool, m int) ([]int32, []int) {
	add, gone := d.editsBy(d.added, in), d.editsBy(d.removed, in)
	touched := make([]int32, 0, len(add)+len(gone))
	for u := range add {
		touched = append(touched, u)
	}
	for u := range gone {
		if _, ok := add[u]; !ok {
			touched = append(touched, u)
		}
	}
	slices.Sort(touched)

	baseN := len(baseOff) - 1
	adj := make([]int32, 0, m)
	off := make([]int, d.n+1)
	// copyRun appends the base lists of nodes [lo, hi) unchanged; nodes
	// added in this session have none.
	copyRun := func(lo, hi int) {
		top := min(hi, baseN)
		if lo < top {
			shift := len(adj) - baseOff[lo]
			adj = append(adj, baseAdj[baseOff[lo]:baseOff[top]]...)
			for u := lo; u < top; u++ {
				off[u+1] = baseOff[u+1] + shift
			}
		}
		for u := max(lo, top); u < hi; u++ {
			off[u+1] = len(adj)
		}
	}
	next := 0
	for _, u := range touched {
		copyRun(next, int(u))
		var base []int32
		if int(u) < baseN {
			base = baseAdj[baseOff[u]:baseOff[u+1]]
		}
		adds, removed := add[u], gone[u]
		bi, ai := 0, 0
		for bi < len(base) || ai < len(adds) {
			var v int32
			takeBase := ai >= len(adds) || (bi < len(base) && base[bi] <= adds[ai])
			if takeBase {
				v = base[bi]
				bi++
				if _, found := slices.BinarySearch(removed, v); found {
					continue
				}
			} else {
				v = adds[ai]
				ai++
			}
			adj = append(adj, v)
		}
		off[u+1] = len(adj)
		next = int(u) + 1
	}
	copyRun(next, d.n)
	return adj, off
}

// editsBy groups an edit set by source node, each group sorted by target;
// with in set, by target node, each group sorted by source.
func (d *Dynamic) editsBy(set map[int64]struct{}, in bool) map[int32][]int32 {
	by := make(map[int32][]int32, len(set))
	for key := range set {
		u := int32(key / int64(d.n))
		v := int32(key % int64(d.n))
		if in {
			u, v = v, u
		}
		by[u] = append(by[u], v)
	}
	for _, vs := range by {
		slices.Sort(vs)
	}
	return by
}
