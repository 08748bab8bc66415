package graph

import "resacc/internal/ws"

// Layers is a breadth-first layer decomposition rooted at a source node:
// Layers.Order lists nodes grouped by shortest distance from the source, and
// Layers.Start[i] is the index in Order of the first node at distance i.
// Start has len = depth+2 so that layer i is Order[Start[i]:Start[i+1]].
//
// This is the paper's i-hop machinery (Definitions 3-5): layer i is
// L_{i-hop}(s), and Order[:Start[h+1]] is the h-hop set V_{h-hop}(s).
type Layers struct {
	Source int32
	Order  []int32
	Start  []int
}

// Depth returns the largest distance with a non-empty layer.
func (l *Layers) Depth() int { return len(l.Start) - 2 }

// Layer returns the nodes at exactly distance i (L_{i-hop}). It returns nil
// when i exceeds the explored depth.
func (l *Layers) Layer(i int) []int32 {
	if i < 0 || i >= len(l.Start)-1 {
		return nil
	}
	return l.Order[l.Start[i]:l.Start[i+1]]
}

// Within returns all nodes at distance ≤ i (the i-hop set V_{i-hop}).
func (l *Layers) Within(i int) []int32 {
	if i < 0 {
		return nil
	}
	if i >= len(l.Start)-1 {
		i = len(l.Start) - 2
	}
	return l.Order[:l.Start[i+1]]
}

// BFSLayers explores the graph breadth-first from s following out-edges, up
// to and including distance maxDepth. Nodes farther than maxDepth are not
// visited. It panics if s is out of range.
func BFSLayers(g *Graph, s int32, maxDepth int) *Layers {
	if s < 0 || int(s) >= g.N() {
		panic("graph: BFSLayers source out of range")
	}
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	l := &Layers{Source: s}
	l.Order = append(l.Order, s)
	l.Start = append(l.Start, 0, 1)
	dist[s] = 0
	head := 0
	depth := 0
	for depth < maxDepth {
		tail := len(l.Order)
		if head == tail {
			break // frontier exhausted
		}
		for ; head < tail; head++ {
			u := l.Order[head]
			for _, v := range g.Out(u) {
				if dist[v] < 0 {
					dist[v] = int32(depth + 1)
					l.Order = append(l.Order, v)
				}
			}
		}
		if len(l.Order) == tail {
			break // no new layer
		}
		l.Start = append(l.Start, len(l.Order))
		depth++
	}
	return l
}

// BFSLayersScratch is BFSLayers built on caller-provided scratch, for the
// query hot path: seen is the visited set (cleared here in O(1) via its
// generation stamp), and order/start are appended to from length zero, so a
// workspace that recycles them across queries makes the whole BFS
// allocation-free in steady state. The returned Layers aliases order/start;
// callers reclaim the (possibly grown) buffers from its fields.
func BFSLayersScratch(g *Graph, s int32, maxDepth int, seen *ws.Marks, order []int32, start []int) Layers {
	if s < 0 || int(s) >= g.N() {
		panic("graph: BFSLayersScratch source out of range")
	}
	seen.Grow(g.N())
	seen.Clear()
	l := Layers{Source: s}
	l.Order = append(order[:0], s)
	l.Start = append(start[:0], 0, 1)
	seen.Add(s)
	head := 0
	depth := 0
	for depth < maxDepth {
		tail := len(l.Order)
		if head == tail {
			break // frontier exhausted
		}
		for ; head < tail; head++ {
			u := l.Order[head]
			for _, v := range g.Out(u) {
				if seen.Add(v) {
					l.Order = append(l.Order, v)
				}
			}
		}
		if len(l.Order) == tail {
			break // no new layer
		}
		l.Start = append(l.Start, len(l.Order))
		depth++
	}
	return l
}

// DistanceMap returns a per-node distance array (-1 for unexplored) for the
// layers, sized to the graph it was computed from.
func (l *Layers) DistanceMap(n int) []int32 {
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	for d := 0; d < len(l.Start)-1; d++ {
		for _, v := range l.Order[l.Start[d]:l.Start[d+1]] {
			dist[v] = int32(d)
		}
	}
	return dist
}

// Reachable returns the set of nodes reachable from s (including s itself)
// following out-edges, as a boolean mask.
func Reachable(g *Graph, s int32) []bool {
	seen := make([]bool, g.N())
	seen[s] = true
	queue := []int32{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Out(u) {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return seen
}

// LargestUndirectedComponent returns the node set of the largest weakly
// connected component (treating edges as undirected), used by the NISE
// community-detection pipeline's filtering phase.
func LargestUndirectedComponent(g *Graph) []int32 {
	comp := make([]int32, g.N())
	for i := range comp {
		comp[i] = -1
	}
	var best []int32
	var queue []int32
	next := int32(0)
	for v := int32(0); v < int32(g.N()); v++ {
		if comp[v] >= 0 {
			continue
		}
		members := []int32{v}
		comp[v] = next
		queue = append(queue[:0], v)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.Out(u) {
				if comp[w] < 0 {
					comp[w] = next
					members = append(members, w)
					queue = append(queue, w)
				}
			}
			for _, w := range g.In(u) {
				if comp[w] < 0 {
					comp[w] = next
					members = append(members, w)
					queue = append(queue, w)
				}
			}
		}
		if len(members) > len(best) {
			best = members
		}
		next++
	}
	return best
}
