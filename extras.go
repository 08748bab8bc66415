package resacc

import (
	"io"

	"resacc/internal/algo/bippr"
	"resacc/internal/community"
	"resacc/internal/core"
	"resacc/internal/graph"
)

// QueryPair estimates the single value π(s,t) with the bidirectional BiPPR
// estimator, which is far cheaper than a full single-source query when
// only one pair matters.
func QueryPair(g *Graph, s, t int32, p Params) (float64, error) {
	return bippr.Pair(g, s, t, p)
}

// ReadBinaryGraph loads a CSR snapshot written by WriteBinaryGraph;
// loading is much faster than re-parsing an edge list.
func ReadBinaryGraph(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// WriteBinaryGraph writes g as a compact binary CSR snapshot.
func WriteBinaryGraph(w io.Writer, g *Graph) error { return graph.WriteBinary(w, g) }

// DynamicGraph accumulates edge insertions/deletions over a base graph and
// materialises updated snapshots without re-sorting the edge list — the
// workflow the paper's dynamic-graph argument assumes (index-free queries
// just use the newest snapshot; there is no index to rebuild).
type DynamicGraph = graph.Dynamic

// NewDynamicGraph starts an edit session over g.
func NewDynamicGraph(g *Graph) *DynamicGraph { return graph.NewDynamic(g) }

// CommunityConfig configures DetectCommunities; see the fields of
// internal/community.Config. Solver defaults to ResAcc when nil and the
// ordering is SSRWR-based.
type CommunityConfig = community.Config

// CommunityResult is the outcome of DetectCommunities: the communities,
// their seeds, and the paper's ANC / AC quality metrics.
type CommunityResult = community.Result

// DetectCommunities runs NISE-style overlapping community detection
// (paper §VII-H) with SSRWR-driven seed expansion. When cfg.Solver is nil,
// ResAcc is used.
func DetectCommunities(g *Graph, cfg CommunityConfig) (*CommunityResult, error) {
	if cfg.Solver == nil && cfg.Ordering == community.BySSRWR {
		cfg.Solver = core.Solver{}
	}
	return community.Detect(g, cfg)
}
