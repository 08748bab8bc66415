package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// LoadOptions configures edge-list parsing.
type LoadOptions struct {
	// Undirected, when true, inserts each parsed edge in both directions
	// (the paper converts undirected graphs this way, §II-A).
	Undirected bool
	// Remap, when true, assigns dense ids 0..n-1 in first-appearance order
	// instead of requiring inputs to already use dense ids.
	Remap bool
}

// LoadEdgeList parses a whitespace-separated edge list ("u v" per line).
// Lines that are empty or start with '#' or '%' are skipped. Without
// opts.Remap, node ids must be non-negative and the node count is
// 1 + the maximum id seen; an id space over 2^20 that is more than 64
// times the edge count is refused as too sparse for dense ids.
func LoadEdgeList(r io.Reader, opts LoadOptions) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var edges [][2]int64
	maxID := int64(-1)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", line, text)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source id %q: %w", line, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target id %q: %w", line, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative node id", line)
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, [2]int64{u, v})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}

	var id func(int64) int32
	var n int
	if opts.Remap {
		m := make(map[int64]int32)
		id = func(raw int64) int32 {
			if got, ok := m[raw]; ok {
				return got
			}
			next := int32(len(m))
			m[raw] = next
			return next
		}
		for _, e := range edges {
			id(e[0])
			id(e[1])
		}
		n = len(m)
	} else {
		if maxID >= 1<<31 {
			return nil, fmt.Errorf("graph: node id %d exceeds int32 range; use Remap", maxID)
		}
		// Dense ids cost memory for every id up to the largest, so a few
		// bytes naming one huge id would otherwise demand gigabytes.
		if maxID >= 1<<20 && maxID >= 64*int64(len(edges)) {
			return nil, fmt.Errorf("graph: node id %d with only %d edges is too sparse for dense ids; use Remap", maxID, len(edges))
		}
		id = func(raw int64) int32 { return int32(raw) }
		n = int(maxID + 1)
	}

	b := NewBuilder(n)
	for _, e := range edges {
		if opts.Undirected {
			b.AddUndirected(id(e[0]), id(e[1]))
		} else {
			b.AddEdge(id(e[0]), id(e[1]))
		}
	}
	return b.Build()
}

// WriteEdgeList writes the graph as a parsable edge list with a size header
// comment. It is the inverse of LoadEdgeList (without Remap).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes=%d edges=%d\n", g.N(), g.M()); err != nil {
		return err
	}
	for u := int32(0); u < int32(g.N()); u++ {
		for _, v := range g.Out(u) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
