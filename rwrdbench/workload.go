package main

import (
	"fmt"
	"math"
	"sort"

	"resacc/internal/graph"
	"resacc/internal/rng"
)

// Workload shape. Every count is fixed here or derived from --seconds, never
// from how fast the server answers, so two runs of one seed do the same work.
const (
	topK = 10

	// universe is the hot-read and zipf-live source set. At Zipf 1.2 and one
	// full purge per segmentReads reads, about 31% of zipf-live reads miss:
	// the read p50 stays a cache hit and the p90 a miss.
	universe = 1000
	zipfS    = 1.2

	segmentReads = 400 // zipf-live reads between two edit batches
	batchAdds    = 4   // random edge inserts per edit batch

	// Reads per second of --seconds, set so that on a 2-CPU host each
	// measured phase takes about that long.
	coldPerSec  = 90
	hotPerSec   = 6000
	livePerSec  = 300  // rounded to whole segments
	coldWarm    = 20   // untimed cold-topk reads, on sources the phase never uses
	hotWarmHits = 2000 // untimed hot-read hits after the universe is cached

	sampleSize  = 16 // sources whose answers are scored against ground truth
	probeWrites = 16 // timed edit batches after a read-only workload's phase

	// readWindows splits a read-only phase into equal windows; the read
	// metrics are medians over windows, so a burst of host noise that slows
	// a few windows does not move them.
	readWindows = 10
)

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []string{"cold-topk", "hot-read", "zipf-live"}

// op is one request: a top-k read of source, or, when add is non-nil, a
// flushed POST /v1/edges batch.
type op struct {
	source      int32
	add, remove [][2]int32
}

func (o op) isWrite() bool { return o.add != nil }

// plan is a workload's whole operation sequence for one seed.
type plan struct {
	warm    []op    // untimed, before the measured phase
	measure []op    // timed; every write is a barrier between read segments
	window  int     // measure splits into windows of this many ops
	probe   []op    // timed writes after the phase (read-only workloads)
	sample  []int32 // sources re-read at the end and scored for precision
}

// writes returns the edit batches sent before the sample is re-read, in send
// order: the server's graph at that point is the boot graph plus these.
func (p plan) writes() []op {
	var out []op
	for _, ops := range [][]op{p.warm, p.measure} {
		for _, o := range ops {
			if o.isWrite() {
				out = append(out, o)
			}
		}
	}
	return out
}

// reads counts the reads among ops.
func reads(ops []op) int {
	n := 0
	for _, o := range ops {
		if !o.isWrite() {
			n++
		}
	}
	return n
}

// makePlan generates the operation sequence of workload for seed on g. The
// sequence depends only on its arguments.
func makePlan(workload string, seed uint64, seconds int, g *graph.Graph) (plan, error) {
	if seconds < 1 {
		return plan{}, fmt.Errorf("seconds must be at least 1, got %d", seconds)
	}
	n := g.N()
	r := rng.New(seed)
	var p plan
	switch workload {
	case "cold-topk":
		reads := coldPerSec * seconds
		if coldWarm+reads > n {
			return plan{}, fmt.Errorf("cold-topk needs %d distinct sources, graph has %d nodes", coldWarm+reads, n)
		}
		perm := r.Perm(n)
		for i, v := range perm[:coldWarm+reads] {
			o := op{source: int32(v)}
			if i < coldWarm {
				p.warm = append(p.warm, o)
			} else {
				p.measure = append(p.measure, o)
			}
		}
		for _, o := range p.measure[:sampleSize] {
			p.sample = append(p.sample, o.source)
		}
		p.window = reads / readWindows
		p.probe = newEditor(g, r).batches(probeWrites)
	case "hot-read", "zipf-live":
		u := universeOf(r, n)
		z := newZipf(universe, zipfS)
		draw := func(count int) []op {
			out := make([]op, count)
			for i := range out {
				out[i] = op{source: u[z.rank(r.Float64())]}
			}
			return out
		}
		p.sample = append(p.sample, u[:sampleSize]...)
		if workload == "hot-read" {
			for _, i := range r.Perm(universe) {
				p.warm = append(p.warm, op{source: u[i]})
			}
			p.warm = append(p.warm, draw(hotWarmHits)...)
			p.measure = draw(hotPerSec * seconds)
			p.window = len(p.measure) / readWindows
			p.probe = newEditor(g, r).batches(probeWrites)
			break
		}
		// One untimed segment fills the cache; each measured segment
		// starts with an edit batch, so the phase ends on reads and the
		// final answers reflect the final graph. A segment is a window.
		ed := newEditor(g, r)
		p.window = 1 + segmentReads
		p.warm = draw(segmentReads)
		segments := (livePerSec*seconds + segmentReads/2) / segmentReads
		if segments < 1 {
			segments = 1
		}
		for _, w := range ed.batches(segments) {
			p.measure = append(p.measure, w)
			p.measure = append(p.measure, draw(segmentReads)...)
		}
	default:
		return plan{}, fmt.Errorf("unknown workload %q (have %v)", workload, workloads)
	}
	return p, nil
}

// universeOf draws the seeded universe of distinct sources; index 0 is the
// most popular Zipf rank.
func universeOf(r *rng.Source, n int) []int32 {
	idx := r.Sample(n, universe)
	out := make([]int32, len(idx))
	for i, v := range idx {
		out[i] = int32(v)
	}
	return out
}

// zipf samples ranks 0..len(cdf)-1 with P(rank r) proportional to (r+1)^-s,
// by inverse CDF, so the draw sequence depends only on the uniform stream.
type zipf struct{ cdf []float64 }

func newZipf(ranks int, s float64) zipf {
	cdf := make([]float64, ranks)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) rank(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// editor generates edit batches of batchAdds random inserts of edges absent
// from the graph. Each batch also removes the previous batch's inserts, so
// after the first batch the edge count stays at m+batchAdds.
type editor struct {
	dyn  *graph.Dynamic
	r    *rng.Source
	last [][2]int32
}

func newEditor(g *graph.Graph, r *rng.Source) *editor {
	return &editor{dyn: graph.NewDynamic(g), r: r}
}

func (e *editor) batches(count int) []op {
	n := e.dyn.N()
	out := make([]op, 0, count)
	for len(out) < count {
		add := make([][2]int32, 0, batchAdds)
		for len(add) < batchAdds {
			u, v := int32(e.r.Intn(n)), int32(e.r.Intn(n))
			if u == v || e.dyn.HasEdge(u, v) {
				continue
			}
			// Mark the edge present so the batch cannot repeat it.
			_ = e.dyn.AddEdge(u, v) // in range and not a self-loop: cannot fail
			add = append(add, [2]int32{u, v})
		}
		for _, ed := range e.last {
			_ = e.dyn.RemoveEdge(ed[0], ed[1]) // inserted by the previous batch
		}
		out = append(out, op{add: add, remove: e.last})
		e.last = add
	}
	return out
}

// applyWrites rebuilds the graph the server should hold after the given
// accepted edit batches, through the same Dynamic snapshot path the server's
// live writer uses.
func applyWrites(g *graph.Graph, writes []op) (*graph.Graph, error) {
	dyn := graph.NewDynamic(g)
	for _, w := range writes {
		for _, ed := range w.add {
			if err := dyn.AddEdge(ed[0], ed[1]); err != nil {
				return nil, err
			}
		}
		for _, ed := range w.remove {
			if err := dyn.RemoveEdge(ed[0], ed[1]); err != nil {
				return nil, err
			}
		}
	}
	return dyn.Snapshot()
}
