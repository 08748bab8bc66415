package forward

import (
	"math"
	"testing"

	"resacc/internal/graph"
	"resacc/internal/graph/gen"
	"resacc/internal/ws"
)

// refSearch is the standalone forward search the workspace drain replaced,
// kept as the reference its tests compare against (as referenceRemedy is
// for the remedy): dense reserve and residue vectors, a []bool queue, the
// O(n) seed scan, and push eligibility checked on each arriving edge
// rather than at dequeue.
type refSearch struct {
	reserve, residue []float64
	pushes           int64
	inQueue          []bool
	queue            []int32
	restrict         *ws.Marks
	skip             int32 // -1 = none
}

// newRefSearch returns the initial search from s: r(s) = 1, all else zero.
func newRefSearch(n int, s int32) *refSearch {
	r := &refSearch{
		reserve: make([]float64, n),
		residue: make([]float64, n),
		inQueue: make([]bool, n),
		skip:    -1,
	}
	r.residue[s] = 1
	return r
}

func (r *refSearch) mayPush(v int32) bool {
	return v != r.skip && (r.restrict == nil || r.restrict.Has(v))
}

func (r *refSearch) enqueue(v int32) {
	if !r.inQueue[v] {
		r.inQueue[v] = true
		r.queue = append(r.queue, v)
	}
}

// run seeds the queue by scanning every node for pushable residue, then
// drains it.
func (r *refSearch) run(g *graph.Graph, alpha, rmax float64) {
	for v := int32(0); v < int32(g.N()); v++ {
		if r.residue[v] > 0 && satisfies(g, rmax, r.residue[v], v) && r.mayPush(v) {
			r.enqueue(v)
		}
	}
	r.drain(g, alpha, rmax)
}

// runFrom seeds the queue from seeds as RunFrom does — force enqueues every
// seed with any residue — then drains it.
func (r *refSearch) runFrom(g *graph.Graph, alpha, rmax float64, seeds []int32, force bool) {
	for _, v := range seeds {
		ok := r.residue[v] > 0
		if !force {
			ok = satisfies(g, rmax, r.residue[v], v)
		}
		if ok && r.mayPush(v) {
			r.enqueue(v)
		}
	}
	r.drain(g, alpha, rmax)
}

func (r *refSearch) drain(g *graph.Graph, alpha, rmax float64) {
	for head := 0; head < len(r.queue); head++ {
		v := r.queue[head]
		r.inQueue[v] = false
		rv := r.residue[v]
		if rv == 0 {
			continue
		}
		r.residue[v] = 0
		r.pushes++
		d := g.OutDegree(v)
		if d == 0 {
			r.reserve[v] += rv
			continue
		}
		r.reserve[v] += alpha * rv
		share := (1 - alpha) * rv / float64(d)
		for _, u := range g.Out(v) {
			r.residue[u] += share
			if !r.inQueue[u] && r.mayPush(u) && satisfies(g, rmax, r.residue[u], u) {
				r.enqueue(u)
			}
		}
	}
	r.queue = r.queue[:0]
}

// newSearch returns a fresh workspace for n nodes with r(src) = 1.
func newSearch(n int, src int32) *ws.Workspace {
	w := ws.New(n)
	w.SetResidue(src, 1)
	return w
}

// TestDenseDrainEquivalence: with a small denseMass the drain escalates to
// whole-range sweeps; the result must stay within the forward-push
// invariant's residual bound of the standalone reference drain, and both
// must be quiescent and mass-conserving.
func TestDenseDrainEquivalence(t *testing.T) {
	g := gen.RMAT(10, 6, 5)
	const alpha, rmax = 0.2, 1e-7
	n := g.N()

	plain := newRefSearch(n, 0)
	plain.run(g, alpha, rmax)

	dense := newSearch(n, 0)
	var st State
	st.RunFrom(g, alpha, rmax, dense, []int32{0}, false, nil, 256)
	if st.Sweeps == 0 {
		t.Fatal("denseMass=256 never escalated to a sweep")
	}

	var prsd, drsd float64
	for v := 0; v < n; v++ {
		prsd += plain.residue[v]
		drsd += dense.Residue[v]
	}
	var psum, dsum float64
	for v := 0; v < n; v++ {
		psum += plain.reserve[v]
		dsum += dense.Reserve[v]
	}
	if math.Abs(psum+prsd-1) > 1e-9 || math.Abs(dsum+drsd-1) > 1e-9 {
		t.Fatalf("mass lost: plain Σ=%v dense Σ=%v", psum+prsd, dsum+drsd)
	}
	bound := prsd + drsd + 1e-12
	for v := 0; v < n; v++ {
		if diff := math.Abs(plain.reserve[v] - dense.Reserve[v]); diff > bound {
			t.Fatalf("node %d: |plain−dense| = %v > residual bound %v", v, diff, bound)
		}
		// Both quiescent.
		deg := g.OutDegree(int32(v))
		lim := rmax * float64(deg)
		if deg == 0 {
			lim = rmax
		}
		if plain.residue[v] >= lim || dense.Residue[v] >= lim {
			t.Fatalf("node %d not quiescent: plain %v dense %v (lim %v)", v, plain.residue[v], dense.Residue[v], lim)
		}
	}
}

// TestDenseDrainBitIdenticalBelowThreshold: an unarmed drain (denseMass 0,
// the queue-only configuration) and one whose denseMass the search never
// reaches must both reproduce the standalone reference drain exactly —
// same pushes, every output bit — in each of the three shapes the solver
// runs: a plain search, a restricted one with a skipped node (h-HopFWD)
// and a force-seeded one (OMFWD).
func TestDenseDrainBitIdenticalBelowThreshold(t *testing.T) {
	const alpha, rmax = 0.2, 1e-6
	graphs := []*graph.Graph{gen.ErdosRenyi(400, 3200, 7), gen.RMAT(11, 6, 1), gen.RMAT(11, 6, 2)}
	for gi, g := range graphs {
		n := g.N()
		var restrict ws.Marks
		restrict.Grow(n)
		restrict.Clear()
		for v := int32(0); int(v) < n/2; v++ {
			restrict.Mark(v)
		}
		var forceSeeds []int32
		for v := int32(0); int(v) < n; v += 5 {
			forceSeeds = append(forceSeeds, v)
		}
		modes := []struct {
			name  string
			src   int32
			seeds []int32
			force bool
			skip  int32 // ≥ 0 restricts the search to restrict minus skip
		}{
			{"plain", 3, []int32{3}, false, -1},
			{"restricted", 1, []int32{1}, false, 0},
			{"forced", 0, forceSeeds, true, -1},
		}
		// setup gives the seeds of a forced run alternately an equal share
		// of the unit mass, which starts the cascade, and a tenth of rmax,
		// which is below every node's push threshold, so only force pushes
		// those.
		setup := func(set func(v int32, x float64), seeds []int32, force bool) {
			if !force {
				return
			}
			set(0, 0)
			for i, v := range seeds {
				x := 2 / float64(len(seeds))
				if i%2 == 1 {
					x = rmax / 10
				}
				set(v, x)
			}
		}
		for _, m := range modes {
			ref := newRefSearch(n, m.src)
			setup(func(v int32, x float64) { ref.residue[v] = x }, m.seeds, m.force)
			if m.skip >= 0 {
				ref.restrict, ref.skip = &restrict, m.skip
			}
			ref.runFrom(g, alpha, rmax, m.seeds, m.force)
			if ref.pushes == 0 {
				t.Fatalf("graph %d %s: reference search pushed nothing", gi, m.name)
			}
			for _, denseMass := range []int{0, 1 << 40} {
				w := newSearch(n, m.src)
				setup(w.SetResidue, m.seeds, m.force)
				var st State
				if m.skip >= 0 {
					st.RestrictTo(&restrict, m.skip)
				}
				st.RunFrom(g, alpha, rmax, w, m.seeds, m.force, nil, denseMass)
				if st.Sweeps != 0 {
					t.Fatalf("graph %d %s denseMass=%d: unreachable threshold swept anyway", gi, m.name, denseMass)
				}
				if st.Pushes != ref.pushes {
					t.Fatalf("graph %d %s denseMass=%d: push count drifted: %d vs %d", gi, m.name, denseMass, st.Pushes, ref.pushes)
				}
				for v := 0; v < n; v++ {
					if math.Float64bits(ref.reserve[v]) != math.Float64bits(w.Reserve[v]) ||
						math.Float64bits(ref.residue[v]) != math.Float64bits(w.Residue[v]) {
						t.Fatalf("graph %d %s denseMass=%d: node %d not bit-identical to the reference drain", gi, m.name, denseMass, v)
					}
				}
			}
		}
	}
}

// TestDenseDrainRestricted: the sweep must honor restrict/skip exactly as
// the queue drain does when engaged from a restricted search (the h-HopFWD
// shape).
func TestDenseDrainRestricted(t *testing.T) {
	g := gen.RMAT(9, 6, 13)
	const alpha, rmax = 0.2, 1e-7
	n := g.N()

	var restrict ws.Marks
	restrict.Grow(n)
	restrict.Clear()
	for v := int32(0); int(v) < n/2; v++ {
		restrict.Mark(v)
	}
	const skip = int32(0)

	plain := newSearch(n, 1)
	var pst State
	pst.RestrictTo(&restrict, skip)
	pst.RunFrom(g, alpha, rmax, plain, []int32{1}, false, nil, 0)

	dense := newSearch(n, 1)
	var dst State
	dst.RestrictTo(&restrict, skip)
	dst.RunFrom(g, alpha, rmax, dense, []int32{1}, false, nil, 128)
	if dst.Sweeps == 0 {
		t.Skip("graph too sparse to escalate at denseMass=128")
	}

	var prsd, drsd float64
	for v := 0; v < n; v++ {
		prsd += plain.Residue[v]
		drsd += dense.Residue[v]
	}
	bound := prsd + drsd + 1e-12
	for v := int32(0); int(v) < n; v++ {
		if !restrict.Has(v) || v == skip {
			if dense.Reserve[v] != 0 {
				t.Fatalf("ineligible node %d gained reserve %v under dense drain", v, dense.Reserve[v])
			}
			continue
		}
		if diff := math.Abs(plain.Reserve[v] - dense.Reserve[v]); diff > bound {
			t.Fatalf("node %d: |plain−dense| = %v > %v", v, diff, bound)
		}
	}
}
