package forward

import (
	"math"
	"testing"

	"resacc/internal/graph"
	"resacc/internal/graph/gen"
	"resacc/internal/ws"
)

// pooledState assembles a State in the pooled configuration (Track + marks
// scratch), the only shape drainDense serves.
func pooledState(n int, src int32, dirty, inQueue *ws.Marks) *State {
	dirty.Grow(n)
	dirty.Clear()
	inQueue.Grow(n)
	st := NewState(n, src)
	st.Track = dirty
	st.UseScratch(inQueue, nil)
	dirty.Mark(src)
	return st
}

// TestDenseDrainEquivalence: with a small denseMass the drain escalates to
// whole-range sweeps; the result must stay within the forward-push
// invariant's residual bound of the standalone queue drain (drainGeneric),
// and both must be quiescent and mass-conserving.
func TestDenseDrainEquivalence(t *testing.T) {
	g := gen.RMAT(10, 6, 5)
	const alpha, rmax = 0.2, 1e-7
	n := g.N()

	plain := NewState(n, 0)
	RunFrom(g, alpha, rmax, plain, []int32{0}, false, nil, 0)

	var d2, q2 ws.Marks
	dense := pooledState(n, 0, &d2, &q2)
	RunFrom(g, alpha, rmax, dense, []int32{0}, false, nil, 256)
	if dense.Sweeps == 0 {
		t.Fatal("denseMass=256 never escalated to a sweep")
	}

	var prsd, drsd float64
	for v := 0; v < n; v++ {
		prsd += plain.Residue[v]
		drsd += dense.Residue[v]
	}
	var psum, dsum float64
	for v := 0; v < n; v++ {
		psum += plain.Reserve[v]
		dsum += dense.Reserve[v]
	}
	if math.Abs(psum+prsd-1) > 1e-9 || math.Abs(dsum+drsd-1) > 1e-9 {
		t.Fatalf("mass lost: plain Σ=%v dense Σ=%v", psum+prsd, dsum+drsd)
	}
	bound := prsd + drsd + 1e-12
	for v := 0; v < n; v++ {
		if diff := math.Abs(plain.Reserve[v] - dense.Reserve[v]); diff > bound {
			t.Fatalf("node %d: |plain−dense| = %v > residual bound %v", v, diff, bound)
		}
		// Both quiescent.
		deg := g.OutDegree(int32(v))
		lim := rmax * float64(deg)
		if deg == 0 {
			lim = rmax
		}
		if plain.Residue[v] >= lim || dense.Residue[v] >= lim {
			t.Fatalf("node %d not quiescent: plain %v dense %v (lim %v)", v, plain.Residue[v], dense.Residue[v], lim)
		}
	}
}

// TestDenseDrainBitIdenticalBelowThreshold: an unarmed pooled drain
// (denseMass 0, the queue-only configuration) and one whose denseMass the
// search never reaches must both reproduce the standalone drain
// (drainGeneric) exactly — same pushes, every output bit — in each of the
// three shapes the solver runs: a plain search, a restricted one with a
// skipped node (h-HopFWD) and a force-seeded one (OMFWD).
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
		setup := func(st *State, seeds []int32, force bool, skip int32) {
			if force {
				st.Residue[0] = 0
				for i, v := range seeds {
					st.Residue[v] = 2 / float64(len(seeds))
					if i%2 == 1 {
						st.Residue[v] = rmax / 10
					}
					if st.Track != nil {
						st.Track.Mark(v)
					}
				}
			}
			if skip >= 0 {
				st.RestrictTo(&restrict, skip)
			}
		}
		for _, m := range modes {
			ref := NewState(n, m.src)
			setup(ref, m.seeds, m.force, m.skip)
			RunFrom(g, alpha, rmax, ref, m.seeds, m.force, nil, 0)
			if ref.Pushes == 0 {
				t.Fatalf("graph %d %s: reference search pushed nothing", gi, m.name)
			}
			for _, denseMass := range []int{0, 1 << 40} {
				var d, q ws.Marks
				st := pooledState(n, m.src, &d, &q)
				setup(st, m.seeds, m.force, m.skip)
				RunFrom(g, alpha, rmax, st, m.seeds, m.force, nil, denseMass)
				if st.Sweeps != 0 {
					t.Fatalf("graph %d %s denseMass=%d: unreachable threshold swept anyway", gi, m.name, denseMass)
				}
				if st.Pushes != ref.Pushes {
					t.Fatalf("graph %d %s denseMass=%d: push count drifted: %d vs %d", gi, m.name, denseMass, st.Pushes, ref.Pushes)
				}
				for v := 0; v < n; v++ {
					if math.Float64bits(ref.Reserve[v]) != math.Float64bits(st.Reserve[v]) ||
						math.Float64bits(ref.Residue[v]) != math.Float64bits(st.Residue[v]) {
						t.Fatalf("graph %d %s denseMass=%d: node %d not bit-identical to the standalone drain", gi, m.name, denseMass, v)
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

	var d1, q1, d2, q2 ws.Marks
	plain := pooledState(n, 1, &d1, &q1)
	plain.RestrictTo(&restrict, skip)
	RunFrom(g, alpha, rmax, plain, []int32{1}, false, nil, 0)

	dense := pooledState(n, 1, &d2, &q2)
	dense.RestrictTo(&restrict, skip)
	RunFrom(g, alpha, rmax, dense, []int32{1}, false, nil, 128)
	if dense.Sweeps == 0 {
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
