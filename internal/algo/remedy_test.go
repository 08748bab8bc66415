package algo

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"resacc/internal/graph"
	"resacc/internal/graph/gen"
	"resacc/internal/rng"
	"resacc/internal/ws"
)

// referenceRemedy is the remedy phase written straight from Algorithm 2
// lines 5-17 over dense vectors: an ascending scan for r_sum, then
// ⌈r(v)·n_r/r_sum⌉ walks from each node with positive residue, each
// crediting r(v)/n_r(v) to its terminal, under the MaxWalks cap. Remedy
// must reproduce it bit for bit.
func referenceRemedy(g *graph.Graph, p Params, pi, residue []float64, r *rng.Source) RemedyStats {
	var st RemedyStats
	for _, rv := range residue {
		if rv > 0 {
			st.RSum += rv
		}
	}
	if st.RSum <= 0 {
		return st
	}
	st.NR = st.RSum * p.WalkCoefficient() * p.EffectiveNScale()
	if st.NR < 1 {
		st.NR = 1
	}
	budget := int64(math.MaxInt64)
	if p.MaxWalks > 0 {
		budget = int64(p.MaxWalks)
	}
	for v := int32(0); int(v) < len(residue); v++ {
		rv := residue[v]
		if rv <= 0 {
			continue
		}
		nv := int64(math.Ceil(rv * st.NR / st.RSum))
		if nv < 1 {
			nv = 1
		}
		if st.Walks+nv > budget {
			nv = budget - st.Walks
			if nv <= 0 {
				break
			}
		}
		inc := rv / float64(nv)
		for i := int64(0); i < nv; i++ {
			t := Walk(g, v, p.Alpha, r)
			pi[t] += inc
		}
		st.Walks += nv
	}
	return st
}

// remedyFixture builds a workspace with a spread of residues plus dense
// copies of its vectors, so Remedy can be compared slot for slot against
// referenceRemedy and its deposits measured.
func remedyFixture(t *testing.T, n int) (*ws.Workspace, []float64, []float64) {
	t.Helper()
	w := ws.New(n)
	r := rng.New(99)
	for i := 0; i < n/3; i++ {
		v := int32(r.Intn(n))
		w.SetResidue(v, r.Float64()*0.01)
		w.AddReserve(v, r.Float64()*0.1)
	}
	pi := make([]float64, n)
	residue := make([]float64, n)
	copy(pi, w.Reserve)
	copy(residue, w.Residue)
	return w, pi, residue
}

// withResidue returns a fresh workspace over g holding the given residues.
func withResidue(g *graph.Graph, residue map[int32]float64) *ws.Workspace {
	w := ws.New(g.N())
	for v, rv := range residue {
		w.SetResidue(v, rv)
	}
	return w
}

// TestRemedyMatchesReference: Remedy is bit-identical to the dense
// reference for the same seed — same candidates, same walk order, same
// float summation order — with and without a binding MaxWalks cap.
func TestRemedyMatchesReference(t *testing.T) {
	for _, g := range []*graph.Graph{gen.RMAT(9, 5, 17), gen.BarabasiAlbert(400, 3, 23), gen.Grid(15, 15)} {
		for _, maxWalks := range []int{0, 50} {
			w, pi, residue := remedyFixture(t, g.N())
			p := DefaultParams(g)
			p.MaxWalks = maxWalks
			p.Seed = 31
			want := referenceRemedy(g, p, pi, residue, rng.New(p.Seed))
			got := Remedy(g, p, w, nil)
			if want != got {
				t.Fatalf("n=%d maxWalks=%d: stats %+v, reference %+v", g.N(), maxWalks, got, want)
			}
			for v := range pi {
				if math.Float64bits(pi[v]) != math.Float64bits(w.Reserve[v]) {
					t.Fatalf("n=%d maxWalks=%d pi[%d]: %v, reference %v", g.N(), maxWalks, v, w.Reserve[v], pi[v])
				}
			}
		}
	}
}

func TestRemedyUnbiased(t *testing.T) {
	// E[remedy estimate of t] = Σ_v r(v)·π(v,t). On a 2-cycle with
	// residue only at node 0, the closed-form π(0,0) = α/(1-(1-α)²).
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	g := b.MustBuild()
	p := DefaultParams(g)
	pi00 := p.Alpha / (1 - (1-p.Alpha)*(1-p.Alpha))
	const trials = 300
	acc := 0.0
	for p.Seed = 0; p.Seed < trials; p.Seed++ {
		w := withResidue(g, map[int32]float64{0: 0.5})
		Remedy(g, p, w, nil)
		acc += w.Reserve[0]
	}
	if got, want := acc/trials, 0.5*pi00; math.Abs(got-want) > 0.01 {
		t.Fatalf("mean remedy estimate %v, want %v", got, want)
	}
}

func TestRemedyStatsAndBudget(t *testing.T) {
	g := cycle(50)
	p := DefaultParams(g)
	st := Remedy(g, p, withResidue(g, map[int32]float64{0: 0.3, 10: 0.2}), nil)
	if math.Abs(st.RSum-0.5) > 1e-12 {
		t.Fatalf("RSum=%v", st.RSum)
	}
	if st.Walks <= 0 {
		t.Fatal("no walks")
	}
	// Budgeted run walks fewer.
	p.MaxWalks = 10
	if st := Remedy(g, p, withResidue(g, map[int32]float64{0: 0.3, 10: 0.2}), nil); st.Walks > 10 {
		t.Fatalf("budget exceeded: %d", st.Walks)
	}
}

// TestRemedyParallelWalkBudget: the MaxWalks cap binds on a grid with
// three residue nodes whose plan would otherwise need more walks than the
// cap. (The name dates from the walk fan-out this case was written for.)
func TestRemedyParallelWalkBudget(t *testing.T) {
	g := gen.Grid(6, 6)
	p := DefaultParams(g)
	p.MaxWalks = 12
	if st := Remedy(g, p, withResidue(g, map[int32]float64{0: 0.3, 10: 0.3, 20: 0.3}), nil); st.Walks > 12 {
		t.Fatalf("budget exceeded: %d walks", st.Walks)
	}
}

// TestRemedyWSBudget: on a workspace with a spread of residues and a dirty
// reserve, the MaxWalks cap binds and still leaves walks to run.
func TestRemedyWSBudget(t *testing.T) {
	g := gen.Grid(15, 15)
	w, _, _ := remedyFixture(t, g.N())
	p := DefaultParams(g)
	p.MaxWalks = 50
	if st := Remedy(g, p, w, nil); st.Walks > 50 || st.Walks <= 0 {
		t.Fatalf("%d walks under MaxWalks=50", st.Walks)
	}
}

// assertNoRemedy runs Remedy on a workspace that holds no residue and fails
// if it planned or walked anything.
func assertNoRemedy(t *testing.T, g *graph.Graph, w *ws.Workspace) {
	t.Helper()
	st := Remedy(g, DefaultParams(g), w, nil)
	if st.Walks != 0 || st.RSum != 0 || len(w.JobNodes) != 0 {
		t.Fatalf("zero-residue remedy did work: %+v", st)
	}
}

// TestRemedyZeroResidue: nothing to do, nothing done.
func TestRemedyZeroResidue(t *testing.T) {
	g := cycle(5)
	assertNoRemedy(t, g, ws.New(g.N()))
}

// TestRemedyParallelZeroResidue: the same on a 4×4 grid. (The name dates
// from the walk fan-out this case was written for.)
func TestRemedyParallelZeroResidue(t *testing.T) {
	g := gen.Grid(4, 4)
	assertNoRemedy(t, g, ws.New(g.N()))
}

// TestRemedyWSZeroResidue: a dirty reserve with zero residue everywhere is
// still nothing to do.
func TestRemedyWSZeroResidue(t *testing.T) {
	g := gen.Grid(5, 5)
	w := ws.New(g.N())
	w.AddReserve(3, 1)
	assertNoRemedy(t, g, w)
}

// TestRemedyMassConservation: the mass the walks deposit equals r_sum
// (each walk deposits r(v)/n_r(v), and n_r(v) walks run per v).
func TestRemedyMassConservation(t *testing.T) {
	check := func(seed uint64) bool {
		g := cycle(20)
		p := DefaultParams(g)
		p.Seed = seed
		r := rng.New(seed)
		residue := map[int32]float64{}
		for i := 0; i < 5; i++ {
			residue[int32(r.Intn(g.N()))] = r.Float64() * 0.1
		}
		w := withResidue(g, residue)
		total := w.SumResidue()
		Remedy(g, p, w, nil)
		added := 0.0
		for _, x := range w.Reserve {
			added += x
		}
		return math.Abs(added-total) <= 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRemedyParallelMassConservation: the same conservation on a fixed
// random graph with residue at three nodes, and walks must run. (The name
// dates from the walk fan-out this case was written for.)
func TestRemedyParallelMassConservation(t *testing.T) {
	g := gen.ErdosRenyi(200, 1200, 3)
	p := DefaultParams(g)
	p.Seed = 9
	w := withResidue(g, map[int32]float64{3: 0.2, 77: 0.1, 150: 0.05})
	st := Remedy(g, p, w, nil)
	added := 0.0
	for _, x := range w.Reserve {
		added += x
	}
	if math.Abs(added-0.35) > 1e-9 {
		t.Fatalf("mass %v, want 0.35", added)
	}
	if st.Walks <= 0 {
		t.Fatal("no walks")
	}
}

// TestRemedyDeterministicPerWorkerCount: the same seed reproduces the
// estimate exactly. (The seed alone fixes it now; the name dates from the
// walk fan-out, whose estimate also depended on the worker count.)
func TestRemedyDeterministicPerWorkerCount(t *testing.T) {
	g := gen.BarabasiAlbert(150, 3, 5)
	p := DefaultParams(g)
	p.Seed = 42
	run := func() []float64 {
		w := withResidue(g, map[int32]float64{0: 0.3, 50: 0.1})
		Remedy(g, p, w, nil)
		return w.Reserve
	}
	a, b := run(), run()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatal("the same seed must reproduce exactly")
		}
	}
}

// TestRemedyPreCancelled: a done channel that is already closed stops the
// walk phase at the very first amortized check — zero walks run, the
// reserves are untouched, and Remaining reports the full residue mass so
// the caller's anytime bound stays sound.
func TestRemedyPreCancelled(t *testing.T) {
	g := gen.RMAT(9, 5, 17)
	done := make(chan struct{})
	close(done)
	w, pi, _ := remedyFixture(t, g.N())
	p := DefaultParams(g)
	p.Seed = 31
	st := Remedy(g, p, w, done)
	if !st.Aborted {
		t.Fatal("pre-closed done not seen")
	}
	if st.Walks != 0 {
		t.Fatalf("%d walks ran after cancellation", st.Walks)
	}
	if math.Abs(st.Remaining-st.RSum) > 1e-12 {
		t.Fatalf("Remaining=%g, want full RSum=%g", st.Remaining, st.RSum)
	}
	for v := range pi {
		if w.Reserve[v] != pi[v] {
			t.Fatalf("reserve[%d] moved without walks", v)
		}
	}
}

// TestRemedyCancelMassConservation: whenever the walk phase stops —
// mid-node, between nodes, or not at all — the reserve mass the walks
// deposited must equal the converted residue RSum−Remaining (the FORA
// invariant's walk-side accounting, the quantity the degraded bound is
// built from).
func TestRemedyCancelMassConservation(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 6, 23)
	p := DefaultParams(g)
	p.Seed = 7
	for _, delay := range []time.Duration{0, 50 * time.Microsecond, 500 * time.Microsecond, time.Hour} {
		w, pi, _ := remedyFixture(t, g.N())
		done := make(chan struct{})
		if delay == 0 {
			close(done)
		} else if delay < time.Hour {
			go func() { time.Sleep(delay); close(done) }()
		}
		st := Remedy(g, p, w, done)

		var gained float64
		for v := range pi {
			gained += w.Reserve[v] - pi[v]
		}
		converted := st.RSum - st.Remaining
		if math.Abs(gained-converted) > 1e-9*math.Max(1, st.RSum) {
			t.Fatalf("delay=%v: walks deposited %g but accounting says %g (aborted=%v walks=%d)",
				delay, gained, converted, st.Aborted, st.Walks)
		}
		if st.Remaining < 0 || st.Remaining > st.RSum+1e-12 {
			t.Fatalf("delay=%v: Remaining=%g outside [0, RSum=%g]", delay, st.Remaining, st.RSum)
		}
		if !st.Aborted && st.Remaining != 0 {
			t.Fatalf("delay=%v: un-aborted run left Remaining=%g", delay, st.Remaining)
		}
	}
}
