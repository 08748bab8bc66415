package algo

import (
	"math"
	"testing"

	"resacc/internal/graph"
	"resacc/internal/rng"
)

func cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.MustBuild()
}

func TestDefaultParamsValid(t *testing.T) {
	g := cycle(10)
	p := DefaultParams(g)
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if p.Alpha != 0.2 || p.Epsilon != 0.5 {
		t.Errorf("defaults drifted: %+v", p)
	}
	if p.Delta != 0.1 || p.PFail != 0.1 {
		t.Errorf("δ and p_f should be 1/n: %+v", p)
	}
	if math.Abs(p.RMaxF-1.0/(10*float64(g.M()))) > 1e-18 {
		t.Errorf("RMaxF should be 1/(10m), got %v", p.RMaxF)
	}
}

func TestValidateRejects(t *testing.T) {
	g := cycle(5)
	base := DefaultParams(g)
	mutations := []func(*Params){
		func(p *Params) { p.Alpha = 0 },
		func(p *Params) { p.Alpha = 1 },
		func(p *Params) { p.Epsilon = 0 },
		func(p *Params) { p.Delta = 0 },
		func(p *Params) { p.PFail = 0 },
		func(p *Params) { p.PFail = 1 },
		func(p *Params) { p.RMaxF = 0 },
		func(p *Params) { p.RMaxHop = -1 },
		func(p *Params) { p.H = -1 },
		func(p *Params) { p.NScale = -0.5 },
		func(p *Params) { p.Alpha = math.NaN() },
	}
	for i, mut := range mutations {
		p := base
		mut(&p)
		if err := p.Validate(g); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
	if err := base.Validate(nil); err == nil {
		t.Error("nil graph should fail")
	}
}

func TestWalkCoefficient(t *testing.T) {
	g := cycle(100)
	p := DefaultParams(g)
	want := (2*p.Epsilon/3 + 2) * math.Log(2/p.PFail) / (p.Epsilon * p.Epsilon * p.Delta)
	if got := p.WalkCoefficient(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("WalkCoefficient=%v, want %v", got, want)
	}
}

func TestEffectiveNScale(t *testing.T) {
	p := Params{}
	if p.EffectiveNScale() != 1 {
		t.Fatal("zero NScale must mean 1")
	}
	p.NScale = 0.3
	if p.EffectiveNScale() != 0.3 {
		t.Fatal("NScale not honoured")
	}
}

func TestWalkTerminatesAndStaysInGraph(t *testing.T) {
	g := cycle(7)
	r := rng.New(5)
	for i := 0; i < 1000; i++ {
		end := Walk(g, 0, 0.2, r)
		if end < 0 || int(end) >= g.N() {
			t.Fatalf("walk escaped graph: %d", end)
		}
	}
}

func TestWalkDeadEnd(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	r := rng.New(5)
	for i := 0; i < 100; i++ {
		end := Walk(g, 1, 0.2, r)
		if end != 1 {
			t.Fatal("walk from dead end must stay")
		}
	}
}

func TestWalkLengthDistribution(t *testing.T) {
	// On a cycle the walk advances Geometric(α) steps; the expected
	// terminal offset is (1-α)/α = 4 at α = 0.2.
	g := cycle(1000) // long enough that wrap-around is negligible
	r := rng.New(9)
	const n = 50000
	total := 0.0
	for i := 0; i < n; i++ {
		total += float64(Walk(g, 0, 0.2, r))
	}
	mean := total / n
	if math.Abs(mean-4) > 0.1 {
		t.Fatalf("mean walk length %v, want ≈4", mean)
	}
}

func TestWalkCounter(t *testing.T) {
	g := cycle(5)
	wc := NewWalkCounter(g, 0.2, rng.New(3))
	wc.Run(0, 1000)
	if wc.Total != 1000 {
		t.Fatalf("Total=%d", wc.Total)
	}
	sum := int64(0)
	for _, c := range wc.Count {
		sum += c
	}
	if sum != 1000 {
		t.Fatalf("counts sum to %d", sum)
	}
}

func TestCheckSource(t *testing.T) {
	g := cycle(3)
	if err := CheckSource(g, 0); err != nil {
		t.Fatal(err)
	}
	if err := CheckSource(g, 3); err == nil {
		t.Fatal("want error")
	}
	if err := CheckSource(g, -1); err == nil {
		t.Fatal("want error")
	}
}
