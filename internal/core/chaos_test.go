//go:build faultinject

package core

import (
	"context"
	"math"
	"testing"
	"time"

	"resacc/internal/algo"
	"resacc/internal/crash"
	"resacc/internal/faultinject"
	"resacc/internal/graph/gen"
)

// TestChaosDeadlineInChosenPhase pins which phase a deadline lands in, by
// injecting latency at each phase's entry point long enough to burn the
// whole budget there. The degraded result must name exactly that phase and
// carry a sound bound in [0, 1].
func TestChaosDeadlineInChosenPhase(t *testing.T) {
	g := gen.BarabasiAlbert(400, 4, 17)
	p := algo.DefaultParams(g)
	p.Seed = 3
	for _, tc := range []struct {
		point string
		phase Phase
	}{
		{"core.query.start", PhaseHopFWD}, // stalled before phase 1: first poll aborts it
		{"core.hhopfwd.start", PhaseHopFWD},
		{"core.omfwd.start", PhaseOMFWD},
		{"core.remedy.start", PhaseRemedy},
	} {
		t.Run(tc.point, func(t *testing.T) {
			defer faultinject.Reset()
			faultinject.Set(tc.point, func() { time.Sleep(100 * time.Millisecond) })
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			s := Solver{}
			scores, stats, err := s.QueryCtx(ctx, g, 0, p)
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Degraded || stats.DegradedPhase != tc.phase {
				t.Fatalf("stats=%+v, want degraded in %s", stats, tc.phase)
			}
			if stats.ResidualBound < 0 || stats.ResidualBound > 1+1e-9 {
				t.Fatalf("bound=%g outside [0,1]", stats.ResidualBound)
			}
			var mass float64
			for _, sc := range scores {
				if sc < 0 {
					t.Fatal("negative partial score")
				}
				mass += sc
			}
			// Converted reserve plus the unresolved bound covers all of π.
			if mass+stats.ResidualBound < 1-1e-6 {
				t.Fatalf("reserve mass %g + bound %g < 1", mass, stats.ResidualBound)
			}
		})
	}
}

// TestChaosWalkWorkerPanicContained injects a panic at the remedy's walk
// loop: the query must fail with a *crash.PanicError that keeps the
// panicking goroutine's stack, the workspace must be discarded (not
// pooled), and the very next query on the same solver must succeed with a
// clean answer.
func TestChaosWalkWorkerPanicContained(t *testing.T) {
	defer faultinject.Reset()
	g := gen.BarabasiAlbert(400, 4, 17)
	p := algo.DefaultParams(g)
	p.Seed = 3
	s := Solver{}

	want, _, err := s.Query(g, 0, p) // clean reference before the fault
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Set("algo.remedy.worker", func() { panic("chaos: walk worker down") })
	scores, _, err := s.QueryCtx(context.Background(), g, 0, p)
	if err == nil {
		t.Fatal("query succeeded despite a panicking walk loop")
	}
	if !crash.IsPanic(err) {
		t.Fatalf("err=%v, want a contained *crash.PanicError", err)
	}
	var pe *crash.PanicError
	if !asPanic(err, &pe) {
		t.Fatalf("err %T does not unwrap to *crash.PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("contained panic lost its stack")
	}
	if scores != nil {
		t.Fatal("panicked query returned scores")
	}

	// Containment means the process — and this solver — keeps working.
	faultinject.Reset()
	got, _, err := s.Query(g, 0, p)
	if err != nil {
		t.Fatalf("query after contained panic: %v", err)
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("post-panic scores[%d]=%v differ from pre-panic %v", v, got[v], want[v])
		}
	}
}

func asPanic(err error, pe **crash.PanicError) bool {
	for err != nil {
		if p, ok := err.(*crash.PanicError); ok {
			*pe = p
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
