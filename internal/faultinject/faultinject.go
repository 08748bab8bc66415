// Package faultinject is a chaos-testing harness: named fault points are
// compiled into the query path at phase boundaries and worker loops, and a
// test built with the "faultinject" tag can attach a fault — injected
// latency, a panic, a forced cancellation — to any of them by name.
//
// In the default build every Hit call is an empty function that the
// compiler inlines away, so the production binary carries zero overhead
// (the allocation-regression tests run in the default build and pin this).
// Faults only ever fire when BOTH gates are open: the binary was built
// with -tags faultinject AND a test registered a fault with Set.
//
// Point names are dotted paths mirroring the package structure:
//
//	core.query.start     QueryWSCtx entry, before any phase
//	core.hhopfwd.start   before the h-HopFWD push loop
//	core.omfwd.start     before the OMFWD push cascade
//	core.remedy.start    before the remedy walk phase
//	algo.remedy.worker   once per remedy, after planning and before the
//	                     first walk, on the goroutine that walks
//	serve.compute        on the pool worker, before the computation
//	live.swap            in the snapshot-swap pipeline, after the new
//	                     snapshot is built but before it is published
//
// The chaos suites (go test -race -tags faultinject ./...) use these to
// force deadline hits in a chosen phase and to prove panic containment.
package faultinject

// Fault is the action attached to a point: it runs on the goroutine that
// hit the point and may sleep (latency), panic, or cancel a context it
// closed over (forced cancellation).
type Fault func()
