package resacc

import "time"

// QueryEvent describes one completed (or failed) ResAcc computation,
// delivered to an engine's observer (EngineOptions.OnQuery). Stats is zero
// when Err is non-nil.
type QueryEvent struct {
	// Source is the query source node, in the caller's id space.
	Source int32
	// Start is when the query began.
	Start time.Time
	// Duration is the end-to-end wall time, including validation and
	// allocation outside the three phases, so it is ≥ Stats.Total().
	Duration time.Duration
	// Stats is the per-phase breakdown.
	Stats Stats
	// Err is the query error, if any.
	Err error
}

// QueryHook observes completed queries. It runs synchronously on the
// computing goroutine and must be fast and concurrency-safe.
type QueryHook func(QueryEvent)
