package live

import (
	"sync/atomic"

	"resacc/internal/graph"
)

// Snapshot is one immutable graph version served under RCU discipline: the
// serving engine publishes the current snapshot through an atomic pointer,
// each query pins it for the duration of its computation, and a superseded
// snapshot retires — running its retire hook exactly once — when the last
// in-flight query releases it. The graph itself is garbage-collected like
// any Go value; the refcount exists so the serving layer knows *when* a
// snapshot is truly out of use (pool retirement, metrics), not to manage
// its memory.
//
// The count starts at 1: the "current" reference, dropped by the swap that
// supersedes the snapshot. Acquire/Release bracket each reader.
type Snapshot struct {
	g     *graph.Graph
	epoch uint64
	// derived holds a serving-layer sidecar pinned to this snapshot's
	// lifetime (the id mappings of a degree-relabeled snapshot). It is
	// written once via SetDerived before the snapshot is published through
	// the atomic current pointer — that publication is the happens-before
	// edge that makes the plain field safe for every reader.
	derived any

	refs    atomic.Int64
	retired atomic.Bool
	// onRetire runs exactly once, when the snapshot is superseded and the
	// last reference is released. Stored atomically so InstallRetire can
	// arm a hook on a snapshot created without one (the engine's boot
	// snapshot) while readers are already releasing.
	onRetire atomic.Pointer[func()]
}

// NewSnapshot wraps g as a pinned snapshot at the given swap epoch, with
// refs = 1 (the current-pointer reference). onRetire may be nil.
func NewSnapshot(g *graph.Graph, epoch uint64, onRetire func()) *Snapshot {
	s := &Snapshot{g: g, epoch: epoch}
	s.refs.Store(1)
	if onRetire != nil {
		s.onRetire.Store(&onRetire)
	}
	return s
}

// Graph returns the snapshot's immutable graph.
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// SetDerived attaches a serving-layer sidecar (per-snapshot artifacts such
// as id-relabel mappings). It must be called before the snapshot is
// published to readers; see the derived field.
func (s *Snapshot) SetDerived(v any) { s.derived = v }

// Derived returns the sidecar attached with SetDerived, or nil.
func (s *Snapshot) Derived() any { return s.derived }

// Epoch returns the swap generation this snapshot was published at.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Refs returns the current reference count (diagnostics and tests).
func (s *Snapshot) Refs() int64 { return s.refs.Load() }

// Acquire takes a reference. Callers must pair it with Release. The RCU
// pin loop may briefly Acquire a snapshot that was already superseded and
// drained; the retired flag keeps the retire hook from running twice when
// that stray reference is released.
func (s *Snapshot) Acquire() { s.refs.Add(1) }

// Release drops a reference; when the count reaches zero the snapshot is
// retired (the swap that superseded it already dropped the current-pointer
// reference, so zero means no reader can still see it).
func (s *Snapshot) Release() {
	if s.refs.Add(-1) == 0 && s.retired.CompareAndSwap(false, true) {
		if f := s.onRetire.Load(); f != nil {
			(*f)()
		}
	}
}

// InstallRetire arms (or replaces) the retire hook. It is only meaningful
// while the snapshot still holds its current-pointer reference — the live
// manager uses it to count the retirement of the engine's boot snapshot.
func (s *Snapshot) InstallRetire(f func()) {
	if f == nil {
		s.onRetire.Store(nil)
		return
	}
	s.onRetire.Store(&f)
}
