// Package ws provides pooled per-query workspaces for the query hot path.
//
// ResAcc is index-free: every query pays its full cost online, so per-query
// constant factors — and in particular per-query O(n) allocations — are the
// product. A Workspace bundles the dense vectors the core phases need
// (reserve, residue, subgraph membership, queue bookkeeping, BFS scratch,
// remedy planning) so a query allocates nothing in steady state: vectors are
// recycled through a capacity-aware Pool, and reset between queries is
// sparse, driven by generation-stamped touched-lists rather than O(n)
// clearing.
//
// The reset protocol ("generation-stamped sparse reset"):
//
//   - Every membership set (Marks) carries a per-slot generation stamp. A
//     slot is "in" the set iff its stamp equals the set's current
//     generation, so bumping the generation invalidates the whole set in
//     O(1).
//   - The float vectors (Reserve, Residue) stay dense and always-valid:
//     every write goes through a helper that records the slot in the Dirty
//     touched-list (first touch per generation only). Reset zeroes exactly
//     the touched slots — O(touched), never O(n) — then bumps the
//     generation, so only touched entries are ever written or read back.
//
// Package ws has no dependencies above internal/rng, so graph, algo and
// core can all share it without cycles.
package ws

// Marks is a set over [0,n) with O(1) Clear via generation stamping: a slot
// is a member iff stamp[i] == gen. Mark records first-time members in a
// touched list so callers can iterate the set in O(|set|); Add is Mark
// without the record, for sets nobody iterates.
//
// The zero value is an empty set of capacity 0; Grow before use.
type Marks struct {
	stamp   []uint32
	gen     uint32
	touched []int32
}

// Grow ensures the set covers [0,n), preserving current members.
func (m *Marks) Grow(n int) {
	if n <= len(m.stamp) {
		return
	}
	grown := make([]uint32, n)
	copy(grown, m.stamp)
	m.stamp = grown
	if m.gen == 0 {
		// A fresh stamp array is all zeros; gen 0 would make every slot a
		// member. Start at 1.
		m.gen = 1
	}
}

// Clear empties the set in O(1) by bumping the generation. On the (once per
// 2^32 clears) generation wrap it falls back to an O(n) stamp wipe so stale
// stamps from 2^32 generations ago cannot alias.
func (m *Marks) Clear() {
	m.touched = m.touched[:0]
	m.gen++
	if m.gen == 0 {
		for i := range m.stamp {
			m.stamp[i] = 0
		}
		m.gen = 1
	}
}

// Mark is Add plus a touched-list record of each newly added slot.
func (m *Marks) Mark(v int32) bool {
	if !m.Add(v) {
		return false
	}
	m.touched = append(m.touched, v)
	return true
}

// Add adds v to the set and reports whether it was newly added, without
// recording v in the touched list: for membership-only sets (queue and
// subgraph membership, BFS visits) whose Touched nobody reads.
func (m *Marks) Add(v int32) bool {
	if m.stamp[v] == m.gen {
		return false
	}
	m.stamp[v] = m.gen
	return true
}

// MarkAll adds every slot of [0,n) to the set in one sequential pass. The
// dense-sweep push backend uses it at engagement: a whole-range sweep may
// write any slot, and one O(n) stamp pass is far cheaper than a per-edge
// Mark in the sweep's inner loop. Slots already marked keep their single
// touched entry.
func (m *Marks) MarkAll(n int) {
	for v := int32(0); int(v) < n; v++ {
		if m.stamp[v] != m.gen {
			m.stamp[v] = m.gen
			m.touched = append(m.touched, v)
		}
	}
}

// Unmark removes v from the set. The touched list intentionally keeps v (it
// records "was ever marked this generation", which is what sparse reset
// needs), and a later re-Mark appends v again — so on sets that use Unmark,
// Touched may contain duplicates and is only safe for idempotent consumers
// such as zeroing. Sets whose Touched is folded over (Dirty) never Unmark.
func (m *Marks) Unmark(v int32) {
	if m.stamp[v] == m.gen {
		// gen is always ≥ 1, so gen-1 never equals gen and never wraps to a
		// value that could alias a live generation before the next wipe.
		m.stamp[v] = m.gen - 1
	}
}

// Has reports whether v is in the set.
func (m *Marks) Has(v int32) bool { return m.stamp[v] == m.gen }

// Touched returns every slot marked since the last Clear, in first-touch
// order, including slots since removed with Unmark but not slots added
// with Add. Callers must not retain the slice across a Clear.
func (m *Marks) Touched() []int32 { return m.touched }

// Len returns the touched count (an upper bound on the member count when
// Unmark has been used).
func (m *Marks) Len() int { return len(m.touched) }

// Cap returns the slot capacity.
func (m *Marks) Cap() int { return len(m.stamp) }
