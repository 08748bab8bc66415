// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by every randomized algorithm in this repository.
//
// Determinism matters here: the paper's experiments average over fixed sets
// of query nodes, and the test suite asserts statistical properties of the
// estimators. Seeding the same rng.Source with the same seed must yield the
// same walk on every platform, which rules out math/rand's unspecified
// global state. The implementation is xoshiro256** seeded through splitmix64
// (Blackman & Vigna), both public-domain algorithms.
package rng

import "math/bits"

// Source is a xoshiro256** pseudo-random generator. The zero value is not
// usable; construct with New.
type Source struct {
	s [4]uint64
}

// New returns a Source deterministically derived from seed via splitmix64.
// Distinct seeds yield statistically independent streams.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed re-initialises s in place to the exact state New(seed) produces —
// the allocation-free form of New for callers that keep a Source value in
// pooled scratch.
func (s *Source) Reseed(seed uint64) {
	sm := seed
	for i := range s.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s.s[i] = z ^ (z >> 31)
	}
	// A xoshiro state of all zeros is a fixed point; splitmix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 1
	}
}

// Uint64 returns the next 64 uniformly random bits.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = bits.RotateLeft64(s.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0,1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0,bound) using Lemire's
// multiply-shift rejection method, which avoids the modulo bias of the
// naive Uint64()%bound without a division in the common case.
func (s *Source) boundedUint64(bound uint64) uint64 {
	hi, lo := bits.Mul64(s.Uint64(), bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			hi, lo = bits.Mul64(s.Uint64(), bound)
		}
	}
	return hi
}

// Perm returns a uniformly random permutation of [0,n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Sample returns k distinct uniform values from [0,n) in random order.
// It panics if k > n or k < 0.
func (s *Source) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample with k out of range")
	}
	if k == 0 {
		return nil
	}
	// Floyd's algorithm: O(k) expected work, no O(n) allocation.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := s.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	// Floyd's order is biased; shuffle to make the order uniform too.
	for i := len(out) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}
