package main

import "math/rand"

// sampler draws query sources from [0, n). With skew > 1 it is Zipfian —
// a small set of "celebrity" nodes absorbs most of the traffic, which is
// the access pattern that makes a result cache worth having. With
// skew <= 1 it degenerates to uniform, the cache-hostile worst case.
//
// Which nodes are the celebrities is a function of the base -seed alone:
// Zipf ranks pass through an affine bijection (a·r + b) mod n whose
// coefficients derive from the base seed, not the worker index. Every
// worker in both loop modes therefore hammers the same hot id set, and a
// rerun with the same -seed replays it exactly. Without the bijection the
// head would always be ids 0, 1, 2, ... regardless of seed.
//
// A sampler is not safe for concurrent use; give each load worker its own.
type sampler struct {
	n    int32
	a, b int64 // rank→id bijection, derived from the base seed only
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newSampler(n int32, skew float64, base int64, worker int) *sampler {
	s := &sampler{n: n, rng: rand.New(rand.NewSource(streamSeed(base, worker, streamSource)))}
	if skew > 1 {
		s.zipf = rand.NewZipf(s.rng, skew, 1, uint64(n-1))
		s.a, s.b = rankMap(base, n)
	}
	return s
}

func (s *sampler) next() int32 {
	if s.zipf != nil {
		r := int64(s.zipf.Uint64())
		return int32((s.a*r + s.b) % int64(s.n))
	}
	return s.rng.Int31n(s.n)
}

// rankMap derives the shared rank→id bijection from the base seed. The
// multiplier is stepped until coprime with n so the map is a permutation
// of [0, n); a*r stays within int64 for any int32 n.
func rankMap(base int64, n int32) (a, b int64) {
	h := uint64(streamSeed(base, 0, streamRank))
	m := int64(n)
	a = int64(h % uint64(m))
	if a < 1 {
		a = 1
	}
	for gcd(a, m) != 1 {
		a++
		if a >= m {
			a = 1
		}
	}
	b = int64((h >> 32) % uint64(m))
	return a, b
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Stream indices for streamSeed. Each (worker, stream) pair gets an
// independent RNG sequence; the old additive derivations (seed+i,
// seed+i*const) collided on worker 0, where the source, jitter, and edit
// streams all degenerated to the bare base seed.
const (
	streamSource  = iota // query-source sampler
	streamJitter         // retry backoff jitter / write-mix coin
	streamEdits          // edit-batch generator
	streamArrival        // open-loop Poisson arrival process
	streamRank           // rank→id bijection (worker-independent, see rankMap)
)

// streamSeed hashes (base, worker, stream) into an RNG seed with a
// splitmix64-style finalizer per input. Reruns with the same base -seed
// reproduce every stream — sources, jitter, edits, arrivals — exactly.
func streamSeed(base int64, worker, stream int) int64 {
	z := mix64(uint64(base) + 0x9e3779b97f4a7c15)
	z = mix64(z + uint64(worker)*0x9e3779b97f4a7c15)
	z = mix64(z + uint64(stream)*0x9e3779b97f4a7c15)
	return int64(z)
}

func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
