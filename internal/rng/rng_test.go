package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions across different seeds", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	s := New(0)
	if s.Uint64() == 0 && s.Uint64() == 0 && s.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck stream")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean=%v, want ~0.5", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(13)
	const buckets, n = 10, 100000
	count := make([]int, buckets)
	for i := 0; i < n; i++ {
		count[s.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range count {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", b, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64) bool {
		s := New(seed)
		p := s.Perm(30)
		seen := make([]bool, 30)
		for _, v := range p {
			if v < 0 || v >= 30 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinct(t *testing.T) {
	check := func(seed uint64) bool {
		s := New(seed)
		out := s.Sample(50, 10)
		if len(out) != 10 {
			return false
		}
		seen := map[int]bool{}
		for _, v := range out {
			if v < 0 || v >= 50 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleEdgeCases(t *testing.T) {
	s := New(3)
	if got := s.Sample(5, 0); got != nil {
		t.Fatal("Sample(n,0) should be nil")
	}
	full := s.Sample(5, 5)
	if len(full) != 5 {
		t.Fatal("Sample(n,n) should return all")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(2,3) must panic")
		}
	}()
	s.Sample(2, 3)
}
