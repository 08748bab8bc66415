package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"resacc/internal/algo"
	"resacc/internal/dataset"
)

// TestQueryGoldenHashes pins Solver.Query's exact output: an FNV-64a hash
// over the Float64bits of every score, plus the walk count, per source.
// Any change to float summation order, walk planning or rng
// consumption on the plain query path moves a hash, so a refactor of the
// push or remedy code must keep every row or justify a re-record. The
// values are amd64's: other architectures may fuse multiply-adds and round
// differently.
func TestQueryGoldenHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are recorded on amd64, not %s", runtime.GOARCH)
	}
	want := map[string]string{
		"src=0":   "fb5dd889df9d5642 walks=2916",
		"src=7":   "213f6c3d8e7a3980 walks=2845",
		"src=123": "554a46f37b7e4ebe walks=2900",
		"src=401": "89782c52c05a12ed walks=2923",
	}
	g := dataset.MustBuild("webstan-s", 0.05)
	p := algo.DefaultParams(g)
	for _, src := range []int32{0, 7, 123, 401} {
		pi, st, err := Solver{}.Query(g, src, p)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, x := range pi {
			b := math.Float64bits(x)
			for i := range buf {
				buf[i] = byte(b >> (8 * i))
			}
			h.Write(buf[:])
		}
		key := fmt.Sprintf("src=%d", src)
		got := fmt.Sprintf("%016x walks=%d", h.Sum64(), st.Walks)
		if got != want[key] {
			t.Errorf("%s: got %q, want %q", key, got, want[key])
		}
	}
}
