package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"resacc/internal/algo"
	"resacc/internal/algo/alias"
	"resacc/internal/dataset"
)

// TestQueryGoldenHashes pins Solver.Query's exact output: an FNV-64a hash
// over the Float64bits of every score, plus the walk count, per (source,
// walk workers, alias walks). Any change to float summation order, walk
// planning or rng consumption on the plain query path moves a hash, so a
// refactor of the push or remedy code must keep every row or justify a
// re-record. The values are amd64's: other architectures may fuse
// multiply-adds and round differently.
func TestQueryGoldenHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are recorded on amd64, not %s", runtime.GOARCH)
	}
	want := map[string]string{
		"src=0/workers=1/alias=false":   "fb5dd889df9d5642 walks=2916",
		"src=0/workers=1/alias=true":    "3aa695840adfbfd7 walks=2916",
		"src=0/workers=2/alias=false":   "59d06c77d638e64e walks=2916",
		"src=0/workers=2/alias=true":    "137d028689f1aa1b walks=2916",
		"src=7/workers=1/alias=false":   "213f6c3d8e7a3980 walks=2845",
		"src=7/workers=1/alias=true":    "d272966caa6f9bf7 walks=2845",
		"src=7/workers=2/alias=false":   "a371919ad9fe878d walks=2845",
		"src=7/workers=2/alias=true":    "bb97927bf45298c8 walks=2845",
		"src=123/workers=1/alias=false": "554a46f37b7e4ebe walks=2900",
		"src=123/workers=1/alias=true":  "fbbfcc6d2182b269 walks=2900",
		"src=123/workers=2/alias=false": "2ac60ed2cf512b25 walks=2900",
		"src=123/workers=2/alias=true":  "c756859c00837372 walks=2900",
		"src=401/workers=1/alias=false": "89782c52c05a12ed walks=2923",
		"src=401/workers=1/alias=true":  "abad2059a19c844b walks=2923",
		"src=401/workers=2/alias=false": "d3d3356e4b04f19c walks=2923",
		"src=401/workers=2/alias=true":  "d912a208bfbc6542 walks=2923",
	}
	g := dataset.MustBuild("webstan-s", 0.05)
	p := algo.DefaultParams(g)
	tab := alias.Build(g, p.Alpha)
	for _, src := range []int32{0, 7, 123, 401} {
		for _, workers := range []int{1, 2} {
			for _, useAlias := range []bool{false, true} {
				s := Solver{Workers: workers}
				if useAlias {
					s.Alias = tab
				}
				pi, st, err := s.Query(g, src, p)
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
				key := fmt.Sprintf("src=%d/workers=%d/alias=%v", src, workers, useAlias)
				got := fmt.Sprintf("%016x walks=%d", h.Sum64(), st.Walks)
				if got != want[key] {
					t.Errorf("%s: got %q, want %q", key, got, want[key])
				}
			}
		}
	}
}
