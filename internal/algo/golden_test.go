package algo_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"resacc/internal/algo"
	"resacc/internal/algo/fora"
	"resacc/internal/algo/forward"
	"resacc/internal/algo/topppr"
	"resacc/internal/dataset"
)

// TestBaselineGoldenHashes pins the exact output of the baselines that
// finish with the remedy phase — FORA (uncapped and under a MaxWalks cap),
// FORA+ and TopPPR in two configurations — and of the FWD baseline at the
// paper's r_max = 1e-12, as an FNV-64a hash over the Float64bits of every
// score, per (dataset, algorithm, source). Any change
// to push order, float summation order, walk planning or rng consumption
// moves a hash. The values are amd64's: other architectures may fuse
// multiply-adds and round differently.
func TestBaselineGoldenHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are recorded on amd64, not %s", runtime.GOARCH)
	}
	want := map[string]string{
		"webstan-s/fora/src=0":                "7979faf58e28ef9b",
		"webstan-s/fora/src=7":                "8f5a58e1fdc8f98f",
		"webstan-s/fora/src=123":              "a8fafed0d7465e87",
		"webstan-s/fora/src=401":              "6f13e096b5686459",
		"webstan-s/fora/maxwalks=100/src=0":   "0c78cb23d6e9abeb",
		"webstan-s/fora/maxwalks=100/src=7":   "5783750f1947676e",
		"webstan-s/fora/maxwalks=100/src=123": "55e64dc48111fa24",
		"webstan-s/fora/maxwalks=100/src=401": "5fffb67ca6c5d294",
		"webstan-s/fora+/src=0":               "c5ff06c1b583be02",
		"webstan-s/fora+/src=7":               "338ece52a0789def",
		"webstan-s/fora+/src=123":             "a46f0c09b1a2a3c4",
		"webstan-s/fora+/src=401":             "06a5ea3f108b0dde",
		"webstan-s/topppr/src=0":              "11c8b4606762fef2",
		"webstan-s/topppr/src=7":              "a8fc5d5415fb027b",
		"webstan-s/topppr/src=123":            "0618a7b4c88e8edb",
		"webstan-s/topppr/src=401":            "659971b2f408df7b",
		"webstan-s/topppr/k=20/src=0":         "4fd3983ede7b1cce",
		"webstan-s/topppr/k=20/src=7":         "739e12e4277f2ba5",
		"webstan-s/topppr/k=20/src=123":       "4e16ea6de5037222",
		"webstan-s/topppr/k=20/src=401":       "3791b8026f414526",
		"webstan-s/fwd/src=0":                 "98c0abc9a1f808b2",
		"webstan-s/fwd/src=7":                 "5d602dc5d6d5cdce",
		"webstan-s/fwd/src=123":               "bafe680daae61bf7",
		"webstan-s/fwd/src=401":               "a665505d6e5c4365",
		"dblp-s/fora/src=0":                   "ae9eabe5a3375477",
		"dblp-s/fora/src=7":                   "fd18b8ca60d9acb4",
		"dblp-s/fora/src=123":                 "d679d0b8512e50c6",
		"dblp-s/fora/src=401":                 "2487e71fce1b4bb0",
		"dblp-s/fora/maxwalks=100/src=0":      "d1c8c6390ef815f3",
		"dblp-s/fora/maxwalks=100/src=7":      "1664ced95b4bb8a0",
		"dblp-s/fora/maxwalks=100/src=123":    "817ce60771b22451",
		"dblp-s/fora/maxwalks=100/src=401":    "f7767b14108aa2e1",
		"dblp-s/fora+/src=0":                  "7af7a6bef492d383",
		"dblp-s/fora+/src=7":                  "c16d644496d9981e",
		"dblp-s/fora+/src=123":                "d0d335393dbe89db",
		"dblp-s/fora+/src=401":                "d81aa66707feaaf8",
		"dblp-s/topppr/src=0":                 "c79fbb2dcbf1125c",
		"dblp-s/topppr/src=7":                 "ec7819a6cbade188",
		"dblp-s/topppr/src=123":               "244ec8674730ec73",
		"dblp-s/topppr/src=401":               "07cd20db30f85993",
		"dblp-s/topppr/k=20/src=0":            "30fcb64128c6d4c7",
		"dblp-s/topppr/k=20/src=7":            "dfbd494cdf7c9010",
		"dblp-s/topppr/k=20/src=123":          "0d9ba1a8c11cbb3b",
		"dblp-s/topppr/k=20/src=401":          "9e41ba69243a1ab9",
		"dblp-s/fwd/src=0":                    "953219f98900477f",
		"dblp-s/fwd/src=7":                    "081ff95155dbf298",
		"dblp-s/fwd/src=123":                  "ee183a447fb4034f",
		"dblp-s/fwd/src=401":                  "7682faa9ed81a86a",
	}
	for _, ds := range []string{"webstan-s", "dblp-s"} {
		g := dataset.MustBuild(ds, 0.05)
		p := algo.DefaultParams(g)
		capped := p
		capped.MaxWalks = 100
		ix, err := fora.BuildIndex(g, p, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		runs := []struct {
			name string
			s    algo.SingleSource
			p    algo.Params
		}{
			{"fora", fora.Solver{}, p},
			{"fora/maxwalks=100", fora.Solver{}, capped},
			{"fora+", fora.PlusSolver{Index: ix}, p},
			{"topppr", topppr.Solver{}, p},
			{"topppr/k=20", topppr.Solver{K: 20, MaxCandidates: 32, RMaxB: 1e-3}, p},
			{"fwd", forward.Solver{RMax: 1e-12}, p},
		}
		for _, run := range runs {
			for _, src := range []int32{0, 7, 123, 401} {
				pi, err := run.s.SingleSource(g, src, run.p)
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
				key := fmt.Sprintf("%s/%s/src=%d", ds, run.name, src)
				got := fmt.Sprintf("%016x", h.Sum64())
				if got != want[key] {
					t.Errorf("%s: got %q, want %q", key, got, want[key])
				}
			}
		}
	}
}
