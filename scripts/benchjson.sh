#!/usr/bin/env sh
# benchjson.sh — run the query-path benchmarks and emit BENCH_resacc.json:
# ns/op, B/op and allocs/op per benchmark in a stable machine-readable
# shape, paired with the committed pre-pooling baseline
# (scripts/bench_baseline.json) so before/after allocation regressions are
# visible in one file. CI uploads the result as a build artifact.
#
# The script is also the performance regression gate: after measuring, it
# compares every tracked benchmark's ns_per_op against the committed
# BENCH_resacc.json "current" section and exits non-zero when any row got
# more than 10% slower (override with BENCH_TOLERANCE_PCT). Each benchmark
# runs -count=5 and the row with the minimum ns/op is kept: the minimum is
# the noise-robust estimator (scheduler hiccups only ever inflate a run,
# while a real regression raises every sample), so shared-tenancy jitter does
# not flap the gate. Every row also records noise_pct — the within-run
# spread (max/min − 1) across the samples — and the gate widens its
# tolerance to the larger of the two runs' spreads (capped at 50%): on a
# machine that demonstrably cannot measure better than ±N%, failing a
# sub-N% delta would be reporting the host's scheduler, not the code.
# A row that still trips the widened gate is re-measured once in
# isolation before failing the job: a multi-second host burst that
# swallowed the whole first sampling window does not reproduce minutes
# later, while a real regression does. Sub-microsecond benchmarks run a
# separate pass with a real iteration
# count; at -benchtime 10x they time the harness, not the walk. Rows listed in
# scripts/bench_allowlist.txt are reported but never fail the job; rows
# present on only one side (a new benchmark) are ignored.
# Set BENCH_GATE=off when intentionally re-baselining the committed file.
#
# Usage: scripts/benchjson.sh [output.json]
set -eu
cd "$(dirname "$0")/.."
out=${1:-BENCH_resacc.json}
filter='^BenchmarkQueryTable3/(dblp-s|webstan-s)/(resacc|fora)$|^BenchmarkForwardPush$|^BenchmarkHHopFWDPhase(NoSweep)?$|^BenchmarkRemedyPhase$|^BenchmarkQueryPooledRepeat$|^BenchmarkQueryTopK$|^BenchmarkLiveWriteMix$'
microfilter='^BenchmarkRandomWalk$'

tmp=$(mktemp)
ref=$(mktemp)
recheck=$(mktemp)
trap 'rm -f "$tmp" "$ref" "$recheck"' EXIT
# Snapshot the committed numbers before $out (usually the same file) is
# overwritten.
if [ -f BENCH_resacc.json ]; then
	cp BENCH_resacc.json "$ref"
fi

go test -run '^$' -bench "$filter" -benchmem -benchtime 10x -count=5 . | tee "$tmp" 1>&2
go test -run '^$' -bench "$microfilter" -benchmem -benchtime 5000x -count=5 . | tee -a "$tmp" 1>&2

{
	printf '{\n  "baseline": %s,\n  "current": {\n' \
		"$(sed 's/^/  /' scripts/bench_baseline.json | sed '1s/^  //')"
	# Unit-aware: a benchmark line is "Name-P N  v1 u1  v2 u2 ...". The
	# canonical units keep their historical JSON keys; custom units from
	# b.ReportMetric (e.g. edges/s) become sanitized keys, so positional
	# assumptions never mis-pair value and unit. With -count>1 each name
	# repeats; the fastest (min ns/op) row of each is emitted, plus the
	# within-run spread across the repeats as noise_pct.
	awk '
	/^Benchmark/ && /ns\/op/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		line = sprintf("      {\"name\": \"%s\"", name)
		ns = -1
		for (i = 3; i < NF; i += 2) {
			unit = $(i + 1)
			if (unit == "ns/op") { key = "ns_per_op"; ns = $i + 0 }
			else if (unit == "B/op") key = "bytes_per_op"
			else if (unit == "allocs/op") key = "allocs_per_op"
			else { key = unit; gsub(/\//, "_per_", key); gsub(/[^A-Za-z0-9_]/, "_", key) }
			line = line sprintf(", \"%s\": %s", key, $i)
		}
		if (!(name in best)) {
			order[++n] = name
			best[name] = line; minns[name] = ns; maxns[name] = ns
		} else {
			if (ns >= 0 && ns < minns[name]) { best[name] = line; minns[name] = ns }
			if (ns > maxns[name]) maxns[name] = ns
		}
	}
	END {
		for (i = 1; i <= n; i++) {
			name = order[i]
			noise = 0
			if (minns[name] > 0) noise = (maxns[name] / minns[name] - 1) * 100
			entries = entries sep best[name] sprintf(", \"noise_pct\": %.1f}", noise)
			sep = ",\n"
		}
		printf "    \"benchmarks\": [\n%s\n    ]\n", entries
	}
	' "$tmp"
	printf '  }\n}\n'
} > "$out"
echo "wrote $out" 1>&2

if [ "${BENCH_GATE:-on}" = "off" ]; then
	echo "benchjson: regression gate disabled (BENCH_GATE=off)" 1>&2
	exit 0
fi
if ! [ -s "$ref" ]; then
	echo "benchjson: no committed BENCH_resacc.json to gate against; skipping" 1>&2
	exit 0
fi

# Gate: name -> ns_per_op of the committed "current" section vs the run we
# just measured. The committed file is machine-written, one benchmark
# object per line, so line-oriented awk is enough — no JSON parser needed.
awk -v tol="${BENCH_TOLERANCE_PCT:-10}" -v allow=scripts/bench_allowlist.txt '
function parse(line) { # sets pname/pns/pnoise; returns 1 when the line is a row
	if (match(line, /"name": "[^"]+"/) == 0) return 0
	pname = substr(line, RSTART + 9, RLENGTH - 10)
	if (match(line, /"ns_per_op": [0-9.eE+-]+/) == 0) return 0
	pns = substr(line, RSTART + 13, RLENGTH - 13) + 0
	pnoise = 0 # absent in baselines written before noise tracking
	if (match(line, /"noise_pct": [0-9.eE+-]+/))
		pnoise = substr(line, RSTART + 13, RLENGTH - 13) + 0
	return 1
}
BEGIN {
	while ((getline line < allow) > 0) {
		sub(/#.*/, "", line)
		gsub(/^[ \t]+/, "", line)
		gsub(/[ \t]+$/, "", line)
		if (line != "") allowed[line] = 1
	}
	close(allow)
	fails = 0
}
FNR == 1 { filenum++; incur = 0 }
/"current"/ { incur = 1 }
filenum == 1 { if (incur && parse($0)) { ref[pname] = pns; refnoise[pname] = pnoise }; next }
{ if (incur && parse($0)) { cur[pname] = pns; curnoise[pname] = pnoise } }
END {
	for (name in cur) {
		if (!(name in ref) || ref[name] <= 0) continue
		pct = (cur[name] / ref[name] - 1) * 100
		# Widen the tolerance to the measured within-run spread of either
		# side (capped): a delta inside what this host jitters by on
		# identical code is the scheduler talking, not a regression.
		eff = tol
		if (refnoise[name] > eff) eff = refnoise[name]
		if (curnoise[name] > eff) eff = curnoise[name]
		if (eff > 50) eff = 50
		if (pct <= eff) continue
		if (name in allowed) {
			printf "benchjson: ALLOWED regression %s: %.0f -> %.0f ns/op (+%.1f%%)\n", \
				name, ref[name], cur[name], pct > "/dev/stderr"
			continue
		}
		printf "benchjson: SUSPECT %s regressed %.0f -> %.0f ns/op (+%.1f%% > %.0f%%), re-measuring\n", \
			name, ref[name], cur[name], pct, eff > "/dev/stderr"
		printf "%s %.0f %.0f\n", name, ref[name], eff
	}
}
' "$ref" "$out" > "$recheck"

if ! [ -s "$recheck" ]; then
	echo "benchjson: regression gate passed" 1>&2
	exit 0
fi

# Second opinion for each suspect row, measured in isolation. The first
# window for that row may have sat entirely inside a host-load burst; the
# re-measure happens minutes later and only confirms regressions that
# persist.
fails=0
while read -r name refns eff; do
	bt=10x
	case $name in BenchmarkRandomWalk*) bt=5000x ;; esac
	cur=$(go test -run '^$' -bench "^${name}\$" -benchtime "$bt" -count=5 . |
		awk '/^Benchmark/ && /ns\/op/ {
			for (i = 3; i < NF; i += 2)
				if ($(i+1) == "ns/op" && (m == 0 || $i + 0 < m)) m = $i + 0
		} END { printf "%.0f", m }')
	if [ -z "$cur" ] || [ "$cur" = "0" ]; then
		echo "benchjson: FAIL $name: re-measure produced no sample" 1>&2
		fails=$((fails + 1))
		continue
	fi
	verdict=$(awk -v c="$cur" -v r="$refns" -v e="$eff" 'BEGIN {
		pct = (c / r - 1) * 100
		printf "%+.1f %s", pct, (pct <= e ? "ok" : "fail")
	}')
	pct=${verdict% *}
	if [ "${verdict#* }" = "ok" ]; then
		echo "benchjson: $name re-measured clean: $refns -> $cur ns/op ($pct% <= $eff%), transient host noise" 1>&2
	else
		echo "benchjson: FAIL $name regressed $refns -> $cur ns/op ($pct% > $eff%) on re-measure" 1>&2
		fails=$((fails + 1))
	fi
done < "$recheck"

if [ "$fails" -gt 0 ]; then
	echo "benchjson: $fails tracked benchmark(s) regressed; re-baseline intentionally with BENCH_GATE=off" 1>&2
	exit 1
fi
echo "benchjson: regression gate passed" 1>&2
