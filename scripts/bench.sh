#!/usr/bin/env sh
# bench.sh — run the simulator perf benchmarks and emit BENCH_<TAG>.json.
#
# Usage: scripts/bench.sh TAG          (e.g. scripts/bench.sh PR9)
#
# Each benchmark runs -count=5 and the snapshot records the best run
# (lowest ns/op): committed numbers are throughput claims, and the minimum
# over repeated runs is the standard way to strip scheduler/thermal noise
# from them. The JSON holds one entry per benchmark with every metric Go
# reported for that best run (ns/op, events/s, B/op, allocs/op, ...). See
# EXPERIMENTS.md for the workflow; BENCH_PR<N>.json is the committed
# snapshot of PR N.
set -eu

if [ $# -lt 1 ] || [ -z "$1" ]; then
	echo "usage: scripts/bench.sh TAG   (writes BENCH_<TAG>.json, e.g. scripts/bench.sh PR9)" >&2
	exit 2
fi

TAG="$1"
OUT="BENCH_${TAG}.json"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

cd "$(dirname "$0")/.."

run() {
	# A broken benchmark must fail the run, not silently vanish from the
	# snapshot; only the no-matching-lines grep is tolerated.
	out="$(go test -run '^$' -bench "$1" -benchtime=3s -count=5 -benchmem "$2")" || {
		echo "bench failed in $2:" >&2
		printf '%s\n' "$out" >&2
		exit 1
	}
	printf '%s\n' "$out" | grep '^Benchmark' >>"$TMP" || true
}

run 'BenchmarkScaleout64Engine$|BenchmarkSimulatedSchedulerThroughput$' .
run 'BenchmarkEventThroughput$|BenchmarkEngineTypedEvents$' ./internal/sim
run 'BenchmarkDurationConstant$|BenchmarkDurationDVFS$' ./internal/machine
run 'BenchmarkServiceCacheHit$|BenchmarkServiceColdRun$|BenchmarkShardDispatch$|BenchmarkCellAssemblyWarm$' ./internal/service
run 'BenchmarkImportDOT$|BenchmarkBuildCholesky$|BenchmarkBuildCholeskyAmortized$' ./internal/dagio
run 'BenchmarkCompiledCellRun$|BenchmarkUncompiledCellRun$' ./internal/scenario
run 'BenchmarkMetricsHotPath$|BenchmarkCounterInc$|BenchmarkHistogramObserve$|BenchmarkWritePrometheus$' ./internal/obs

{
	printf '{\n'
	printf '  "tag": "%s",\n' "$TAG"
	printf '  "go": "%s",\n' "$(go version | sed 's/"/\\"/g')"
	printf '  "benchmarks": [\n'
	awk '
		# Keep, per benchmark, the repetition with the lowest ns/op.
		/^Benchmark/ {
			name = $1; sub(/-[0-9]+$/, "", name)
			ns = ""
			for (i = 3; i + 1 <= NF; i += 2) {
				if ($(i + 1) == "ns/op") ns = $i + 0
			}
			if (!(name in best) || (ns != "" && ns < bestNs[name])) {
				if (!(name in best)) order[++n] = name
				best[name] = $0
				bestNs[name] = ns
			}
		}
		END {
			for (k = 1; k <= n; k++) {
				$0 = best[order[k]]
				if (k > 1) printf ",\n"
				name = $1; sub(/-[0-9]+$/, "", name)
				printf "    {\"name\": \"%s\", \"iters\": %s, \"metrics\": {", name, $2
				sep = ""
				for (i = 3; i + 1 <= NF; i += 2) {
					printf "%s\"%s\": %s", sep, $(i + 1), $i
					sep = ", "
				}
				printf "}}"
			}
			printf "\n"
		}
	' "$TMP"
	printf '  ]\n}\n'
} >"$OUT"

echo "wrote $OUT"
