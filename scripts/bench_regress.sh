#!/usr/bin/env sh
# bench_regress.sh — guard the engine's event throughput against silent
# regressions.
#
# Usage: scripts/bench_regress.sh
#
# Re-runs the engine benchmarks (the ones that report events/s) and
# compares the best of three short runs against the newest committed
# BENCH_PR<N>.json snapshot. A benchmark that lands more than
# REGRESS_TOLERANCE percent (default 20) below its committed events/s
# fails the script. The tolerance is deliberately loose: CI runners and
# laptops are noisy, and the gate exists to catch structural regressions
# (an accidental O(n) scan, a lost fast path), not single-digit drift —
# the committed BENCH snapshots track that (see EXPERIMENTS.md).
set -eu

cd "$(dirname "$0")/.."

TOL="${REGRESS_TOLERANCE:-20}"

# Newest committed snapshot by PR number (lexical sort would put PR10
# before PR9).
BASE=""
BASEN=-1
for f in BENCH_PR*.json; do
	[ -e "$f" ] || continue
	n="$(printf '%s' "$f" | sed 's/[^0-9]//g')"
	[ -n "$n" ] || continue
	if [ "$n" -gt "$BASEN" ]; then
		BASEN="$n"
		BASE="$f"
	fi
done
if [ -z "$BASE" ]; then
	echo "bench_regress: no committed BENCH_PR*.json baseline; nothing to compare" >&2
	exit 0
fi
echo "bench_regress: comparing against $BASE (tolerance ${TOL}%)"

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

bench() {
	out="$(go test -run '^$' -bench "$1" -benchtime=1s -count=3 "$2")" || {
		echo "bench_regress: benchmark run failed in $2:" >&2
		printf '%s\n' "$out" >&2
		exit 1
	}
	printf '%s\n' "$out" | grep '^Benchmark' >>"$TMP" || true
}

bench 'BenchmarkScaleout64Engine$' .
bench 'BenchmarkEngineTypedEvents$' ./internal/sim

fail=0
for name in BenchmarkScaleout64Engine BenchmarkEngineTypedEvents; do
	# Best (highest) events/s over the repeated runs.
	cur="$(awk -v n="$name" '
		$1 ~ ("^" n "(-[0-9]+)?$") {
			for (i = 3; i + 1 <= NF; i += 2)
				if ($(i + 1) == "events/s" && $i + 0 > best) best = $i + 0
		}
		END { print best + 0 }
	' "$TMP")"
	# Committed events/s from the snapshot's one-line-per-benchmark JSON.
	base="$(awk -v n="$name" '
		index($0, "\"" n "\"") && match($0, /"events\/s": [0-9.e+]+/) {
			s = substr($0, RSTART, RLENGTH)
			sub(/.*: /, "", s)
			print s
			exit
		}
	' "$BASE")"
	if [ -z "$base" ]; then
		echo "  $name: no events/s in $BASE; skipping"
		continue
	fi
	if [ "$cur" = 0 ]; then
		echo "  $name: benchmark produced no events/s metric" >&2
		fail=1
		continue
	fi
	verdict="$(awk -v c="$cur" -v b="$base" -v t="$TOL" 'BEGIN {
		floor = b * (100 - t) / 100
		printf "%.1f%% of baseline (%d vs %d, floor %d) %s", 100 * c / b, c, b, floor, (c >= floor ? "ok" : "REGRESSION")
	}')"
	echo "  $name: $verdict"
	case "$verdict" in
	*REGRESSION) fail=1 ;;
	esac
done

if [ "$fail" != 0 ]; then
	echo "bench_regress: engine throughput regressed more than ${TOL}% vs $BASE" >&2
	exit 1
fi
echo "bench_regress: all engine benchmarks within ${TOL}% of $BASE"
