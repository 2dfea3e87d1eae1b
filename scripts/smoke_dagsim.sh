#!/usr/bin/env sh
# smoke_dagsim.sh — build dagsim and smoke the DAG import/generate path:
#
#  1. import the bundled examples/dag/demo.dot, assert the run completes
#     a nonzero number of tasks and prints a fingerprint;
#  2. run it again and assert the fingerprint is bit-stable;
#  3. import the JSON twin (demo.json) and assert it reports the same
#     content digest — format and declaration order cannot change the
#     workload's identity;
#  4. generate a Cholesky DAG and assert its fingerprint is stable too;
#  5. rerun it traced (-explain -trace) and assert the same fingerprint, a
#     per-core time breakdown in the report, and a Chrome trace holding
#     process-name, task and counter entries.
#
# Used by CI (dagsim-smoke step) and runnable locally.
set -eu

cd "$(dirname "$0")/.."

BIN="${TMPDIR:-/tmp}/dagsim-smoke"
go build -o "$BIN" ./cmd/dagsim

run_fp() {
	# run_fp <args...>: run dagsim, print "<tasks> <digest> <fingerprint>".
	out="$("$BIN" "$@" -interfere dvfs -fingerprint)" || {
		echo "dagsim failed:" >&2
		printf '%s\n' "$out" >&2
		exit 1
	}
	tasks="$(printf '%s' "$out" | sed -n 's/.*tasks completed: \([0-9]*\).*/\1/p')"
	digest="$(printf '%s' "$out" | sed -n 's/.*digest \([0-9a-f]*\)).*/\1/p')"
	fp="$(printf '%s' "$out" | sed -n 's/^fingerprint: \([0-9a-f]*\)$/\1/p')"
	printf '%s %s %s' "${tasks:-0}" "${digest:-none}" "${fp:-none}"
}

# 1+2: imported DOT graph, nonzero tasks, stable fingerprint.
A="$(run_fp -dagfile examples/dag/demo.dot)"
B="$(run_fp -dagfile examples/dag/demo.dot)"
TASKS="${A%% *}"
[ "$TASKS" -ge 1 ] || { echo "imported run completed $TASKS tasks, want >= 1"; exit 1; }
[ "$A" = "$B" ] || { echo "imported-run fingerprint unstable: '$A' vs '$B'"; exit 1; }
echo "dot import OK: $TASKS tasks, fingerprint ${A##* }"

# 3: the JSON twin is the same workload (same content digest).
C="$(run_fp -dagfile examples/dag/demo.json)"
DIG_A="$(printf '%s' "$A" | cut -d' ' -f2)"
DIG_C="$(printf '%s' "$C" | cut -d' ' -f2)"
[ "$DIG_A" = "$DIG_C" ] || { echo "DOT and JSON digests differ: $DIG_A vs $DIG_C"; exit 1; }
[ "$A" = "$C" ] || { echo "DOT and JSON runs diverged: '$A' vs '$C'"; exit 1; }
echo "json twin OK: digest $DIG_C"

# 4: generated Cholesky DAG, stable fingerprint.
D="$(run_fp -gen cholesky -tiles 8)"
E="$(run_fp -gen cholesky -tiles 8)"
GTASKS="${D%% *}"
[ "$GTASKS" -eq 120 ] || { echo "cholesky T=8 completed $GTASKS tasks, want 120"; exit 1; }
[ "$D" = "$E" ] || { echo "generated-run fingerprint unstable: '$D' vs '$E'"; exit 1; }
echo "cholesky gen OK: $GTASKS tasks, fingerprint ${D##* }"

# 5: the traced path replays run D's schedule and renders it.
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
out="$("$BIN" -gen cholesky -tiles 8 -interfere dvfs -fingerprint -explain -trace "$TMP/sched.json")"
fp="$(printf '%s\n' "$out" | sed -n 's/^fingerprint: \([0-9a-f]*\)$/\1/p')"
[ "$fp" = "${D##* }" ] || { echo "traced fingerprint '$fp' differs from untraced '${D##* }'"; exit 1; }
printf '%s\n' "$out" | grep -q 'per-core time breakdown' || { echo "-explain printed no per-core time breakdown"; exit 1; }
for ph in M X C; do
	grep -q "\"ph\":\"$ph\"" "$TMP/sched.json" || { echo "trace holds no \"ph\":\"$ph\" entries"; exit 1; }
done
echo "traced run OK: fingerprint $fp"

echo "dagsim smoke OK"
