#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on to the benchmark:
#
#   bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary and the Chrome trace of a traced run all live
# under .bench_build in the current directory, so a run writes nothing
# outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"

# Build output goes to stderr: the last line of stdout is the result.
env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false CGO_ENABLED=0 \
	go -C "$root/perfbench" build -o "$build/perfbench" . >&2

commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
exec "$build/perfbench" --commit "$commit" --out "$build" "$@"
