#!/usr/bin/env bash
# Builds e2ebench from the checkout it sits in and runs it with the given
# arguments, e.g.
#
#   bash e2ebench/run.sh --workload mixed --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build in the current
# directory): the Go build cache, temporary files and the WAL, snapshot
# and trace files of the run.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOPATH="$build/home/go" \
	GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --workdir "$build" "$@"
