#!/usr/bin/env bash
# Builds the benchmark and the wire server from this checkout's sources,
# then runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload regular-dense --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare DIR_A DIR_B
#
# Build outputs, the Go build cache and the per-run result files go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/bin" "$build/results" "$build/tmp"

export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTMPDIR=$build/tmp GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/saer-server" repro/cmd/saer-server) >&2

exec "$build/bin/perfbench" -server-bin "$build/bin/saer-server" -results "$build/results" "$@"
