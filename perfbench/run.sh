#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The build cache, the go command's
# config, temporary files and outputs stay under .bench_build/ (or
# $CARGO_TARGET_DIR when set); nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root; the program's sources are not here" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOMODCACHE=$build/gomodcache
# The go command keeps its settings and telemetry under the user config
# directory.
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .) >&2

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$build/perfbench/perfbench" -commit "$commit" -out "$build/perfbench" "$@"
