#!/usr/bin/env bash
# Builds uflip and the perfbench driver from this checkout, then runs one
# workload of the repository benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload table3 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, temporary
# files, the binaries and each run's scratch directory (removed at exit).
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=

go build -o "$build/bin/uflip" ./cmd/uflip >&2
go build -o "$build/bin/perfbench" ./perfbench/cmd/perfbench >&2
exec "$build/bin/perfbench" -bin "$build/bin/uflip" -work "$build/work" "$@"
