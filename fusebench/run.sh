#!/usr/bin/env bash
# Builds fusebench from this checkout's sources and runs it from the
# checkout root, passing every argument through:
#
#	bash fusebench/run.sh --workload cold-mix --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, temporary spool/journal directories
# and traced-run span files all stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/fusebench" && go build -o "$build/fusebench" .)
cd "$root"
exec "$build/fusebench" --workdir "$build" "$@"
