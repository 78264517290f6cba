#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#	bash perfbench/run.sh --workload qaoa-dist --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build products, the Go build cache and
# the per-run temporary directories all live under .bench_build (or
# $CARGO_TARGET_DIR when set), so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
# The Go caches and the toolchain's config and telemetry files go there too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
