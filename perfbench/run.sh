#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
# Run from the repository root. Everything the build writes (the binary, the
# Go build cache, module and telemetry state) stays under .bench_build in the
# working directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
(
	cd perfbench
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
	go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
