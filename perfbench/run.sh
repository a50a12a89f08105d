#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload serve-repeat --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, span files) stays under $CARGO_TARGET_DIR,
# default .bench_build, in the working directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod \
	GOTMPDIR=$out/tmp TMPDIR=$out/tmp HOME=$out/home XDG_CONFIG_HOME=$out/home/.config \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench.bin" .)
exec "$out/perfbench.bin" --out "$out/perfbench" "$@"
