#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under the output directory
# ($CARGO_TARGET_DIR, default .bench_build, relative to the checkout root):
# the Go build cache, the benchmark binary and the span files of traced runs.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
bin="$out/perfbench"
(cd "$root/perfbench" && go build -o "$bin.tmp.$$" .) >&2
mv -f "$bin.tmp.$$" "$bin"
cd "$root"
exec "$bin" -out "$out" "$@"
