#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it from the
# checkout root. Everything it writes stays under .bench_build/:
#   bash perfbench/run.sh --workload <oltp-long|matrix|served-short|all> \
#       --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench-bin" .) >&2
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
cd "$root"
exec "$out/perfbench-bin" --out .bench_build/perfbench --commit "$commit" "$@"
