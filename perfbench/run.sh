#!/usr/bin/env bash
# Builds the benchmark and dbiserved from this checkout's sources and
# runs one workload. Every build artifact and cache stays under
# .bench_build in the checkout root.
#
#   bash perfbench/run.sh --workload fig6-sweep --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=
go build -o "$out/bin/dbiserved" ./cmd/dbiserved >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -dbiserved "$out/bin/dbiserved" "$@"
