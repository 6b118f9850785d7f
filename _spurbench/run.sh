#!/usr/bin/env bash
# Builds the benchmark from this checkout's source, then runs it with the
# given arguments, e.g.
#
#   bash _spurbench/run.sh --workload sweep-exact --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays in .bench_build at the
# repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
if [ ! -f go.mod ] || [ ! -f spur.go ]; then
  echo "spurbench: $root is not the repository root (no go.mod/spur.go)" >&2
  exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C "$here" -o "$build/spurbench" .
exec "$build/spurbench" "$@"
