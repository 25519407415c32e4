#!/usr/bin/env bash
# Builds asofrig from source and runs one workload:
#   bash bench/run.sh --workload W --seed S --seconds N --trace 0|1
# Everything the build and the run write stays under bench/.build and
# bench/out. Run it from the repository root (the directory with go.mod).
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/bench/.build"
mkdir -p "$build/tmp"
# Keep the go tool's cache, temp files and config inside the checkout, and
# build without cgo: nothing measured needs it, and cgo wants a C compiler
# and writes to the system temp directory.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=auto CGO_ENABLED=0
# The go tool starts a detached telemetry child of itself that outlives it.
# Turn telemetry off in the config directory above, and tell the tool it is
# already that child's child, so that no process is left behind.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
export GO_TELEMETRY_CHILD=2
if [ ! -f go.mod ]; then
  echo "bench/run.sh: no go.mod in $PWD: the program's source is not here" >&2
  exit 1
fi
go build -o "$build/asofrig" ./bench/asofrig
exec "$build/asofrig" run "$@"
