#!/usr/bin/env bash
# Builds vup-server and the benchmark program from the checkout this is run
# in, then runs one workload. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload forecast-hot --seed 1 --seconds 10 --trace 0
#
# Every build product, fixture and per-run file goes under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/vup-server || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a vup checkout (go.mod and cmd/vup-server not found)" >&2
	exit 2
fi

work="$PWD/.bench_build"
mkdir -p "$work/bin" "$work/tmp"
# The go command's caches, temporary files and telemetry counters (kept
# under the user config directory) all stay inside the checkout.
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
export XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -o "$work/bin/vup-server" ./cmd/vup-server
(cd perfbench && go build -o "$work/bin/perfbench" .)
exec "$work/bin/perfbench" -server "$work/bin/vup-server" -work "$work" "$@"
