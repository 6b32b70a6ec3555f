#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the harness (this directory's own module) and cmd/flexserve from
# the checkout's source into .bench_build/, keeping the Go build cache there
# too so nothing is written outside the checkout, then runs the harness.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
# The go command keeps its telemetry counters and its env file under the
# user's configuration directory; that goes into the checkout as well.
export XDG_CONFIG_HOME="$build/config"
# WAL directories and snapshots go where os.TempDir points: on the checkout's
# filesystem, not on a /tmp that may be memory-backed and make fsync free.
export TMPDIR="$build/tmp"
# Two cores is what the reference box has; pinning it keeps Collection.Search's
# default fan-out and the server's scheduler the same everywhere.
export GOMAXPROCS=2

(cd "$root/bench" && go build -o "$build/bin/flexmark" ./flexmark \
	&& go build -o "$build/bin/flexserve" flexpath/cmd/flexserve) >&2

exec "$build/bin/flexmark" -flexserve "$build/bin/flexserve" "$@"
