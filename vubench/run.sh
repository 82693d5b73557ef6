#!/usr/bin/env bash
# Builds vuserved and the benchmark from this checkout, then runs the
# benchmark with the given arguments:
#
#   bash vubench/run.sh --workload sp-small --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# server data directories and span files all go under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache"
export GOTMPDIR="${out}"
export GOPROXY=off
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPATH="${out}/gopath"
export XDG_CONFIG_HOME="${out}/config"
export XDG_CACHE_HOME="${out}/cache"
# With telemetry in its default "local" mode the go command starts a
# detached sidecar process that outlives it; switch it off for this
# private config directory so the benchmark leaves nothing running.
mkdir -p "${XDG_CONFIG_HOME}/go/telemetry"
printf 'off' > "${XDG_CONFIG_HOME}/go/telemetry/mode"
if [[ ! -f go.mod || ! -d cmd/vuserved ]]; then
  echo "vubench: run from the repository root (go.mod and cmd/vuserved not found)" >&2
  exit 1
fi
go build -o "${out}/vuserved" ./cmd/vuserved
(cd vubench && go build -o "${out}/vubench" .)
exec "${out}/vubench" -build "${out}" "$@"
