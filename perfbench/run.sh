#!/usr/bin/env bash
# Builds the obfuscade binary and the benchmark from this checkout, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload matrix --seed 1 --seconds 40 --trace 0
#
# Every build artifact, Go cache and server cache directory stays under
# .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With telemetry on (the default "local" mode), the go command forks a
# detached telemetry process that outlives the build. Turn it off in the
# config directory above so every process this script starts ends with it.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/obfuscade" ./cmd/obfuscade
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -obfuscade "$out/obfuscade" -out "$out" "$@"
