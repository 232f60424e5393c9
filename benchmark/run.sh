#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the Go toolchain writes (build cache, temp
# files, telemetry counters) is kept under benchmark/.build/, which git and
# the go tool's ./... patterns both skip.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/benchmark/.build"
mkdir -p "$build/config/go/telemetry"
export GOCACHE="$build/go-cache" GOTMPDIR="$build" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
# With telemetry in its default "local" mode the go command starts a detached
# sidecar process (`go "** telemetry **"`, own session) the first time it sees
# a config directory, and that sidecar can outlive the go command - always
# when go fails at once, as in a directory without go.mod. The mode file is
# what `go telemetry off` writes; with it no sidecar is started.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
