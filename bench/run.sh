#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments, from any working directory. Everything it writes — the build
# cache, the binary, temporary trace and span files — stays under the
# checkout's build directory (CARGO_TARGET_DIR when the driver sets it,
# .bench_build otherwise), which .gitignore names.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off
export TMPDIR="$build/tmp"

# The build output goes to standard error so the result stays the last line
# of standard output.
(cd "$here" && go build -o "$build/commprof-bench" .) >&2
cd "$root"
exec "$build/commprof-bench" "$@"
