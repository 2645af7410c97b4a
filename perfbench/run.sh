#!/usr/bin/env bash
# Builds the benchmark and the ecod daemon from this checkout's sources
# and runs one benchmark workload:
#
#   bash perfbench/run.sh --workload table1-sat --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --selfcheck
#
# Run it from the repository root. Every build artifact, Go cache and
# scratch file stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp" "$out/bin"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

# The checkout the benchmark runs in need not be a git repository; the
# commit is recorded when it is one.
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
export PERFBENCH_GIT_COMMIT="$commit"

(cd "$root" && go build -o "$out/bin/ecod" ./cmd/ecod) >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$root" -ecod "$out/bin/ecod" "$@"
