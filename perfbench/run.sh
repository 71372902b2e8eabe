#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary and trace files live in .bench_build/ at
# the root, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the mlvfpga repository root (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi
if ! command -v go >/dev/null 2>&1; then
	echo "perfbench: the go toolchain is not on PATH" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTMPDIR="$out"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"
# The commit is recorded only when the root itself is a git checkout, not
# when some enclosing directory happens to be one.
MLV_BENCH_COMMIT=unknown
if [[ -e "$root/.git" ]]; then
	MLV_BENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
export MLV_BENCH_COMMIT

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" "$@"
