#!/usr/bin/env bash
# Builds the service benchmark from this checkout and runs it. Run from the
# repository root; arguments pass through to the benchmark, e.g.
#
#   bash svcbench/run.sh --workload steer-local --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and trace stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/webui || ! -f svcbench/go.mod ]]; then
	echo "svcbench: run from the root of a RICSA checkout (go.mod, internal/ and svcbench/ needed)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"

(cd svcbench && go build -o "$out/bin/svcbench" .)
exec "$out/bin/svcbench" "$@"
