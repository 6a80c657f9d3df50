#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it. Run from
# the root of a checkout, for example:
#
#   bash perfbench/run.sh --workload sim-websearch --seed 1 --seconds 20 --trace 0
#
# --workload all runs every workload in turn, each in its own process, and
# exits non-zero if any of them fails its output checks.
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
unset GOMAXPROCS
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
args=("$@")
for i in "${!args[@]}"; do
	if [[ ${args[i]} == --workload && ${args[i+1]:-} == all ]]; then
		status=0
		for w in sim-websearch sim-k16-storm dp-small dp-mtu; do
			args[i+1]=$w
			"$out/perfbench" "${args[@]}" || status=1
		done
		exit $status
	fi
done
exec "$out/perfbench" "$@"
