#!/usr/bin/env bash
# coverage.sh [seconds=4]
#
# Statement coverage of the product packages under the repository
# benchmark's four workloads and the paper experiments. Builds
# benchmark/ and cmd/lwcbench with
#
#     go build -cover -coverpkg=lwcomp/...
#
# into a temporary directory, runs scan-hot, point-cold, rows-stream
# and write-maintain for <seconds> each with GOCOVERDIR set (the
# benchmark re-executes itself as the lwcd child, which inherits the
# variable and writes its own counters), then every paper experiment
# once (`lwcbench -n 65536 -reps 1`) into counters of its own. It
# prints `go tool covdata percent` per package for the workloads alone
# and for the workloads plus the experiments, then the functions that
# neither ran. Only the Go toolchain is used. Read-only with respect to
# benchmark/: the binaries, the counters and the benchmark's scratch
# data all live in the temporary directory, removed on exit.
set -euo pipefail

seconds=${1:-4}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/workloads" "$tmp/experiments" "$tmp/work"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

(cd "$root/benchmark" && go build -cover -coverpkg=lwcomp/... -o "$tmp/lwcbenchmark" .)
(cd "$root" && go build -cover -coverpkg=lwcomp/... -o "$tmp/lwcbench" ./cmd/lwcbench)
for workload in scan-hot point-cold rows-stream write-maintain; do
	echo "running $workload for ${seconds}s" >&2
	(cd "$root" && GOCOVERDIR="$tmp/workloads" "$tmp/lwcbenchmark" -workdir "$tmp/work" \
		-workload "$workload" -seconds "$seconds" >/dev/null)
done
echo "running the paper experiments" >&2
(cd "$tmp/work" && GOCOVERDIR="$tmp/experiments" "$tmp/lwcbench" -n 65536 -reps 1 >/dev/null)

echo "workloads:"
go tool covdata percent -i "$tmp/workloads"
echo
echo "workloads and paper experiments:"
go tool covdata percent -i "$tmp/workloads,$tmp/experiments"
echo
echo "functions that never ran:"
go tool covdata textfmt -i "$tmp/workloads,$tmp/experiments" -o "$tmp/profile.txt"
# A plain grep for 0.0% also matches 100.0%: select on the last field.
(cd "$root/benchmark" && go tool cover -func "$tmp/profile.txt") | awk '$NF == "0.0%"'
