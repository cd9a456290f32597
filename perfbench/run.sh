#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload relay-small --seed 1 --seconds 20 --trace 0
#
# --trace 0 runs cmd/e2e, which imports only the public sonet package
# and prints the gated end-to-end metrics; --trace 1 runs cmd/traced,
# which also reaches the internal layers and prints the per-layer
# metrics. Only the runner asked for is built, so a change to an
# internal package can break the traced run but never the gated one.
# Build outputs and caches stay under .bench_build/ at the repository
# root, and the runner starts there.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"

runner=e2e
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	if [[ ${args[i]} == --trace && ${args[i + 1]:-0} != 0 ]]; then
		runner=traced
	fi
done

export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/$runner" "./cmd/$runner")
cd "$root"
exec "$out/$runner" "$@"
