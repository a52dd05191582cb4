#!/usr/bin/env bash
# The benchmark's one command. It builds sommperf once into .bench_build/
# at the root of the checkout (sources that did not change are not built
# again) and runs it with the arguments given:
#
#   bench/run.sh --workload ingest --seed 1 --seconds 24 --trace 0
#       one run of one workload, as the benchmark's driver makes them;
#       the last line of output is the result as one JSON object
#   bench/run.sh
#       the whole suite: every workload untraced, then every workload
#       traced, spans written to .bench_build/trace.jsonl
#   bench/run.sh --repeat 10 --sets 2
#       the noise study behind bench/NOISE.md
#
# Everything it writes (build cache, binary, scratch repositories, spans)
# goes under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/sommperf" ./cmd/sommperf)
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
run=("$build/sommperf" --tmp "$build/tmp" --commit "$commit")
cd "$root"
if [ "$#" -gt 0 ]; then
	exec "${run[@]}" "$@"
fi
"${run[@]}" --trace 0
exec "${run[@]}" --trace 1 --trace-out "$build/trace.jsonl"
