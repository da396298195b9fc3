#!/bin/sh
# A/A: two sets of runs of one build of one commit, fed to
# `benchmark compare`. Every workload is run ten times for each side,
# as the acceptance check of the benchmark does, the sides alternating
# (A B, B A, A B, ...) so that neither side always runs first after
# the other's cache and frequency state. Both sides use the same seed,
# so the exact metrics must be identical across all runs of a workload
# and every difference between the sides is the host's.
#
# Writes the runs under benchmark/benchmark-out/aa/{a,b}/ and the
# comparison to benchmark/results/aa.txt (about 45 minutes). Exits
# nonzero if any metric is judged `worse`.
set -eu
cd "$(dirname "$0")/.."

runs=10
seconds=30 # `run_seconds` of BENCHMARK.json
seed=1
out=benchmark/benchmark-out/aa
target=${CARGO_TARGET_DIR:-benchmark/target}

cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
bin=$target/release/benchmark

rm -rf "$out"
mkdir -p "$out/a" "$out/b"
for workload in trace_predict archive_scan archive_analyze serve_query; do
    k=1
    while [ "$k" -le "$runs" ]; do
        if [ $((k % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
        for side in $order; do
            "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
                > "$out/$side/$workload-$k.txt"
        done
        k=$((k + 1))
    done
done

{
    echo "# A/A of one build: $runs runs a side and workload, $seconds s each, seed $seed, sides alternating"
    grep -h -m 3 -e '^# host' -e '^# toolchain' -e '^# commit' "$out/a/trace_predict-1.txt"
    echo "# loadavg at start of the first run and at the end of the last:"
    grep -h '^# loadavg at start' "$out/a/trace_predict-1.txt"
    grep -h '^# loadavg at end' "$out/a/serve_query-$runs.txt" "$out/b/serve_query-$runs.txt" | tail -1
    echo
    "$bin" compare "$out/a" "$out/b"
} | tee benchmark/results/aa.txt
