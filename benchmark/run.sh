#!/usr/bin/env bash
# The benchmark's one command: build offline, run, check answers, print
# every metric by name with its unit.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--quick] [--runs N] [--out FILE]
#       every workload, each in its own process; `workload metric value unit`
#       lines on stdout and one record per run in FILE
#       (default benchmark/out/results.json). --runs N repeats each workload
#       under seeds N0..N0+N-1, which is what `compare` needs for a spread.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is its result as
#       JSON (the form the PR driver calls).
#   benchmark/run.sh compare A.json B.json
#       apply the bounds of BENCHMARK.json to two result files.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Cargo resolves a relative CARGO_TARGET_DIR against the working directory,
# and so does this script: neither changes directory.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/benchmark"

if [[ "${1:-}" == compare ]]; then
    shift
    exec "$bin" compare "$@" --bounds "$here/../BENCHMARK.json"
fi

seed=1 runs=1 trace=0 out="$here/out/results.json" single=0
pass=()
while (($#)); do
    case "$1" in
    --workload) single=1 pass+=("$1" "$2") && shift 2 ;;
    --seed) seed="$2" && shift 2 ;;
    --runs) runs="$2" && shift 2 ;;
    --out) out="$2" && shift 2 ;;
    --trace)
        trace=1
        if [[ "${2:-}" == [01] ]]; then trace="$2" && shift; fi
        shift
        ;;
    *) pass+=("$1") && shift ;;
    esac
done

if ((single)); then
    exec "$bin" "${pass[@]}" --seed "$seed" --trace "$trace" --out-dir "$here/out"
fi

mkdir -p "$(dirname "$out")"
records=()
failed=0
for workload in cold_sample exact_scan serve_cached remote_cold ingest_maintain; do
    for ((run = 0; run < runs; run++)); do
        s=$((seed + run))
        lines="$("$bin" --workload "$workload" --seed "$s" --trace "$trace" \
            --out-dir "$here/out" "${pass[@]}")"
        result="${lines##*$'\n'}"
        printf '%s\n' "${lines%$'\n'*}"
        records+=("{\"workload\":\"$workload\",\"seed\":$s,\"trace\":$trace,\"result\":$result}")
        [[ "$result" == '{"correct":true,'* ]] || failed=1
    done
done
{
    printf '[\n'
    for ((i = 0; i < ${#records[@]}; i++)); do
        printf '%s%s\n' "${records[$i]}" "$( ((i + 1 < ${#records[@]})) && printf ',')"
    done
    printf ']\n'
} >"$out"
echo "results written to $out" >&2
exit "$failed"
