#!/usr/bin/env bash
# A/A check: two sets of runs of the same commit. Each set holds every
# workload `--runs` times (default 3); the sets alternate run by run, and the
# order of the workloads alternates with them. Prints, per metric and
# workload, the two sets' medians, how much worse the second is, and the
# bound BENCHMARK.json fixes; exits 1 if any end-to-end pair disagrees by
# more than its bound. The builder's output is committed in AA.md.
#
#   benchmark/aa.sh [--runs N] [--seconds S] [--seed N]
set -u -o pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$(dirname "$here")" || exit 2

runs=3
seconds=20
seed=0xF10E5
while [ $# -gt 0 ]; do
    case "$1" in
        --runs) runs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        *) echo "aa.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

mkdir -p "$here/out"
forward=(sessions msgmix xproc btmz heal)
backward=(heal btmz xproc msgmix sessions)
status=0
one_pass() { # label, workloads...
    local label="$1" w
    shift
    for w in "$@"; do
        echo "== set $label: $w" >&2
        "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
            >>"$here/out/aa.$label.txt" || status=1
    done
}
: >"$here/out/aa.a.txt"
: >"$here/out/aa.b.txt"
for _ in $(seq "$runs"); do
    one_pass a "${forward[@]}"
    one_pass b "${backward[@]}"
done

bin="${CARGO_TARGET_DIR:-$PWD/target/flowsbench}/release/flowsbench"
echo "A/A on $(uname -srm), seed $seed, $runs runs of $seconds s per workload and set:"
echo
"$bin" compare "$here/out/aa.a.txt" "$here/out/aa.b.txt" || status=1
exit "$status"
