#!/usr/bin/env bash
# flowsbench entry point. Run from the repository root.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload (the BENCHMARK.json contract): builds if
#       needed, runs it in a fresh process under a hard timeout, and leaves
#       the result object as the last line of stdout.
#   benchmark/run.sh [--seed N] [--seconds S]
#       all five workloads, one fresh process each; every metric printed as
#       `name unit value [q1 q3 n]`, results in benchmark/out/results.json.
#   benchmark/run.sh trace [--seed N] [--seconds S]
#       the same, traced: per-layer metrics and benchmark/out/<w>.trace.json.
#   benchmark/run.sh --quick
#       a smoke run of everything in under 20 s. Not reportable.
#
# Exit status: 0 all verified; 1 a check failed or a run timed out; 2 usage,
# or a loaded host (suite modes refuse to report when the 1-minute load
# average exceeds nproc).
set -u -o pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root" || exit 2

# The harness sets CARGO_TARGET_DIR; on its own the build goes under the
# root's already-ignored /target.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/flowsbench}"
bin="$CARGO_TARGET_DIR/release/flowsbench"
workloads=(sessions msgmix xproc btmz heal)
# A run measures for --seconds and needs set-up, verification and (traced)
# the ladder on top; nothing legitimate takes this long.
hard_timeout=170

build() {
    # Quiet unless it fails: stdout belongs to the results.
    local log
    if ! log="$(cargo build --offline --release --manifest-path "$here/Cargo.toml" 2>&1)"; then
        printf '%s\n' "$log" >&2
        echo "flowsbench: build failed" >&2
        exit 1
    fi
}

# One workload in a fresh process. `timeout` puts it in a process group of
# its own and kills the whole group (xproc's child included) on expiry.
run_one() {
    mkdir -p "$here/out"
    timeout --signal=KILL "$hard_timeout" "$bin" run "$@"
    local rc=$?
    if [ "$rc" -eq 137 ]; then
        # Killed: whatever it was doing is unfinished. Clear the flows-net
        # session directories it may have left and say so in the contract's
        # own terms, so a hang is a counted failure and not a missing row.
        rm -rf "$here"/out/session-*
        echo "FAILED CHECK: run exceeded ${hard_timeout}s and was killed"
        echo '{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}'
        return 1
    fi
    return "$rc"
}

suite() {
    local trace="$1" seconds="$2" seed="$3" label="$4"
    shift 4
    mkdir -p "$here/out"
    local status=0 first=1 results="$here/out/results${label}.json" w
    printf '{"host": "%s", "trace": %s, "seed": "%s", "seconds": %s, "runs": {\n' \
        "$(uname -srm)" "$trace" "$seed" "$seconds" >"$results"
    for w in "${workloads[@]}"; do
        local extra=()
        # Only before the first workload: after it, the suite's own runs
        # are what keeps the load average up.
        [ "$first" -eq 1 ] && extra=(--refuse-if-loaded)
        echo "== $w"
        run_one --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" "${extra[@]}" "$@" \
            | tee "$here/out/$w${label}.txt"
        local rc=${PIPESTATUS[0]}
        [ "$rc" -eq 2 ] && exit 2
        [ "$rc" -ne 0 ] && status=1
        [ "$first" -eq 1 ] || printf ',\n' >>"$results"
        # Each row carries the host facts its run printed.
        printf '"%s": {"host": "%s", "result": %s}' "$w" \
            "$(sed -n 's/^# host //p' "$here/out/$w${label}.txt" | sed 's/["\\]/\\&/g')" \
            "$(tail -n 1 "$here/out/$w${label}.txt")" >>"$results"
        first=0
    done
    printf '\n}}\n' >>"$results"
    echo "== results in ${results#"$root"/}"
    return "$status"
}

seed=0xF10E5
seconds=20
mode=suite
trace=0
label=""
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) mode=one; pass+=("$1" "$2"); shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        trace) trace=1; shift ;;
        --quick) mode=quick; shift ;;
        -h | --help) sed -n '2,20p' "${BASH_SOURCE[0]}"; exit 0 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

build
case "$mode" in
    one) run_one "${pass[@]}" --seed "$seed" --seconds "$seconds" --trace "$trace" ;;
    suite) suite "$trace" "$seconds" "$seed" "$label" ;;
    quick)
        echo "== quick smoke: NOT REPORTABLE (2 s per workload, one set-up)"
        suite 0 2 "$seed" ".quick" --setups 1
        rc=$?
        echo "== quick smoke: not reportable"
        exit "$rc"
        ;;
esac
