#!/usr/bin/env bash
# A/B driver for flowsbench: a base revision against the working tree, in
# interleaved pairs, with the host's steal and load recorded around every
# run. Run from anywhere inside the repository.
#
#   scripts/ab.sh REV [--pairs N] [--seconds S] [--workloads W...]
#                     [--seeds S...] [--trace] [--aligned] [--aa]
#
#   REV          the base: `git archive REV` is unpacked into target/ab/REV
#                and built there. The change side is this working tree,
#                frozen at start-up: its tracked files and its untracked
#                files that are not ignored are written as one git tree,
#                unpacked into target/ab/<tree hash> and built there, so
#                an edit made while the pairs run changes neither binary.
#                `scripts/ab.sh HEAD` on a clean tree is an A/A run.
#   --pairs      pairs per workload and seed (default 10). Pair i runs the
#                base first when i is odd and the change first when even.
#   --seconds    measured seconds per run (default 20).
#   --workloads  names, space- or comma-separated (default: all five).
#   --seeds      seeds, likewise (default: 0xF10E5 0x5EED2).
#   --trace      traced runs, which add the per-layer rungs.
#   --aligned    build both sides with every function 64-byte aligned
#                (-C llvm-args=-align-all-functions=6), so a move that
#                comes from code layout alone does not read as a change.
#   --aa         an A/A leg in the same invocation: every pair runs the
#                base binary a second time ("aa"), in the order base
#                change aa on odd pairs and aa change base on even ones,
#                so each two sides swap order every pair.
#
# For every (workload, seed) cell it prints, per metric, each side's median
# and quartiles, the change's gap to the base median, wins/N (pairs the
# change won, by BENCHMARK.json's "better"; "-" for metrics it does not
# list) and the base's IQR over its median; with --aa also the A/A gap (the
# second base run's median against the first's) and the A/A side's IQR over
# its median. It then appends one row per cell to BENCH_trajectory.json at
# the root, with nproc, the kernel, the steal share of the cell's runs and
# each side's tree hash and flowsbench SHA-256;
# with --aa a second row per cell, marked "aa": true, holds base against
# base. Raw run output stays under target/ab/runs.
#
# Exit status: 0 every run correct; 1 a run failed its check or timed out;
# 2 usage or build failure.
set -u -o pipefail

root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)" || exit 2
cd "$root" || exit 2

usage() { sed -n '2,42p' "${BASH_SOURCE[0]}"; exit 2; }
[ $# -ge 1 ] || usage
case "$1" in -h | --help) usage ;; esac
rev="$1"
shift

pairs=10
seconds=20
workloads=(sessions msgmix xproc btmz heal)
seeds=(0xF10E5 0x5EED2)
trace=0
aligned=0
aa=0
# Reads the values of a list option, up to the next option, into $list.
take_list() {
    list=()
    while [ $# -gt 0 ] && [ "${1#--}" = "$1" ]; do
        local IFS=','
        # shellcheck disable=SC2206 # split on commas on purpose
        list+=($1)
        shift
    done
    taken=$#
}
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --workloads) shift; take_list "$@"; shift $(($# - taken)); workloads=("${list[@]}") ;;
        --seeds) shift; take_list "$@"; shift $(($# - taken)); seeds=("${list[@]}") ;;
        --trace) trace=1; shift ;;
        --aligned) aligned=1; shift ;;
        --aa) aa=1; shift ;;
        -h | --help) usage ;;
        *) echo "ab.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
[ "${#workloads[@]}" -gt 0 ] && [ "${#seeds[@]}" -gt 0 ] || usage

base_sha="$(git rev-parse --verify -q "$rev^{commit}")" || {
    echo "ab.sh: $rev is not a commit" >&2
    exit 2
}
base_id="${base_sha:0:7}"
# The working tree as a git tree object, written through a scratch copy of
# the index so the real one is left alone.
index_copy="$(mktemp)"
cp "$(git rev-parse --git-path index)" "$index_copy" 2>/dev/null
change_tree="$(GIT_INDEX_FILE="$index_copy" git add -A && GIT_INDEX_FILE="$index_copy" git write-tree)"
rm -f "$index_copy"
[ -n "$change_tree" ] || { echo "ab.sh: cannot write the working tree" >&2; exit 2; }
base_tree="$(git rev-parse "$base_sha^{tree}")"
change_id="$(git rev-parse --short=7 HEAD)"
[ "$change_tree" = "$(git rev-parse "HEAD^{tree}")" ] || change_id="$change_id+worktree"

# Unpack a tree-ish into target/ab/<name> once; each side builds there.
unpack() { # tree-ish name
    local d="$root/target/ab/$2"
    if [ ! -f "$d/benchmark/run.sh" ]; then
        echo "== unpacking $2 into ${d#"$root"/}" >&2
        mkdir -p "$d"
        git archive "$1" | tar -x -C "$d" || exit 2
    fi
}
base_dir="$root/target/ab/$base_id"
change_dir="$root/target/ab/${change_tree:0:12}"
unpack "$base_sha" "$base_id"
unpack "$change_tree" "${change_tree:0:12}"

target_name=flowsbench
if [ "$aligned" -eq 1 ]; then
    export RUSTFLAGS="${RUSTFLAGS:+$RUSTFLAGS }-C llvm-args=-align-all-functions=6"
    target_name=flowsbench-aligned
fi
dir_of() { [ "$1" = change ] && echo "$change_dir" || echo "$base_dir"; }

for side in base change; do
    d="$(dir_of "$side")"
    echo "== building $side in ${d#"$root"/}" >&2
    if ! log="$(CARGO_TARGET_DIR="$d/target/$target_name" \
        cargo build --offline --release --manifest-path "$d/benchmark/Cargo.toml" 2>&1)"; then
        printf '%s\n' "$log" >&2
        echo "ab.sh: $side build failed" >&2
        exit 2
    fi
done
bin_sha() { sha256sum "$(dir_of "$1")/target/$target_name/release/flowsbench" | cut -d' ' -f1; }
base_bin="$(bin_sha base)"
change_bin="$(bin_sha change)"

runs_dir="$root/target/ab/runs/$(date -u +%Y%m%dT%H%M%SZ)-$base_id"
mkdir -p "$runs_dir"
status=0

# Direction per metric, from BENCHMARK.json: "name better" lines.
dirs="$runs_dir/better"
sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([a-z]*\)".*/\1 \2/p' BENCHMARK.json >"$dirs"

# Host CPU counters: "steal total" summed over the aggregate cpu line
# (user nice system idle iowait irq softirq steal; guest time is already
# inside user).
cpu_ticks() { awk '$1 == "cpu" { print $9, $2 + $3 + $4 + $5 + $6 + $7 + $8 + $9; exit }' /proc/stat; }
load1() { cut -d' ' -f1 /proc/loadavg; }

# One run of one side: its output file, then a host row
# "side pair steal_pct load1_before load1_after correct" on $host_rows.
run_side() { # side pair workload seed
    local side="$1" pair="$2" w="$3" seed="$4" d out before after l0
    d="$(dir_of "$side")"
    out="$runs_dir/$w.$seed.$side.$pair.txt"
    l0="$(load1)"
    before="$(cpu_ticks)"
    CARGO_TARGET_DIR="$d/target/$target_name" bash "$d/benchmark/run.sh" \
        --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" >"$out" 2>&1
    after="$(cpu_ticks)"
    local correct=false
    tail -n 1 "$out" | grep -q '"correct": true' && correct=true
    [ "$correct" = true ] || status=1
    echo "$before $after" | awk -v s="$side" -v p="$pair" -v l0="$l0" -v l1="$(load1)" -v c="$correct" \
        '{ dt = $4 - $2; printf "%s %d %.2f %s %s %s\n", s, p, (dt > 0 ? 100 * ($3 - $1) / dt : 0), l0, l1, c }' \
        >>"$host_rows"
    # Metric lines: "name unit value [q1 q3 n]".
    awk -v s="$side" -v p="$pair" \
        '$1 ~ /^[a-z][a-z0-9_.]*$/ && $3 ~ /^-?[0-9.]+(e[-+]?[0-9]+)?$/ && $4 ~ /^\[/ { print s, p, $1, $2, $3 }' \
        "$out" >>"$metric_rows"
}

# Per-metric summary of one cell, base against side $2 (change or aa): the
# table on stdout, the JSON "metrics" object into $1. Against the change,
# the table gains the A/A columns when the cell has aa runs.
summarize() { # json_out side
    awk -v json="$1" -v cmp="$2" '
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++) {
                t = a[i]
                for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
                a[j + 1] = t
            }
        }
        # Quantile with linear interpolation between order statistics.
        function q(a, n, f,    x, i) {
            x = 1 + (n - 1) * f
            i = int(x)
            return i >= n ? a[n] : a[i] + (x - i) * (a[i + 1] - a[i])
        }
        function pct(num, den, fmt) { return den != 0 ? sprintf(fmt, 100 * num / den) : "n/a" }
        function stats(side, m,    a, n, k) {
            n = 0
            for (k = 1; k <= np; k++) if ((side, m, k) in v) a[++n] = v[side, m, k]
            sort(a, n)
            cnt[side] = n
            lo[side] = q(a, n, 0.25); med[side] = q(a, n, 0.5); hi[side] = q(a, n, 0.75)
        }
        FILENAME == ARGV[1] { better[$1] = $2; next }
        {
            v[$1, $3, $2 + 0] = $5 + 0
            unit[$3] = $4
            if ($2 + 0 > np) np = $2 + 0
            if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 }
            if ($1 == "aa") aa = cmp == "change"
        }
        END {
            printf "%-28s %-6s %12s %25s %12s %25s %8s %6s %8s", "metric", "unit", "base", "[q1 q3]", cmp, "[q1 q3]", "gap", "wins", "base IQR"
            printf aa ? " %8s %8s\n" : "\n", "A/A gap", "A/A IQR"
            sep = ""
            printf "{" >json
            for (i = 1; i <= nm; i++) {
                m = order[i]
                stats("base", m); stats(cmp, m)
                if (cnt["base"] == 0 || cnt[cmp] == 0) continue
                dir = (m in better) ? better[m] : ""
                wins = 0; n = 0
                for (k = 1; k <= np; k++) {
                    if (!(("base", m, k) in v) || !((cmp, m, k) in v)) continue
                    n++
                    b = v["base", m, k]; c = v[cmp, m, k]
                    if ((dir == "lower" && c < b) || (dir == "higher" && c > b)) wins++
                }
                w = dir != "" ? wins "/" n : "-"
                gap = pct(med[cmp] - med["base"], med["base"], "%+.1f%%")
                iqr = pct(hi["base"] - lo["base"], med["base"], "%.1f%%")
                printf "%-28s %-6s %12.6g [%11.6g %11.6g] %12.6g [%11.6g %11.6g] %8s %6s %8s", m, unit[m], med["base"], lo["base"], hi["base"], med[cmp], lo[cmp], hi[cmp], gap, w, iqr
                if (aa) {
                    stats("aa", m)
                    printf " %8s %8s", pct(med["aa"] - med["base"], med["base"], "%+.1f%%"), pct(hi["aa"] - lo["aa"], med["aa"], "%.1f%%")
                }
                printf "\n"
                printf "%s\"%s\": {\"unit\": \"%s\", \"better\": %s, \"base\": [%.6g, %.6g, %.6g], \"change\": [%.6g, %.6g, %.6g], \"wins\": %s, \"pairs\": %d}", sep, m, unit[m], dir != "" ? "\"" dir "\"" : "null", lo["base"], med["base"], hi["base"], lo[cmp], med[cmp], hi[cmp], dir != "" ? wins : "null", n >json
                sep = ", "
            }
            printf "}" >json
        }' "$dirs" "$metric_rows"
}

trajectory="$root/BENCH_trajectory.json"
append_row() { # row
    if [ -s "$trajectory" ]; then
        sed -i -e '$ d' "$trajectory"
        sed -i -e '$ s/$/,/' "$trajectory"
        printf '%s\n]\n' "$1" >>"$trajectory"
    else
        printf '[\n%s\n]\n' "$1" >"$trajectory"
    fi
}

# One trajectory row for the current cell: base against $1 (whose tree
# hash and binary SHA-256 are $2 and $3), metrics from the JSON file $4,
# then any extra fields $5.
row() { # change_id change_tree change_bin metrics_json [extra]
    printf '{"base": "%s", "change": "%s", "base_tree": "%s", "change_tree": "%s", "base_bin_sha256": "%s", "change_bin_sha256": "%s", "workload": "%s", "seed": "%s", "pairs": %d, "seconds": %s, "trace": %d, "aligned": %d, "date": "%s", "nproc": %d, "kernel": "%s", "steal_pct": {"mean": %s, "max": %s}, "load1_max": %s, "failed_runs": %d, "metrics": %s%s}' \
        "$base_id" "$1" "$base_tree" "$2" "$base_bin" "$3" "$w" "$seed" "$pairs" "$seconds" "$trace" "$aligned" \
        "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$(nproc)" "$(uname -r)" "$steal_mean" "$steal_max" \
        "$load_max" "$bad" "$(cat "$4")" "${5:-}"
}

for seed in "${seeds[@]}"; do
    for w in "${workloads[@]}"; do
        cell="$runs_dir/$w.$seed"
        metric_rows="$cell.metrics"
        host_rows="$cell.host"
        : >"$metric_rows"
        : >"$host_rows"
        for pair in $(seq "$pairs"); do
            if [ "$aa" -eq 1 ]; then
                if [ $((pair % 2)) -eq 1 ]; then order=(base change aa); else order=(aa change base); fi
            elif [ $((pair % 2)) -eq 1 ]; then order=(base change); else order=(change base); fi
            for side in "${order[@]}"; do
                echo "== $w seed $seed pair $pair/$pairs: $side" >&2
                run_side "$side" "$pair" "$w" "$seed"
            done
        done
        host="$(awk '{ n++; s += $3; if ($3 > m) m = $3; for (i = 4; i <= 5; i++) if ($i > l) l = $i; if ($6 != "true") bad++ }
            END { printf "%.2f %.2f %s %d", s / n, m, l, bad }' "$host_rows")"
        read -r steal_mean steal_max load_max bad <<<"$host"
        echo
        echo "== $w, seed $seed: $pairs pairs of ${seconds} s, base $base_id vs change $change_id" \
            "(trace $trace, aligned $aligned, aa $aa); steal mean $steal_mean % max $steal_max %, load1 max $load_max, failed runs $bad"
        summarize "$cell.json" change
        append_row "$(row "$change_id" "$change_tree" "$change_bin" "$cell.json")"
        if [ "$aa" -eq 1 ]; then
            summarize "$cell.aa.json" aa >/dev/null
            append_row "$(row "$base_id" "$base_tree" "$base_bin" "$cell.aa.json" ', "aa": true')"
        fi
    done
done
echo "== rows appended to ${trajectory#"$root"/}; runs in ${runs_dir#"$root"/}"
exit "$status"
