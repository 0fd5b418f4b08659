#!/usr/bin/env bash
# benchpair.sh — paired runs of the repository benchmark: this checkout
# (the change) against a parent revision, on one workload.
#
# Usage: scripts/benchpair.sh <parent-rev> <workload> <pairs> [seconds] [first-seed]
#
# The parent revision is exported with `git archive` into a directory
# under .bench_build/, removed on exit, and each side runs its own
# bench/run.sh with --trace 0, so each side builds and measures with its
# own benchmark code. Pairs run in ABBA order: the parent first on odd
# pairs, the change first on even ones. Pair i runs both sides on seed
# first-seed+i-1; the default first seed comes from the clock, so every
# call runs on fresh seeds. seconds defaults to 10.
#
# For each end-to-end metric that BENCHMARK.json names, it prints every
# pair, both sides' median and quartiles, the parent's IQR, and the
# number of pairs in which the change read lower. The last line of
# standard output is the same data as one JSON object; the runs' own
# result lines are kept beside it under .bench_build/benchpair/. A run
# that ends without a result line stops the script; a run that reports
# failed operations or `"correct": false` is counted in the JSON.
# Nothing under bench/ is touched.
#
# The export builds from this checkout's Go build cache: its
# .bench_build/gocache is a symlink to the checkout's. bench/run.sh's
# `mkdir -p` accepts the link, the cache is content-addressed, so the
# two trees share only what compiles to the same bytes, and removing the
# export removes only the link. Without it every call rebuilt the
# parent's benchmark from an empty cache: on a 2-vCPU host, one export's
# build took 24.1 s wall (45 s CPU) cold and 3.3 s through the link, and
# the two binaries had identical .text sections and symbol tables (they
# differ only in the source paths they embed).
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    echo "usage: $0 <parent-rev> <workload> <pairs> [seconds] [first-seed]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=${4:-10} first=${5:-$(($(date +%s) % 1000000))}

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
parent_sha=$(git rev-parse --verify "$rev^{commit}")
change_sha=$(git rev-parse HEAD)
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
    change_sha="$change_sha+dirty"
fi

mkdir -p .bench_build/benchpair
parent=$(mktemp -d "$root/.bench_build/benchpair/parent.XXXXXX")
trap 'rm -rf "$parent"' EXIT
git archive "$parent_sha" | tar -x -C "$parent"
mkdir -p .bench_build/gocache "$parent/.bench_build"
ln -s "$root/.bench_build/gocache" "$parent/.bench_build/gocache"
results=.bench_build/benchpair/$workload-$first
rm -rf "$results"
mkdir -p "$results"

# run <side> <dir> <pair> <seed>: one benchmark run, its result line
# saved as $results/<pair>-<side>.json, its diagnostics as .err.
run() {
    local side=$1 dir=$2 pair=$3 seed=$4 out
    out=$(bash "$dir/bench/run.sh" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 2>"$results/$pair-$side.err") || {
        echo "benchpair: $side run of pair $pair (seed $seed) gave no result; see $results/$pair-$side.err" >&2
        exit 1
    }
    printf '%s\n' "$out" | tail -n 1 |
        jq -c --arg side "$side" --argjson pair "$pair" --argjson seed "$seed" \
            '{side: $side, pair: $pair, seed: $seed} + .' >"$results/$pair-$side.json"
}

for ((i = 1; i <= pairs; i++)); do
    seed=$((first + i - 1))
    if ((i % 2 == 1)); then
        run parent "$parent" "$i" "$seed"
        run change "$root" "$i" "$seed"
    else
        run change "$root" "$i" "$seed"
        run parent "$parent" "$i" "$seed"
    fi
    echo "benchpair: pair $i/$pairs done (seed $seed)" >&2
done

summary=$(jq -s -c \
    --slurpfile spec BENCHMARK.json \
    --arg workload "$workload" --arg parent "$parent_sha" --arg change "$change_sha" \
    --argjson seconds "$seconds" --argjson first "$first" '
    # q(p): the p-quantile of a list, linear between the sorted values.
    def q(p): sort as $s | ($s | length) as $n
        | if $n == 0 then null else
            (($n - 1) * p) as $h | ($h | floor) as $lo
            | $s[$lo] + (if $lo + 1 < $n then ($s[$lo + 1] - $s[$lo]) * ($h - $lo) else 0 end)
          end;
    def stats: {median: q(0.5), q1: q(0.25), q3: q(0.75)} | .iqr = .q3 - .q1;
    (group_by(.pair) | map({pair: .[0].pair, seed: .[0].seed,
        parent: (map(select(.side == "parent")) | .[0]),
        change: (map(select(.side == "change")) | .[0]),
        first: (if .[0].pair % 2 == 1 then "parent" else "change" end)})) as $runs
    | {workload: $workload, parent_rev: $parent, change_rev: $change,
       seconds: $seconds, first_seed: $first, pairs: ($runs | length),
       runs: [$runs[] | {pair, seed, first,
           parent: (.parent | {correct, attempted, failed}),
           change: (.change | {correct, attempted, failed})}],
       metrics: ([$spec[0].end_to_end[] | .name as $m
           | {key: $m, value: {unit, better,
               pairs: [$runs[] | {pair, seed, parent: .parent.metrics[$m].value, change: .change.metrics[$m].value}]}}
           | .value.parent = ([.value.pairs[].parent] | stats)
           | .value.change = ([.value.pairs[].change] | stats)
           | .value.change_lower = ([.value.pairs[] | select(.change < .parent)] | length)]
           | from_entries)}
    ' "$results"/*.json)
printf '%s\n' "$summary" >"$results/summary.json"

printf '%s\n' "$summary" | jq -r '
    def f: if . == null then "-" else (. * 1000 | round / 1000 | tostring) end;
    "\(.workload): \(.pairs) pairs of \(.seconds) s, seeds \(.first_seed)-\(.first_seed + .pairs - 1), parent \(.parent_rev[:12]), change \(.change_rev[:12])",
    (.runs[] | select(.parent.failed > 0 or .change.failed > 0 or (.parent.correct | not) or (.change.correct | not))
        | "  pair \(.pair): parent correct \(.parent.correct) failed \(.parent.failed), change correct \(.change.correct) failed \(.change.failed)"),
    (.metrics | to_entries[] | .key as $m | .value as $v |
        "\($m) (\($v.unit), \($v.better) is better), parent/change per pair:",
        ($v.pairs[] | "  pair \(.pair) seed \(.seed): \(.parent | f) / \(.change | f)"),
        "  parent median \($v.parent.median | f) (quartiles \($v.parent.q1 | f)-\($v.parent.q3 | f), IQR \($v.parent.iqr | f))",
        "  change median \($v.change.median | f) (quartiles \($v.change.q1 | f)-\($v.change.q3 | f)); change lower in \($v.change_lower)/\($v.pairs | length) pairs")'
printf '%s\n' "$summary"
