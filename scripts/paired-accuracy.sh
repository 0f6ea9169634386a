#!/usr/bin/env bash
# Paired held-out accuracy of the benchmark's `train` workload (400
# FACE2 crops at D = 4096, scored on 100 held-out crops): this
# checkout against another one, e.g. a `git clone` of the parent
# commit, on the same seeds. A change that moves the extractor's draws
# is held to accuracy parity with it: the mean paired difference should
# not fall more than two standard errors below zero.
#
# Usage: ./scripts/paired-accuracy.sh OTHER_CHECKOUT [FIRST LAST]
#
# Runs seeds FIRST..=LAST (default 101..=162) on both sides. Each side
# builds and runs the benchmark from its own checkout into its own
# target dir (`benchmark/target` under that checkout). Prints one line
# per seed, then each side's mean accuracy and the mean paired
# difference (this − other) with its standard error. A seed whose
# model falls below the workload's accuracy floor still counts: its
# accuracy is read from the failed check.
set -euo pipefail

if [ $# -ne 1 ] && [ $# -ne 3 ]; then
    echo "usage: $0 OTHER_CHECKOUT [FIRST LAST]" >&2
    exit 2
fi
here=$(cd "$(dirname "$0")/.." && pwd)
other=$(cd "$1" && pwd)
first=${2:-101}
last=${3:-162}

# Held-out accuracy of one `train` run of the checkout in $1 at seed $2.
accuracy() {
    local log
    log=$(CARGO_TARGET_DIR="$1/benchmark/target" bash "$1/benchmark/run.sh" \
        --workload train --seed "$2" --seconds 0.1 --trace 0 2>&1 >/dev/null || true)
    printf '%s\n' "$log" | awk '
        $1 == "info:" && $2 == "train.accuracy" { print $3; found = 1 }
        /held-out accuracy .* below/ {
            for (i = 1; i < NF; i++) if ($i == "accuracy") { print $(i + 1); found = 1 }
        }
        END { if (!found) exit 1 }' ||
        { printf 'no train.accuracy from %s at seed %s:\n%s\n' "$1" "$2" "$log" >&2; exit 1; }
}

printf '%-6s %-8s %-8s %s\n' seed other this diff
pairs=""
for seed in $(seq "$first" "$last"); do
    a=$(accuracy "$other" "$seed")
    b=$(accuracy "$here" "$seed")
    awk -v s="$seed" -v a="$a" -v b="$b" \
        'BEGIN { printf "%-6s %-8s %-8s %+.4f\n", s, a, b, b - a }'
    pairs="$pairs$a $b
"
done
printf '%s' "$pairs" | awk '
    { n++; a += $1; b += $2; d[n] = $2 - $1; s += d[n] }
    END {
        if (n < 2) { print "need at least two seeds" > "/dev/stderr"; exit 1 }
        mean = s / n
        for (i = 1; i <= n; i++) ss += (d[i] - mean) ^ 2
        se = sqrt(ss / (n - 1) / n)
        printf "%d seeds: other %.4f, this %.4f, paired diff %+.4f +/- %.4f (SE)\n",
            n, a / n, b / n, mean, se
    }'
