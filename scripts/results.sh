#!/usr/bin/env sh
# Regenerates the archived experiment outputs: builds hdface-bench,
# then runs every exp_* binary in its default (quick) mode at its
# default seed and writes its console output to out/results/<bin>.txt
# (exp_fig6 also rewrites its overlays, out/fig6_detection_d*.ppm).
# About 1.5 min on 2 vCPUs.
#
# Every file but exp_fig5.txt, which prints wall-clock times, is a pure
# function of the tree at any thread count, so the `results` CI job
# reruns this script and fails when git shows any other file changed.
#
# Usage: ./scripts/results.sh
set -eu
cd "$(dirname "$0")/.."
cargo build -q --release -p hdface-bench
mkdir -p out/results
for src in crates/bench/src/bin/exp_*.rs; do
    bin=$(basename "$src" .rs)
    echo "==> $bin"
    "${CARGO_TARGET_DIR:-target}/release/$bin" > "out/results/$bin.txt"
done
