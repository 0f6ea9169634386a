#!/usr/bin/env sh
# The tier-1 gate as one command: format check, release build, lint,
# rustdoc with warnings as errors, the test suite of every workspace crate (no allow-list: any failing
# test turns the gate red), the pinned feature checksums, a check that
# every package is in-tree, explicit passes over the serving-layer and
# online-learning integration tests, and a short soak — each under a
# hard timeout so a wedged accept loop or a deadlocked queue fails the
# gate instead of hanging it. A per-step wall-clock summary prints at
# the end.
#
# Usage: ./scripts/ci.sh
#   CI_STEP_TIMEOUT   seconds per step (default 1800)
set -eu
cd "$(dirname "$0")/.."

STEP_TIMEOUT="${CI_STEP_TIMEOUT:-1800}"

# "name seconds" lines accumulated by finish(), printed on exit.
TIMINGS=""
GATE_START=$(date +%s)

finish() {
    name=$1
    start=$2
    TIMINGS="${TIMINGS}${name} $(( $(date +%s) - start ))\n"
}

summary() {
    echo "==> step timings (wall-clock seconds)"
    # shellcheck disable=SC2059 — TIMINGS embeds its own \n separators.
    printf "$TIMINGS" | awk '{printf "    %-28s %ss\n", $1, $2}'
    echo "    total                        $(( $(date +%s) - GATE_START ))s"
}

step() {
    name=$1
    shift
    echo "==> $*"
    start=$(date +%s)
    timeout "$STEP_TIMEOUT" "$@"
    finish "$name" "$start"
}

step fmt cargo fmt --all -- --check

step build cargo build --release

step clippy cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc with warnings as errors: a broken intra-doc link, or public
# docs linking a private item, fails the gate.
step docs env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

step suite cargo test -q --workspace --no-fail-fast

# The feature checksums pinned in feature_hash's doc comment, on the
# dispatched SIMD backend and on the scalar fallback.
step pins ./scripts/check-pins.sh
step pins-scalar env HDFACE_NO_SIMD=1 ./scripts/check-pins.sh

# Every package in the dependency graph is in-tree: a registry or git
# package has a non-null "source", which this prints and fails on.
step in-tree sh -c 'meta=$(cargo metadata --format-version 1) &&
    ! printf %s "$meta" | grep -o "\"source\":\"[^\"]*\""'

# The serve tests boot real sockets; run them once more on their own
# so a hang here is attributable (and bounded) independently of the
# full suite. fault_injection exercises the corrupted-model serving
# path end to end.
step serve cargo test -q \
    --test serve --test persist_errors --test fault_injection

# Online learning: feedback → shadow trainer → gated promotion →
# atomic hot-swap → rollback, plus replay determinism across scan
# thread counts (the registry manifests must be bit-identical).
step online cargo test -q --test online

# Short soak: loadgen against a live server over keep-alive
# connections, asserting zero non-shed 5xx, zero framing errors, and a
# clean drain on shutdown. CI runs the full 30s soak in its own job;
# this bounded pass keeps the gate honest for local runs.
step soak env SOAK_SECS="${CI_SOAK_SECS:-5}" ./scripts/soak.sh

summary
echo "==> ci green"
