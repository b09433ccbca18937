#!/usr/bin/env bash
# The whole CI gate, runnable locally. Every step must pass before merge;
# see DESIGN.md §8 (Correctness tooling) for what the domain lints check.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo run -p xtask -- lint"
cargo run -q -p xtask -- lint

echo "==> cargo test --workspace (tier-1 and crate tests)"
cargo test -q --workspace

echo "==> cargo test -p shoggoth-tensor --features finite-check"
cargo test -q -p shoggoth-tensor --features finite-check

echo "==> cargo test --release --manifest-path perfbench/Cargo.toml"
cargo test -q --release --manifest-path perfbench/Cargo.toml

# Gating: benchmark correctness smoke. perfbench exits 1 when a run fails
# its correctness gate, e.g. repetitions or serial and two-worker fleet
# runs that are not bit-identical; see perfbench/README.md.
echo "==> perfbench smoke: fleet-storm, seed 1, 1 s, untraced"
cargo run -q --release --manifest-path perfbench/Cargo.toml -- \
  --workload fleet-storm --seed 1 --seconds 1 --trace 0

# Gating: paper-scale behaviour pins. Table I on UA-DETRAC at the paper's
# model widths, the 27 000-frame stream and the storm fleet must reproduce
# their report digests (x86_64 only).
echo "==> paper-scale pins: table1-detrac, long-stream-quick, fleet-storm, seed 3"
bash scripts/paper_scale_pin.sh

# Gating: chaos smoke. A fixed-seed worst-case fault schedule (stacked
# outages, bursty loss, degradation, jitter, flaky cloud) must complete
# without a panic; see DESIGN.md §10 (Failure model & resilience). The
# traced run must also leave its telemetry artifacts behind (§11).
echo "==> chaos smoke: cargo run --release --example unreliable_network"
cargo run -q --release --example unreliable_network
for artifact in target/experiments/telemetry_unreliable_network.jsonl \
                target/experiments/telemetry_unreliable_network.html; do
  if [[ ! -s "$artifact" ]]; then
    echo "chaos smoke did not export $artifact (or it is empty)" >&2
    exit 1
  fi
done
echo "    telemetry artifacts present (JSONL + timeline HTML)"

# Non-gating: the throughput probe exercises the release-mode hot path and
# refreshes BENCH_tensor.json, but perf numbers on shared runners are too
# noisy to gate a merge on.
echo "==> bench smoke: scripts/bench.sh --probe (non-gating)"
if ! bash scripts/bench.sh --probe; then
  echo "bench smoke failed (non-gating; see output above)"
fi

echo "CI green."
