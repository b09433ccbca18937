#!/usr/bin/env bash
# Performance harness: Criterion micro-benchmarks plus the fixed-workload
# throughput probe. The probe writes BENCH_tensor.json to the repo root
# (training steps/sec, ns per matmul/transa/transb product per size,
# end-to-end simulated frames/sec, fleet serial-vs-parallel wall time).
# Per-layer numbers at the real model shapes come from perfbench
# (--trace 1); see DESIGN.md "Performance architecture".
#
# Usage:
#   scripts/bench.sh            # probe + full criterion suite
#   scripts/bench.sh --probe    # throughput probe only (CI smoke)
#   scripts/bench.sh <filter>   # probe + criterion benches matching filter
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tensor/runner throughput probe (release) -> BENCH_tensor.json"
cargo run --release -q -p shoggoth-bench --bin tensor_throughput

if [[ "${1:-}" == "--probe" ]]; then
  exit 0
fi

echo "==> criterion micro-benchmarks"
cargo bench -p shoggoth-bench --bench components "${@}"
