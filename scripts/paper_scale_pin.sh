#!/usr/bin/env bash
# Paper-scale behaviour pin. The cross-commit pins under tests/ run quick
# model widths only (student 32/24/16, teacher 64/48), so the tensor
# kernels' tile tails at the paper's widths (48, 64, 128 and the teacher's
# 128-row batch) are pinned here: the Table I sweep on UA-DETRAC at paper
# scale, seed 3, must print the report digest below. The run's own
# correctness gate still applies (perfbench exits 1 on a failed gate).
#
# The digest is per target arch, because `exp`/`ln` come from the
# platform libm (DESIGN.md §7), so it is compared on x86_64 only.
set -euo pipefail
cd "$(dirname "$0")/.."

expected="report digest 631ba9b5bc140eee"
output=$(cargo run -q --release --manifest-path perfbench/Cargo.toml -- \
  --workload table1-detrac --seed 3 --seconds 1 --trace 0)
grep -E '^(report digest|run_error_rate)' <<<"$output"

if [[ "$(uname -m)" != "x86_64" ]]; then
  echo "    $(uname -m): digest not compared (pinned on x86_64)"
  exit 0
fi
if ! grep -qxF "$expected" <<<"$output"; then
  echo "paper-scale pin: expected '$expected'" >&2
  exit 1
fi
echo "    paper-scale report digest matches"
