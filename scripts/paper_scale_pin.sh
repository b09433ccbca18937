#!/usr/bin/env bash
# Paper-scale behaviour pin. The cross-commit pins under tests/ run quick
# model widths and short streams only, so three benchmark workloads at
# seed 3 must print the report digests below:
#
# * table1-detrac: the Table I sweep on UA-DETRAC at paper scale, which
#   pins the tensor kernels' tile tails at the paper's widths (48, 64, 128
#   and the teacher's 128-row batch);
# * long-stream-quick: Edge-Only and Shoggoth over the paper's 27 000-frame
#   stream, the only pin over a paper-length frame loop;
# * fleet-storm: an 8-device Shoggoth fleet through the outage storm, the
#   only pin over the breaker and retransmit paths at fleet size.
#
# Each run's own correctness gate still applies (perfbench exits 1 on a
# failed gate). The digests are per target arch, because `exp`/`ln` come
# from the platform libm (DESIGN.md §7), so they are compared on x86_64
# only.
set -euo pipefail
cd "$(dirname "$0")/.."

pins=(
  "table1-detrac 631ba9b5bc140eee"
  "long-stream-quick e6cabd9169ad2354"
  "fleet-storm eb4e84a94e6e2a73"
)

failed=0
for pin in "${pins[@]}"; do
  read -r workload digest <<<"$pin"
  output=$(cargo run -q --release --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 3 --seconds 1 --trace 0)
  echo "==> $workload"
  grep -E '^(report digest|run_error_rate)' <<<"$output"
  if [[ "$(uname -m)" != "x86_64" ]]; then
    echo "    $(uname -m): digest not compared (pinned on x86_64)"
  elif ! grep -qxF "report digest $digest" <<<"$output"; then
    echo "paper-scale pin: $workload expected 'report digest $digest'" >&2
    failed=1
  else
    echo "    report digest matches"
  fi
done
exit "$failed"
