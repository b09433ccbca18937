#!/usr/bin/env bash
# Paper-scale behaviour pin. The cross-commit pins under tests/ run quick
# model widths and short streams only, so three benchmark workloads at
# seed 3 must print the report digests pinned as `paper_scale.<workload>`
# in pins/pins.txt:
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
# failed gate). A `paper_scale` entry this script does not check fails
# too. On a mismatch it prints the whole replacement pin file.
set -euo pipefail
cd "$(dirname "$0")/.."

pin_file=pins/pins.txt
workloads=(table1-detrac long-stream-quick fleet-storm)

failed=0
pinned_names=$( (grep -oE '^paper_scale\.[^ ]+' "$pin_file" || true) | sort)
checked_names=$(printf 'paper_scale.%s\n' "${workloads[@]}" | sort)
if [[ "$pinned_names" != "$checked_names" ]]; then
  echo "paper-scale pin: $pin_file has paper_scale entries for" \
    "'$(echo $pinned_names)', this script checks '$(echo $checked_names)'" >&2
  failed=1
fi

# The replacement file: every other line as it is, then the computed
# paper_scale entries (the pin file keeps them last).
replacement=$(grep -vE '^paper_scale\.' "$pin_file" || true)
for workload in "${workloads[@]}"; do
  digest=$(grep -E "^paper_scale\.$workload " "$pin_file" | cut -d' ' -f2 || true)
  output=$(cargo run -q --release --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 3 --seconds 1 --trace 0)
  echo "==> $workload"
  grep -E '^(report digest|run_error_rate)' <<<"$output"
  actual=$(grep -oE '^report digest [0-9a-f]{16}$' <<<"$output" | cut -d' ' -f3)
  replacement+=$'\n'"paper_scale.$workload 0x$actual"
  if [[ "$digest" != "0x$actual" ]]; then
    echo "paper-scale pin: $workload pinned '${digest:-no entry}', computed 0x$actual" >&2
    failed=1
  else
    echo "    report digest matches"
  fi
done
if [[ "$failed" -ne 0 ]]; then
  echo "replacement $pin_file:" >&2
  echo "$replacement" >&2
fi
exit "$failed"
