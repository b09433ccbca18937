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

# The workspace denies warnings, rustdoc's included: a doc link to a
# private or deleted item fails here.
echo "==> cargo doc --workspace --no-deps"
cargo doc -q --workspace --no-deps

echo "==> cargo test --workspace (tier-1 and crate tests)"
cargo test -q --workspace

# The pins again on one thread: every run then generates its stream inline
# instead of on a second thread, and pre-trains its models serially.
echo "==> SHOGGOTH_THREADS=1 cargo test --test pins"
SHOGGOTH_THREADS=1 cargo test -q --test pins

# And on two threads, so every run pipelines its stream and detects ahead
# on the producer even where the default resolves to one thread (a 1-vCPU
# runner).
echo "==> SHOGGOTH_THREADS=2 cargo test --release --test pins"
SHOGGOTH_THREADS=2 cargo test -q --release --test pins

echo "==> cargo test -p shoggoth-tensor --features finite-check"
cargo test -q -p shoggoth-tensor --features finite-check

# The kernel proptests, the in-place eval layers and the statistics pass
# again at opt level 3: the dev profile builds at opt level 1, but
# perfbench and the experiment binaries run the release build, whose
# vectorized tiles and loops must give the same bits.
echo "==> cargo test --release -p shoggoth-tensor --test kernels_prop --test eval_in_place --test stats_pass"
cargo test -q --release -p shoggoth-tensor --test kernels_prop --test eval_in_place --test stats_pass

# shoggoth-util again at opt level 3, where the Gaussian block loop and
# the fmath functions vectorize: the fill must still equal the serial
# draws (gaussian_fill.rs), and fmath must keep its error bounds.
echo "==> cargo test --release -p shoggoth-util"
cargo test -q --release -p shoggoth-util

# The engine's look-ahead tests at opt level 3: which frames the producer
# detects ahead depends on timing, which differs from the dev profile, and
# every mix must leave reports and traces bit-identical. (The pool's own
# `pipeline` tests ran in release in the shoggoth-util step above.)
echo "==> cargo test --release -p shoggoth --lib -- look_ahead"
cargo test -q --release -p shoggoth --lib -- look_ahead

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
# their report digests in pins/pins.txt.
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

# Gating: experiment result files. A short run_all must write each of its
# nine result files as a non-empty JSON document, and experiments_md.py
# must render all five measured sections (Tables I-III, Figs. 4-5). It
# must also pre-train models exactly once per stream preset: every
# UA-DETRAC experiment shares one sweep.
echo "==> experiment results: SHOGGOTH_FRAMES=300 run_all"
rm -f target/experiments/*.json
SHOGGOTH_FRAMES=300 cargo run -q --release -p shoggoth-bench --bin run_all \
  2> target/run_all.stderr || { cat target/run_all.stderr >&2; exit 1; }
pretrainings=$(grep -c 'pre-training models' target/run_all.stderr || true)
if [[ "$pretrainings" -ne 3 ]]; then
  echo "run_all pre-trained models $pretrainings times, expected 3 (one per stream preset)" >&2
  exit 1
fi
for name in table1 table2 table3 fig1c fig4 fig5 fleet ablate_controller ablate_replay; do
  if ! python3 -c 'import json,sys; sys.exit(not json.load(open(sys.argv[1])))' \
      "target/experiments/$name.json"; then
    echo "run_all did not write a non-empty, parseable $name.json" >&2
    exit 1
  fi
done
sections=$(python3 scripts/experiments_md.py | grep -c '^### ' || true)
if [[ "$sections" -ne 5 ]]; then
  echo "experiments_md.py rendered $sections of 5 sections" >&2
  exit 1
fi
echo "    nine result files parse; five sections render; three pre-trainings"

echo "CI green."
