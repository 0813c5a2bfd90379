#!/usr/bin/env bash
# Build perfbench and run it; arguments go to `perfbench run`.
#   perfbench/run.sh                  full run, all workloads, seed 1
#   perfbench/run.sh --quick          smoke gate (< 20 s)
#   perfbench/run.sh --workload reduce_eos --seed 7 --trace 1
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path perfbench/Cargo.toml
exec cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- run "$@"
