#!/usr/bin/env bash
# Full verification gate for the workspace. Run from the repo root.
#
#   ./verify.sh          # everything (fmt, clippy, tests, static analysis demo,
#                        # model check, perfbench tests and smoke run)
#   ./verify.sh --quick  # skip the workspace test suite, keep the fast gates
#   ./verify.sh storage  # the durable-storage gate: disk seed sweep, disk
#                        # replay identity, storage batteries, recoverybench
#
# Exits non-zero on the first failing gate.
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

if [[ "${1:-}" == "storage" ]]; then
  simtest() { cargo run -q --release -p simkit --bin simtest -- "$@"; }

  step "simtest --sweep 0..20 --storage disk"
  simtest --sweep 0..20 --storage disk

  # I/O costs are virtual and directory iteration is name-ordered, so a disk
  # run must replay byte-identically — the same bar as memory mode.
  step "disk replay is byte-identical (two --profile runs, cmp)"
  out=$(mktemp -d)
  trap 'rm -rf "$out"' EXIT
  for run in a b; do
    simtest --seed 3 --steps 400 --storage disk --profile >"$out/$run.txt"
  done
  cmp "$out/a.txt" "$out/b.txt"

  step "storage batteries (kill_restore, spill_recovery, disk_scenarios)"
  cargo test -q --release -p klog --test kill_restore
  cargo test -q --release -p kstreams --test spill_recovery
  cargo test -q --release -p simkit --test disk_scenarios

  # Both recovery modes must rebuild the exact pre-crash store bytes, and
  # spills must strictly reduce replay.
  step "recoverybench --quick"
  cargo run -q --release -p bench --bin recoverybench -- --quick

  step "storage gate passed"
  exit 0
fi

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
  QUICK=1
fi

step "cargo fmt --all --check"
cargo fmt --all --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "$QUICK" -eq 0 ]]; then
  step "cargo test --workspace -q"
  cargo test --workspace -q
else
  step "cargo test -q (tier-1 only, --quick)"
  cargo test -q
fi

step "cargo run --bin kanalyze (topology static verifier demo)"
cargo run -q --bin kanalyze

step "detlint (determinism lint over replay-critical crates)"
cargo run -q --release -p kcheck --bin detlint

if [[ "$QUICK" -eq 0 ]]; then
  step "kcheck --quick (exhaustive model check of the EOS commit protocol)"
  cargo run -q --release -p kcheck --bin kcheck -- --quick

  # perfbench is its own workspace: nothing above compiles it, yet it calls
  # the crates' public API (Record, FetchResult, StreamTask, Producer).
  step "perfbench tests"
  cargo test --offline -q --manifest-path perfbench/Cargo.toml

  step "perfbench/run.sh --quick (every workload once, outputs checked)"
  perfbench/run.sh --quick
fi

step "all gates passed"
