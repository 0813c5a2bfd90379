#!/usr/bin/env bash
# Full verification gate for the workspace. Run from the repo root.
#
#   ./verify.sh          # everything (fmt, clippy, tests, static analysis demo,
#                        # model check, perfbench tests and smoke run)
#   ./verify.sh --quick  # skip the workspace test suite, keep the fast gates
#
# Exits non-zero on the first failing gate.
set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
  QUICK=1
fi

step() { printf '\n==> %s\n' "$*"; }

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
