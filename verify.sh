#!/usr/bin/env bash
# The verification gates: this header is their one list. Run from the repo
# root; each CI job runs exactly one gate.
#
#   ./verify.sh                # full: fmt, clippy, workspace tests, kanalyze,
#                              # detlint, kcheck --quick, perfbench tests and
#                              # perfbench/run.sh --quick
#   ./verify.sh --quick        # fmt, clippy, tier-1 tests, bytes shim tests,
#                              # kbroker unit tests, state-store unit tests
#                              # and proptests, instance and standby unit
#                              # tests, klog unit tests and proptests,
#                              # figure-driver unit tests, kanalyze, detlint
#   ./verify.sh storage        # disk seed sweep, disk replay identity, storage
#                              # batteries
#   ./verify.sh simtest        # seed sweeps (plain and cached), forced
#                              # profiles
#   ./verify.sh rebalancing    # rebalancing battery, assignor, instance and
#                              # standby unit tests, churn sweep and churn
#                              # replay identity
#   ./verify.sh observability  # metric exports (simtest, fig5b), kobs-off
#                              # build and tier-1 tests, kobs on/off
#                              # identity, span determinism, kobs unit
#                              # tests, StreamsMetrics counter path,
#                              # profiled-simtest metric and cache tests,
#                              # chrome trace, critical path, flight
#                              # recorder
#   ./verify.sh docs           # cargo doc --no-deps under -D warnings
#
# Any other argument prints this list and exits 2. Otherwise exits non-zero
# on the first failing step.
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }
simtest() { cargo run -q --release -p simkit --bin simtest -- "$@"; }
obs_check() { cargo run -q --release -p kobs --bin obs-check -- "$@"; }
# simtest with kobs compiled out, in its own target directory so the two
# builds do not rebuild each other.
simtest_kobs_off() {
  CARGO_TARGET_DIR=target/kobs-off \
    cargo run -q --release -p simkit --features kobs-off --bin simtest -- "$@"
}
# A simtest report without its telemetry sections: metrics, critical path,
# trace tail and flight recorder.
untraced() {
  awk '/^  (metrics|critical path|trace \(last|flight recorder)/ { skip = 1; next }
       /^[^ ]|^  [^ ]/ { skip = 0 }
       !skip'
}
# A scratch directory for a gate's artifacts, removed on exit.
scratch() {
  out=$(mktemp -d)
  trap 'rm -rf "$out"' EXIT
}

gate_storage() {
  step "simtest --sweep 0..20 --storage disk"
  simtest --sweep 0..20 --storage disk

  # I/O costs are virtual and directory iteration is name-ordered, so a disk
  # run must replay byte-identically — the same bar as memory mode.
  step "disk replay is byte-identical (two --profile runs, cmp)"
  scratch
  for run in a b; do
    simtest --seed 3 --steps 400 --storage disk --profile >"$out/$run.txt"
  done
  cmp "$out/a.txt" "$out/b.txt"

  # spill_recovery also crashes the app and the disk broker together: both
  # recovery modes must rebuild the exact pre-crash store bytes from segment
  # files, and spills must strictly reduce replay.
  step "storage batteries (kill_restore, spill_recovery, disk_scenarios)"
  cargo test -q --release -p klog --test kill_restore
  cargo test -q --release -p kstreams --test spill_recovery
  cargo test -q --release -p simkit --test disk_scenarios
}

gate_simtest() {
  # Fixed-seed sweep: deterministic, so a red run is a one-line local repro
  # (the failing report prints its own --seed command).
  step "simtest --sweep 0..20"
  simtest --sweep 0..20

  # Same seeds with record caches on: the oracles (and final revisions) must
  # not be able to tell the cache sizes apart.
  step "cached seed sweeps 0..20 (--cache 1, --cache 64)"
  simtest --sweep 0..20 --cache 1
  simtest --sweep 0..20 --cache 64

  step "forced-profile spot checks (count, windowed, suppressed)"
  for profile in count windowed suppressed; do
    simtest --seed 7 --profile "$profile"
  done
}

gate_rebalancing() {
  # Rolling-restart battery, standby-promotion handover regression, the
  # N-simultaneous-join coalescing test, and the cooperative join under load
  # (only moved tasks leave an incumbent, incumbents commit through the
  # transfer, nothing replays), the parked-restore cases, plus the
  # assignor's bounds at fleet scale (restart moves 0, join moves
  # ≤ ⌈T/(N+1)⌉, leave moves only orphans) and the instance's task-table
  # transitions.
  step "rebalancing test battery, assignor, instance and standby unit tests"
  cargo test -q --release --test rebalancing
  cargo test -q --release -p kstreams --lib -- assignment:: app:: standby::

  # Churn fault classes (debounced rolling restarts, fleet grow/shrink,
  # forced rebalances): every oracle green and every report byte-identical
  # on replay.
  step "simtest --sweep 0..25 --churn"
  simtest --sweep 0..25 --churn

  step "churn replay is byte-identical (two --profile runs, cmp)"
  scratch
  for run in a b; do
    simtest --seed 3 --steps 400 --churn --profile >"$out/$run.txt"
  done
  cmp "$out/a.txt" "$out/b.txt"
}

gate_observability() {
  scratch
  # Schema gate: the profiled JSON export must parse (with the in-repo
  # parser, via obs-check) and carry the metric names the report contract
  # promises — txn per-phase percentiles, commit cycle, LSO lag.
  step "profiled simtest export carries the required metrics"
  simtest --seed 7 --profile --json >"$out/simtest-profile.json"
  obs_check \
    kbroker.txn.phase.init_ms kbroker.txn.phase.add_partitions_ms \
    kbroker.txn.phase.prepare_ms kbroker.txn.phase.markers_ms \
    kbroker.txn.phase.complete_ms kstreams.commit_cycle_ms \
    kbroker.lso_lag_peak kstreams.restore_records kbroker.group.rebalances \
    <"$out/simtest-profile.json"

  # The profiled report must also carry the span-derived critical-path
  # metric family next to the wall-phase timers.
  step "critical-path metric family reaches the profiled export"
  obs_check \
    kobs.critical_path.total_ms kobs.critical_path.markers_ms \
    kobs.critical_path.commit_ms kobs.critical_path.cycle_ms \
    <"$out/simtest-profile.json"

  # Cached profiled run: the record-cache counters and the changelog
  # appends they save must reach the export.
  step "cached simtest export carries the cache counters"
  simtest --seed 7 --profile --cache 64 --json >"$out/simtest-cached.json"
  obs_check \
    kstreams.cache_hits kstreams.cache_misses \
    kstreams.cache.flush_entries kstreams.cache.dirty_entries_peak \
    kstreams.changelog_appends <"$out/simtest-cached.json"

  step "fig5b smoke with metrics export"
  cargo run -q --release -p bench --bin fig5b -- --quick --json >"$out/fig5b.json"
  obs_check \
    kbroker.txn.phase.markers_ms kstreams.commit_cycle_ms \
    kbroker.txn.commits <"$out/fig5b.json"

  # The kill switch must keep compiling and keep tier-1 green (the span
  # macros' no-op test included).
  step "kobs-off build and tier-1 tests"
  cargo build -q --release --features kobs-off
  cargo test -q --features kobs-off

  # Telemetry must not change what the simulation does: with kobs compiled
  # in and out, every report line outside the telemetry sections must
  # agree, committed_digest included.
  step "kobs on/off identity (simtest --sweep 0..8 --profile: plain, churn, disk)"
  for mode in "" --churn "--storage disk"; do
    # shellcheck disable=SC2086 # $mode is zero, one or two words
    simtest --sweep 0..8 --profile $mode | untraced >"$out/kobs-on.txt"
    # shellcheck disable=SC2086
    simtest_kobs_off --sweep 0..8 --profile $mode | untraced >"$out/kobs-off.txt"
    cmp "$out/kobs-on.txt" "$out/kobs-off.txt"
  done

  # Span determinism contract: same seed → byte-identical span trees; and
  # every kstreams count reaches the registry once, summed over instances.
  step "registry, metrics and span determinism tests"
  cargo test -q --release --test observability
  cargo test -q --release -p kobs --lib
  cargo test -q --release -p kstreams --lib metrics::
  cargo test -q --release -p simkit --test obs_profile --test cache_scenarios

  # The exported timeline must validate (nesting, durations, tids) and two
  # same-seed runs must produce the identical artifact.
  step "trace-out chrome export validates and replays byte-identically"
  for run in a b; do
    simtest --seed 7 --trace-out "$out/trace-$run.json"
  done
  cmp "$out/trace-a.json" "$out/trace-b.json"
  obs_check --chrome <"$out/trace-a.json"

  # An injected failure must dump the flight-recorder span trees next to the
  # repro line (exit 1 is the expected oracle failure).
  step "injected failure dumps flight-recorder span trees"
  simtest --seed 7 --inject-failure >"$out/inject.txt" || true
  grep -q "flight recorder" "$out/inject.txt"
  grep -q "repro:" "$out/inject.txt"
}

gate_docs() {
  # Every public item in the workspace must document cleanly; klog and kobs
  # additionally deny missing docs at the crate level.
  step "cargo doc --no-deps --workspace (-D warnings)"
  RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace
}

gate_full() {
  local quick=$1

  step "cargo fmt --all --check"
  cargo fmt --all --check

  step "cargo clippy --workspace --all-targets -- -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings

  if [[ "$quick" -eq 0 ]]; then
    step "cargo test --workspace -q"
    cargo test --workspace -q
  else
    step "cargo test -q (tier-1 only, --quick)"
    cargo test -q

    # Tier-1 tests only the root package; the shim's representation tests
    # (inline vs shared payloads) would otherwise run only in the full gate.
    step "cargo test -q -p bytes"
    cargo test -q -p bytes

    # Likewise the group coordinator's and consumer client's unit tests.
    step "cargo test -q -p kbroker --lib"
    cargo test -q -p kbroker --lib

    # Likewise the state stores' unit tests and their model properties: the
    # window store against an ordered tree, the record cache against a
    # reference LRU.
    step "cargo test -q -p kstreams --lib state::"
    cargo test -q -p kstreams --lib state::
    # Likewise the instance's task-table transitions and the standby
    # replicas' unit tests.
    step "cargo test -q -p kstreams --lib -- app:: standby::"
    cargo test -q -p kstreams --lib -- app:: standby::
    step "cargo test -q -p kstreams --test proptests"
    cargo test -q -p kstreams --test proptests

    # Likewise the log's unit tests and properties: fetch positioning by
    # binary search against the linear scan, fetch against a per-record
    # filter, and the fetch-cost checks.
    step "cargo test -q -p klog --lib"
    cargo test -q -p klog --lib
    step "cargo test -q -p klog --test proptests"
    cargo test -q -p klog --test proptests

    # Likewise the figure driver's tests: a run processes and commits every
    # record, and no EOS record waits longer than one commit interval.
    step "cargo test -q -p bench --lib"
    cargo test -q -p bench --lib
  fi

  step "cargo run --bin kanalyze (topology static verifier demo)"
  cargo run -q --bin kanalyze

  step "detlint (determinism lint over replay-critical crates)"
  cargo run -q --release -p kcheck --bin detlint

  if [[ "$quick" -eq 0 ]]; then
    # Fails on any invariant violation, on depth truncation, and when fewer
    # than 100k distinct states were explored (vacuous models).
    step "kcheck --quick (exhaustive model check of the EOS commit protocol)"
    cargo run -q --release -p kcheck --bin kcheck -- --quick

    # perfbench is its own workspace: nothing above compiles it, yet it calls
    # the crates' public API (Record, FetchResult, StreamTask, Producer).
    step "perfbench tests"
    cargo test --offline -q --manifest-path perfbench/Cargo.toml

    step "perfbench/run.sh --quick (every workload once, outputs checked)"
    perfbench/run.sh --quick
  fi
}

gate="${1:-}"
case "$gate" in
  "") gate_full 0 ;;
  --quick) gate_full 1 ;;
  storage | simtest | rebalancing | observability | docs) "gate_$gate" ;;
  *)
    printf 'verify.sh: unknown gate %q\n\n' "$gate" >&2
    sed -n '2,/^$/{/^#/s/^# \{0,1\}//p}' "$0" >&2
    exit 2
    ;;
esac

step "${gate:-full} gate passed"
