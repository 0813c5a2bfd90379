//! Named deterministic-simulation scenarios (the repo's randomized
//! fault-schedule test battery).
//!
//! Every scenario is a seed (plus optional forced profile / step count)
//! fed to `simkit::simtest::run`. A failure panics with the full run
//! report and the exact replay command:
//! `cargo run -p simkit --bin simtest -- --seed N --steps M`.

use simkit::simtest::{run, Profile, SimConfig};
use simkit::FaultPoint;

#[test]
fn same_seed_replays_byte_identically() {
    let cfg = SimConfig::new(42);
    let first = format!("{}", run(&cfg));
    let second = format!("{}", run(&cfg));
    assert_eq!(first, second, "a seed must replay to a byte-identical report");
}

#[test]
fn count_profile_survives_random_faults() {
    let report = run(&SimConfig::new(101).with_profile(Profile::Count));
    report.assert_passed();
    assert!(report.records_fed > 0, "workload fed nothing:\n{report}");
    assert!(report.output_records > 0, "no committed output:\n{report}");
}

#[test]
fn windowed_profile_survives_broker_outages() {
    let report = run(&SimConfig::new(202).with_profile(Profile::Windowed).with_steps(600));
    report.assert_passed();
}

#[test]
fn suppressed_profile_emits_single_finals_under_churn() {
    let report = run(&SimConfig::new(303).with_profile(Profile::Suppressed).with_steps(600));
    report.assert_passed();
}

#[test]
fn long_chaos_run_converges() {
    run(&SimConfig::new(404).with_steps(1000)).assert_passed();
}

#[test]
fn minimal_run_drains_cleanly() {
    run(&SimConfig::new(7).with_steps(25)).assert_passed();
}

#[test]
fn smoke_sweep_seeds_0_to_19() {
    for seed in 0..20 {
        run(&SimConfig::new(seed)).assert_passed();
    }
}

/// Simtest's headline property over a seed range: the whole report
/// (outputs, store hashes, fault log, metrics) is a pure function of the
/// seed. 25 seeds, two runs each, compared as rendered bytes. (Named for the
/// four-worker sweep it used to be; the id is kept so the suite's history
/// stays comparable.)
#[test]
fn twenty_five_seed_sweep_replays_byte_identically_with_four_workers() {
    for seed in 0..25 {
        let cfg = SimConfig::new(seed);
        let first = run(&cfg);
        first.assert_passed();
        let second = run(&cfg);
        assert_eq!(format!("{first}"), format!("{second}"), "seed {seed}: replay diverged");
    }
}

/// Every replay-critical tree must stay clean under detlint's determinism
/// rules (no wall clock, no entropy, no unordered iteration) — the task
/// loop in `kstreams::app` included. (Id kept from when that loop was a
/// scheduler module.)
#[test]
fn detlint_is_clean_over_the_scheduler_module() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo_findings = kcheck::detlint::lint_repo(root);
    assert!(repo_findings.is_empty(), "replay-critical trees must stay clean: {repo_findings:?}");
}

#[test]
fn fifty_seed_sweep_exercises_all_fault_points_and_cluster_events() {
    let mut injected = [0u64; 4];
    let original_points = [
        FaultPoint::ProduceAckLost,
        FaultPoint::ProduceRequestLost,
        FaultPoint::FetchResponseLost,
        FaultPoint::TxnRpcAckLost,
    ];
    let mut kills = 0u64;
    let mut restores = 0u64;
    let mut crashes = 0u64;
    let mut restarts = 0u64;
    let mut rebalances = 0u64;
    for seed in 0..50 {
        let report = run(&SimConfig::new(seed));
        report.assert_passed();
        for (slot, point) in injected.iter_mut().zip(original_points) {
            *slot += report.injected(point);
        }
        kills += report.events.broker_kills;
        restores += report.events.broker_restores;
        crashes += report.events.instance_crashes;
        restarts += report.events.instance_restarts;
        rebalances += report.events.forced_rebalances;
    }
    for (slot, point) in injected.iter().zip(original_points) {
        assert!(*slot > 0, "{} never injected across the sweep", point.name());
    }
    assert!(kills > 0, "no broker was ever killed across the sweep");
    assert!(restores > 0, "no broker was ever restored across the sweep");
    assert!(crashes > 0, "no instance ever crashed across the sweep");
    assert!(restarts > 0, "no instance ever restarted across the sweep");
    assert!(rebalances > 0, "no forced rebalance across the sweep");
}

/// Cooperative rebalancing under the churn fault classes (rolling restarts,
/// fleet grow/shrink, coordinator-forced rebalances — all debounced) must
/// preserve every oracle AND simtest's headline replay property: for a fixed
/// seed, `--churn` is byte-identical across runs. 25 seeds, two runs each,
/// compared as rendered bytes. (Id kept from the four-worker sweep.)
#[test]
fn twenty_five_seed_churn_sweep_replays_byte_identically_with_four_workers() {
    let mut rolling = 0u64;
    let mut adds = 0u64;
    let mut removes = 0u64;
    for seed in 0..25 {
        let cfg = SimConfig::new(seed).with_churn();
        let first = run(&cfg);
        first.assert_passed();
        let second = run(&cfg);
        let (a, b) = (format!("{first}"), format!("{second}"));
        assert_eq!(a, b, "seed {seed}: churn replay diverged");
        assert!(
            first.repro().contains("--churn"),
            "repro command must carry the churn flag: {}",
            first.repro()
        );
        rolling += first.events.rolling_restarts;
        adds += first.events.instance_adds;
        removes += first.events.instance_removes;
    }
    assert!(rolling > 0, "no rolling restart fired across the churn sweep");
    assert!(adds > 0, "no instance was ever added across the churn sweep");
    assert!(removes > 0, "no instance was ever removed across the churn sweep");
}
