//! Observability consistency across crash + restore: state restoration must
//! show up as `restore_records` (matching the committed changelog length)
//! and must NOT be double-counted as processing work, in both the
//! per-instance `StreamsMetrics` and the global kobs registry.
//!
//! Also home to the ktrace determinism contract: identical seeds produce
//! byte-identical span trees and chrome JSON,
//! and the `kobs-off` feature compiles the span macros to true no-ops
//! (run with `--features kobs-off` to exercise the disabled branches).

use kbroker::{Cluster, Consumer, ConsumerConfig, Producer, ProducerConfig, TopicConfig};
use kstreams::{KSerde, KafkaStreamsApp, StreamsBuilder, StreamsConfig};
use simkit::ManualClock;
use std::sync::{Arc, Mutex};

/// The kobs registry is process-global; tests in this binary that reset and
/// inspect it must not interleave.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn counting_topology() -> Arc<kstreams::topology::Topology> {
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, String>("events")
        .group_by_key()
        .count("event-counts")
        .to_stream()
        .to("counts");
    Arc::new(builder.build().unwrap())
}

fn eos_config() -> StreamsConfig {
    StreamsConfig::new("obs-app").exactly_once().with_commit_interval_ms(10)
}

fn send_events(cluster: &Cluster, n: usize, ts0: i64) {
    let mut p = Producer::new(cluster.clone(), ProducerConfig::default());
    for i in 0..n {
        p.send(
            "events",
            Some("key".to_string().to_bytes()),
            Some(format!("e{i}").to_bytes()),
            ts0 + i as i64,
        )
        .unwrap();
    }
    p.flush().unwrap();
}

/// Committed (read-committed, markers excluded) record count of a topic —
/// exactly what a restoring task replays from a changelog.
fn committed_len(cluster: &Cluster, topic: &str) -> u64 {
    let mut consumer =
        Consumer::new(cluster.clone(), "obs-verify", ConsumerConfig::default().read_committed());
    consumer.assign(cluster.partitions_of(topic).unwrap()).unwrap();
    let mut n = 0;
    loop {
        let batch = consumer.poll().unwrap();
        if batch.is_empty() {
            return n;
        }
        n += batch.len() as u64;
    }
}

#[test]
fn restore_counters_are_consistent_across_crash_and_restart() {
    let _serial = OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    kobs::reset();

    let clock = ManualClock::new();
    let cluster = Cluster::builder().brokers(3).replication(3).clock(clock.shared()).build();
    cluster.create_topic("events", TopicConfig::new(1)).unwrap();
    cluster.create_topic("counts", TopicConfig::new(1)).unwrap();

    // First incarnation: processes AND commits 5 records, then crashes.
    send_events(&cluster, 5, 0);
    let first_processed;
    {
        let mut app =
            KafkaStreamsApp::new(cluster.clone(), counting_topology(), eos_config(), "instance-0");
        app.start().unwrap();
        for _ in 0..10 {
            app.step().unwrap();
            clock.advance(10);
        }
        let m = app.metrics();
        first_processed = m.records_processed;
        assert_eq!(m.records_processed, 5, "first incarnation processed the feed");
        assert_eq!(m.restore_records, 0, "nothing to restore on a fresh changelog");
        app.crash();
    }
    clock.advance(kbroker::group::SESSION_TIMEOUT_MS + 1);

    // The committed changelog at restart time is exactly what the second
    // incarnation must replay.
    let changelog_len = committed_len(&cluster, "obs-app-event-counts-changelog");
    assert_eq!(changelog_len, 5, "one committed changelog update per input record");

    // Second incarnation: restores, then processes only the NEW records.
    send_events(&cluster, 3, 100);
    let mut app =
        KafkaStreamsApp::new(cluster.clone(), counting_topology(), eos_config(), "instance-0");
    app.start().unwrap();
    for _ in 0..10 {
        app.step().unwrap();
        clock.advance(10);
    }
    let m = app.metrics();
    assert_eq!(
        m.restore_records, changelog_len,
        "restore_records must equal the committed changelog replay length"
    );
    assert_eq!(
        m.records_processed, 3,
        "replayed changelog records must not be double-counted as processing"
    );
    assert_eq!(first_processed + m.records_processed, 8, "every input processed exactly once");
    app.close().unwrap();

    // The global registry tells the same story: the replay counter sums the
    // restores of both incarnations (0 + 5), and no processing gauge ever
    // included replayed records.
    if kobs::ENABLED {
        let snap = kobs::snapshot();
        assert_eq!(
            snap.counter("kstreams.restore.records_replayed"),
            Some(changelog_len),
            "registry replay counter matches the changelog length"
        );
        assert_eq!(
            snap.counter("kstreams.restore.sessions"),
            Some(1),
            "exactly one non-empty restore session"
        );
        assert_eq!(
            snap.gauge("kstreams.records_processed"),
            Some(3),
            "last published processing gauge excludes replayed records"
        );
        assert_eq!(snap.gauge("kstreams.restore_records"), Some(changelog_len as i64));
    }
}

#[test]
fn commit_cycles_reach_the_registry_histogram() {
    let _serial = OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    kobs::reset();

    let clock = ManualClock::new();
    let cluster = Cluster::builder().brokers(3).replication(3).clock(clock.shared()).build();
    cluster.create_topic("events", TopicConfig::new(2)).unwrap();
    cluster.create_topic("counts", TopicConfig::new(2)).unwrap();
    send_events(&cluster, 8, 0);

    let mut app =
        KafkaStreamsApp::new(cluster.clone(), counting_topology(), eos_config(), "instance-0");
    app.start().unwrap();
    for _ in 0..10 {
        app.step().unwrap();
        clock.advance(10);
    }
    app.close().unwrap();

    if kobs::ENABLED {
        let snap = kobs::snapshot();
        let cycle = snap.hist("kstreams.commit_cycle_ms").expect("commit cycle histogram");
        assert!(cycle.count >= 1, "at least one commit cycle observed");
        let markers = snap.hist("kbroker.txn.phase.markers_ms").expect("marker phase histogram");
        assert!(markers.count >= 1);
        assert!(
            snap.hist("kobs.critical_path.markers_ms").is_some(),
            "span-derived critical-path family observed alongside the phase timers"
        );
    }
}

/// One simtest run's complete trace identity: every flight-recorder tree
/// rendered as text, plus the chrome JSON export of all finished spans.
/// The span store persists after `run` returns (it is reset at the start
/// of the *next* run), so this reads exactly that run's spans.
fn trace_fingerprint(cfg: &simkit::simtest::SimConfig) -> (String, String) {
    let report = simkit::simtest::run(cfg);
    assert!(report.passed(), "fingerprint runs must pass: {report}");
    let trees: String = kobs::ktrace::recent_trees(kobs::ktrace::FLIGHT_RECORDER_TREES)
        .iter()
        .map(kobs::ktrace::render_tree)
        .collect();
    (trees, kobs::trace_export::chrome_json_all())
}

#[test]
fn span_trees_replay_byte_identically() {
    let _serial = OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let cfg = simkit::simtest::SimConfig::new(7).with_steps(150);
    let (trees_a, chrome_a) = trace_fingerprint(&cfg);
    let (trees_b, chrome_b) = trace_fingerprint(&cfg);
    assert_eq!(trees_a, trees_b, "span trees diverged on replay");
    assert_eq!(chrome_a, chrome_b, "chrome JSON diverged on replay");
    if kobs::ENABLED {
        assert!(!trees_a.is_empty(), "a passing EOS run records commit-cycle trees");
        let events =
            kobs::trace_export::validate_chrome_json(&chrome_a).expect("replayed export validates");
        assert!(events > 0, "chrome export carries span events");
    }
}

#[test]
fn span_macros_are_noops_when_disabled() {
    let _serial = OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    kobs::reset();
    let root = kobs::span!(5, "kstreams", "cycle", n = 1u64);
    let child = {
        let _in = kobs::ktrace::enter(root);
        let child = kobs::child_span!(5, "task", "task");
        kobs::ktrace::finish_span(child, 6_000);
        child
    };
    kobs::ktrace::finish_span(root, 6_000);
    if kobs::ENABLED {
        assert_eq!(kobs::ktrace::finished_spans().len(), 2);
        assert_eq!(kobs::ktrace::recent_trees(8).len(), 1);
    } else {
        assert!(root.is_none(), "disabled span! must hand out the NONE handle");
        assert!(child.is_none(), "disabled child_span! must hand out the NONE handle");
        assert!(kobs::ktrace::finished_spans().is_empty(), "no span ever recorded");
        assert!(kobs::ktrace::recent_trees(8).is_empty(), "no tree ever assembled");
        assert!(kobs::ktrace::critical_path_summary().is_none());
        let export = kobs::trace_export::chrome_json_all();
        let events = kobs::trace_export::validate_chrome_json(&export)
            .expect("disabled export is still a well-formed empty trace");
        assert_eq!(events, 0, "disabled export carries no span events");
    }
}
