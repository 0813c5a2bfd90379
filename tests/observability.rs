//! Observability consistency across crash + restore: state restoration must
//! show up as `restore_records` (matching the committed changelog length)
//! and must NOT be double-counted as processing work, in both the
//! per-instance `StreamsMetrics` and the global kobs registry, whose
//! `kstreams.<field>` counters sum every instance and incarnation.
//!
//! Also home to the ktrace determinism contract: identical seeds produce
//! byte-identical span trees and chrome JSON, and an idle cycle leaves no
//! tree; and the `kobs-off` feature compiles the span macros to true no-ops
//! (run with `--features kobs-off` to exercise the disabled branches).

use kbroker::{
    Cluster, Consumer, ConsumerConfig, DiskConfig, Producer, ProducerConfig, StorageMode,
    TopicConfig,
};
use kstreams::processor::{Processor, ProcessorContext};
use kstreams::record::FlowRecord;
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
    send_keyed_events(cluster, n, ts0, |_| "key".to_string());
}

fn send_keyed_events(cluster: &Cluster, n: usize, ts0: i64, key: impl Fn(usize) -> String) {
    let mut p = Producer::new(cluster.clone(), ProducerConfig::default());
    for i in 0..n {
        p.send("events", Some(key(i).to_bytes()), Some(format!("e{i}").to_bytes()), ts0 + i as i64)
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

    // The global registry tells the same story over the whole run: the
    // replay counter sums the restores of both incarnations (0 + 5), and the
    // processing counter sums their processing (5 + 3) without the replay.
    if kobs::ENABLED {
        let snap = kobs::snapshot();
        assert_eq!(
            snap.counter("kstreams.restore_records"),
            Some(changelog_len),
            "registry replay counter matches the changelog length"
        );
        assert_eq!(
            snap.counter("kstreams.restore.sessions"),
            Some(1),
            "exactly one non-empty restore session"
        );
        assert_eq!(
            snap.counter("kstreams.records_processed"),
            Some(5 + 3),
            "processing counter sums both incarnations and excludes replayed records"
        );
    }
}

#[test]
fn streams_counters_sum_every_instance() {
    let _serial = OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    kobs::reset();

    let clock = ManualClock::new();
    let cluster = Cluster::builder().brokers(3).replication(3).clock(clock.shared()).build();
    cluster.create_topic("events", TopicConfig::new(4)).unwrap();
    cluster.create_topic("counts", TopicConfig::new(4)).unwrap();
    let mut apps: Vec<KafkaStreamsApp> = ["a", "b"]
        .into_iter()
        .map(|id| KafkaStreamsApp::new(cluster.clone(), counting_topology(), eos_config(), id))
        .collect();
    for app in &mut apps {
        app.start().unwrap();
    }
    let step_all = |apps: &mut [KafkaStreamsApp]| {
        for _ in 0..20 {
            for app in apps.iter_mut() {
                app.step().unwrap();
            }
            clock.advance(10);
        }
    };
    // Let the group settle on a split assignment before any input arrives.
    step_all(&mut apps);
    let n = 40;
    send_keyed_events(&cluster, n, 0, |i| format!("k{i}"));
    step_all(&mut apps);
    for app in &mut apps {
        app.close().unwrap();
    }
    let per_instance: Vec<u64> = apps.iter().map(|a| a.metrics().records_processed).collect();
    assert!(per_instance.iter().all(|&p| p > 0), "both instances did work: {per_instance:?}");
    assert_eq!(per_instance.iter().sum::<u64>(), n as u64, "every input processed once");

    if kobs::ENABLED {
        let snap = kobs::snapshot();
        assert_eq!(
            snap.counter("kstreams.records_processed"),
            Some(n as u64),
            "the registry counter is the sum over instances, not the last writer's value"
        );
        assert_eq!(snap.gauge("kstreams.records_processed"), None, "no per-instance gauge");
    }
}

/// A commit is counted in the registry, and its phases are spans: the
/// registry holds no duration.
#[test]
fn commit_cycles_reach_the_registry_counters() {
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
        let counted = |name| snap.counter(name).is_some_and(|n| n >= 1);
        assert!(counted("kstreams.commit_cycles"), "at least one commit cycle counted");
        assert!(counted("kbroker.txn.commits") && counted("kbroker.txn.log_records"));
        let cp = kobs::ktrace::critical_path_summary().expect("commit cycles were traced");
        assert!(cp.phases.iter().any(|(name, _)| *name == "markers"), "{:?}", cp.phases);
    }
}

/// An interval with nothing new commits nothing: after one real commit,
/// ten idle commit intervals add no commit cycle, no `commit` span tree and
/// no store spill (each used to walk every task, keep a commit tree and
/// rewrite every spill file unchanged). A direct `commit` still commits.
#[test]
fn idle_intervals_commit_nothing() {
    let _serial = OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    kobs::reset();
    let dir = std::env::temp_dir().join(format!("obs-idle-commit-{}", std::process::id()));
    let clock = ManualClock::new();
    let cluster = Cluster::builder().brokers(3).replication(3).clock(clock.shared()).build();
    cluster.create_topic("events", TopicConfig::new(2)).unwrap();
    cluster.create_topic("counts", TopicConfig::new(2)).unwrap();
    send_events(&cluster, 8, 0);
    let config = eos_config().with_state_dir(&dir);
    let mut app = KafkaStreamsApp::new(cluster.clone(), counting_topology(), config, "instance-0");
    app.start().unwrap();
    clock.advance(10);
    let step = app.step().unwrap();
    assert_eq!((step.processed, step.committed), (8, true));

    let commit_trees = || {
        let trees = kobs::ktrace::recent_trees(usize::MAX);
        trees.iter().filter(|tree| tree.iter().any(|s| s.name == "commit")).count()
    };
    let counter = |name| kobs::snapshot().counter(name);
    let before = (counter("kstreams.commit_cycles"), counter("kstreams.spill.writes"));
    let trees = commit_trees();
    for _ in 0..10 {
        clock.advance(10);
        assert!(!app.step().unwrap().committed, "an idle interval commits nothing");
    }
    assert_eq!(app.metrics().commit_cycles, 1);
    assert_eq!((counter("kstreams.commit_cycles"), counter("kstreams.spill.writes")), before);
    assert_eq!(commit_trees(), trees);
    if kobs::ENABLED {
        assert_eq!(before.0, Some(1));
        assert!(before.1.is_some_and(|n| n > 0), "the real commit spilled its store");
        assert_eq!(trees, 1, "the real commit kept its tree");
    }

    app.commit().unwrap();
    assert_eq!(app.metrics().commit_cycles, 2, "a direct commit still commits");
    app.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A span is never stamped from a record's event time: records stamped a
/// minute ahead of the cluster clock append under a commit cycle that
/// takes no virtual time, so its tree's root lasts (well) under a
/// millisecond.
#[test]
fn event_time_ahead_of_the_clock_does_not_stretch_a_cycle() {
    let _serial = OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    kobs::reset();
    let clock = ManualClock::new();
    let cluster = Cluster::builder().brokers(3).replication(3).clock(clock.shared()).build();
    cluster.create_topic("events", TopicConfig::new(2)).unwrap();
    cluster.create_topic("counts", TopicConfig::new(2)).unwrap();
    send_events(&cluster, 8, 60_000);

    let mut app =
        KafkaStreamsApp::new(cluster.clone(), counting_topology(), eos_config(), "instance-0");
    app.start().unwrap();
    clock.advance(10);
    let step = app.step().unwrap();
    assert_eq!((step.processed, step.committed), (8, true));
    app.close().unwrap();
    if !kobs::ENABLED {
        return;
    }

    let trees = kobs::ktrace::recent_trees(usize::MAX);
    let cycles: Vec<_> = trees.iter().filter(|t| t[0].name == "cycle").collect();
    assert_eq!(cycles.len(), 1, "one step, one kept cycle");
    let tree = cycles[0];
    assert!(tree.iter().any(|s| s.name == "commit"), "{}", kobs::ktrace::render_tree(tree));
    assert!(tree.iter().any(|s| s.name == "append"), "{}", kobs::ktrace::render_tree(tree));
    assert!(
        tree[0].duration_us() < 1_000,
        "the cycle root lasts {} virtual µs:\n{}",
        tree[0].duration_us(),
        kobs::ktrace::render_tree(tree)
    );
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

/// The span names of `tree` as `name<parent name`, root first.
fn tree_shape(tree: &kobs::SpanTree) -> Vec<String> {
    let name_of = |id: u64| tree.iter().find(|s| s.id == id).map_or("?", |s| s.name);
    tree.iter().map(|s| format!("{}<{}", s.name, s.parent.map_or("", name_of))).collect()
}

/// Forwards one record from its punctuator once wall time reaches `at`,
/// whatever its input: output from a cycle that processed nothing.
struct Alarm {
    at: i64,
    fired: bool,
}

impl Processor for Alarm {
    fn process(&mut self, ctx: &mut ProcessorContext<'_>, record: FlowRecord) {
        ctx.forward(record);
    }

    fn punctuate(&mut self, ctx: &mut ProcessorContext<'_>, _stream_time: i64, wall: i64) {
        if wall >= self.at && !self.fired {
            self.fired = true;
            let value = Some("alarm".to_string().to_bytes());
            ctx.forward(FlowRecord { key: None, new: value, old: None, ts: wall });
        }
    }
}

/// A cycle that records nothing under its root — no record processed, no
/// commit, no punctuation output, no event — leaves nothing in the trace
/// ring; a working cycle keeps its whole tree, with one `append` span per
/// replicated append (the leader's, not one per replica) and no span for a
/// task that had nothing to do.
#[test]
fn idle_cycles_leave_no_trace() {
    let _serial = OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    kobs::reset();
    let clock = ManualClock::new();
    let cluster = Cluster::builder().brokers(3).replication(3).clock(clock.shared()).build();
    cluster.create_topic("events", TopicConfig::new(2)).unwrap();
    cluster.create_topic("counts", TopicConfig::new(2)).unwrap();
    let mut app =
        KafkaStreamsApp::new(cluster.clone(), counting_topology(), eos_config(), "instance-0");
    app.start().unwrap();
    app.step().unwrap();
    clock.advance(10);
    app.step().unwrap();

    let ring = || (kobs::ktrace::finished_spans(), kobs::trace::tail(usize::MAX));
    let before = ring();
    let trees_before = kobs::ktrace::recent_trees(usize::MAX).len();
    for _ in 0..20 {
        let idle = app.step().unwrap();
        assert_eq!((idle.processed, idle.committed), (0, false));
    }
    assert!(ring() == before, "an idle cycle reached the ring");
    assert_eq!(kobs::ktrace::recent_trees(usize::MAX).len(), trees_before);
    if !kobs::ENABLED {
        return;
    }

    // Every event has the same key: one of the two tasks has work.
    send_events(&cluster, 3, 0);
    assert_eq!(app.step().unwrap().processed, 3);
    let trees = kobs::ktrace::recent_trees(usize::MAX);
    assert_eq!(trees.len(), trees_before + 1);
    assert_eq!(
        tree_shape(trees.last().unwrap()),
        [
            "cycle<",
            "task<cycle",
            "fetch<task",
            "process<task",
            "add_partitions<cycle",
            "append<add_partitions",
            "append<cycle",
            "append<cycle",
        ]
    );

    clock.advance(10);
    assert!(app.step().unwrap().committed);
    let trees = kobs::ktrace::recent_trees(usize::MAX);
    assert_eq!(
        tree_shape(trees.last().unwrap()),
        [
            "cycle<",
            "commit<cycle",
            "offset_commit<commit",
            "add_partitions<offset_commit",
            "append<add_partitions",
            "append<offset_commit",
            "prepare<commit",
            "append<prepare",
            "markers<commit",
            "append_control<markers",
            "append_control<markers",
            "append_control<markers",
            "complete<commit",
            "append<complete",
            "txn_commit<commit",
        ]
    );

    // A cycle that processes nothing but punctuates output is kept whole.
    cluster.create_topic("ticks", TopicConfig::new(1)).unwrap();
    cluster.create_topic("alarms", TopicConfig::new(1)).unwrap();
    let at = cluster.now_ms() + 50;
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, String>("ticks")
        .process::<String, String>(
            Arc::new(move |_| Box::new(Alarm { at, fired: false })),
            Vec::new(),
        )
        .to("alarms");
    let config = StreamsConfig::new("alarm-app").with_commit_interval_ms(1_000_000);
    let mut alarm =
        KafkaStreamsApp::new(cluster.clone(), Arc::new(builder.build().unwrap()), config, "i-1");
    alarm.start().unwrap();
    alarm.step().unwrap();
    let trees_before = kobs::ktrace::recent_trees(usize::MAX).len();
    for _ in 0..3 {
        assert_eq!(alarm.step().unwrap().processed, 0);
    }
    assert_eq!(kobs::ktrace::recent_trees(usize::MAX).len(), trees_before);
    clock.advance(50);
    let fired = alarm.step().unwrap();
    assert_eq!((fired.processed, fired.committed), (0, false));
    let trees = kobs::ktrace::recent_trees(usize::MAX);
    assert_eq!(trees.len(), trees_before + 1);
    assert_eq!(
        tree_shape(trees.last().unwrap()),
        ["cycle<", "task<cycle", "fetch<task", "punctuate<task", "append<cycle"]
    );
}

/// On disk a replicated append is still one span: the leader's `append`,
/// holding the `fsync` of the segment it rolled. A follower's install
/// records no span, so its sync lands nowhere in the tree; a roll is an
/// event of each replica that rolls, under the thread's current span like
/// every event.
#[test]
fn a_replicated_disk_append_is_one_span_holding_its_fsync() {
    let _serial = OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    kobs::reset();
    let dir = std::env::temp_dir().join(format!("obs-disk-append-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = Cluster::builder()
        .brokers(3)
        .replication(3)
        .storage(StorageMode::Disk(DiskConfig::at(&dir).with_roll_records(2)))
        .build();
    cluster.create_topic("events", TopicConfig::new(1)).unwrap();
    let mut producer = Producer::new(cluster.clone(), ProducerConfig::default());
    let root = kobs::span!(0, "kstreams", "cycle");
    let entered = kobs::ktrace::enter(root);
    for i in 0..5 {
        producer.send("events", None, Some(format!("e{i}").to_bytes()), i).unwrap();
        producer.flush().unwrap();
    }
    drop(entered);
    kobs::ktrace::finish_span(root, 1_000);
    drop(cluster);
    std::fs::remove_dir_all(&dir).unwrap();
    if !kobs::ENABLED {
        return;
    }
    // Two records per segment: the appends of offsets 2 and 4 roll.
    let roll = ["append<cycle", "fsync<append"]
        .into_iter()
        .chain(["segment_roll<cycle"; 3])
        .collect::<Vec<_>>();
    let mut expected = vec!["cycle<", "append<cycle", "append<cycle"];
    expected.extend(&roll);
    expected.push("append<cycle");
    expected.extend(&roll);
    let tree = kobs::ktrace::recent_trees(1).pop().unwrap();
    assert_eq!(tree_shape(&tree), expected);
}
