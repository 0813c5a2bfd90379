//! Consistency tests (§2.1, §4, Figure 1): crash/recovery, duplicate
//! suppression, zombie fencing, and task migration with state restore.
//!
//! The central scenario is Figure 1: a stateful processor crashes after
//! updating its state but before acknowledging (committing) its input. At
//! least-once processing double-updates the state on recovery; exactly-once
//! does not.

use bytes::Bytes;
use kbroker::{Cluster, Consumer, ConsumerConfig, Producer, ProducerConfig, TopicConfig};
use kstreams::{KSerde, KafkaStreamsApp, StreamsBuilder, StreamsConfig, StreamsError};
use simkit::{FaultDecision, FaultPlan, FaultPoint, ManualClock};
use std::collections::HashMap;
use std::sync::Arc;

/// A stateful per-key counter: input "events" → output "counts".
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

struct Setup {
    cluster: Cluster,
    clock: ManualClock,
}

fn setup_with(faults: FaultPlan) -> Setup {
    let clock = ManualClock::new();
    let cluster =
        Cluster::builder().brokers(3).replication(3).clock(clock.shared()).faults(faults).build();
    cluster.create_topic("events", TopicConfig::new(1)).unwrap();
    cluster.create_topic("counts", TopicConfig::new(1)).unwrap();
    Setup { cluster, clock }
}

fn setup() -> Setup {
    setup_with(FaultPlan::none())
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

/// Latest committed count per key from the output topic, plus the total
/// record count (duplicates visible in the total).
fn read_output(cluster: &Cluster) -> (HashMap<String, i64>, usize) {
    let mut consumer =
        Consumer::new(cluster.clone(), "verify", ConsumerConfig::default().read_committed());
    consumer.assign(cluster.partitions_of("counts").unwrap()).unwrap();
    let mut latest = HashMap::new();
    let mut total = 0;
    loop {
        let batch = consumer.poll().unwrap();
        if batch.is_empty() {
            break;
        }
        for rec in batch {
            let k = String::from_bytes(rec.key.as_ref().unwrap()).unwrap();
            let v = i64::from_bytes(rec.value.as_ref().unwrap()).unwrap();
            latest.insert(k, v);
            total += 1;
        }
    }
    (latest, total)
}

fn eos_config() -> StreamsConfig {
    StreamsConfig::new("counter-app")
        .exactly_once()
        .with_commit_interval_ms(10)
        .with_producer_batch_size(1)
}

fn alos_config() -> StreamsConfig {
    StreamsConfig::new("counter-app").with_commit_interval_ms(10).with_producer_batch_size(1)
}

fn run_app(setup: &Setup, config: StreamsConfig, instance: &str, steps: usize) {
    let mut app =
        KafkaStreamsApp::new(setup.cluster.clone(), counting_topology(), config, instance);
    app.start().unwrap();
    for _ in 0..steps {
        app.step().unwrap();
        setup.clock.advance(10);
    }
    app.close().unwrap();
}

#[test]
fn figure1_alos_crash_double_updates_state() {
    let s = setup();
    send_events(&s.cluster, 3, 0);
    // Instance processes all 3 events, flushes outputs and changelog, but
    // crashes BEFORE committing offsets (Figure 1.b).
    {
        let mut app = KafkaStreamsApp::new(
            s.cluster.clone(),
            counting_topology(),
            // Huge commit interval: no commit ever happens before the crash.
            alos_config().with_commit_interval_ms(1_000_000),
            "instance-0",
        );
        app.start().unwrap();
        for _ in 0..5 {
            app.step().unwrap();
            s.clock.advance(10);
        }
        // Outputs/changelog are on the broker (batch size 1); offsets not
        // committed. Crash.
        app.crash();
    }
    // The crashed member's session expires; the group rebalances (§3.1).
    s.clock.advance(kbroker::group::SESSION_TIMEOUT_MS + 1);
    s.cluster.group_expire_members("counter-app");
    // Recovery (Figure 1.c): restores state (count = 3 from the changelog),
    // then re-fetches from offset 0 and re-processes.
    run_app(&s, alos_config(), "instance-1", 10);
    let (latest, total) = read_output(&s.cluster);
    assert_eq!(latest["key"], 6, "at-least-once double-counts after the crash");
    assert!(total > 3, "duplicate output records visible");
}

#[test]
fn figure1_eos_crash_is_exactly_once() {
    let s = setup();
    send_events(&s.cluster, 3, 0);
    {
        let mut app = KafkaStreamsApp::new(
            s.cluster.clone(),
            counting_topology(),
            eos_config().with_commit_interval_ms(1_000_000),
            "instance-0",
        );
        app.start().unwrap();
        for _ in 0..5 {
            app.step().unwrap();
            s.clock.advance(10);
        }
        app.crash();
    }
    // The crashed instance's transaction is still open; a same-id restart
    // would fence it instantly, but here a *different* instance takes over,
    // so the coordinator aborts it on timeout (§4.2.2), and the dead
    // member's group session expires.
    s.clock.advance(s.cluster.default_txn_timeout_ms() + 1);
    assert_eq!(s.cluster.abort_expired_transactions(), 1);
    s.cluster.group_expire_members("counter-app");

    run_app(&s, eos_config(), "instance-1", 20);
    let (latest, total) = read_output(&s.cluster);
    assert_eq!(latest["key"], 3, "exactly-once: state reflects each record once");
    assert_eq!(total, 3, "no duplicate visible outputs");
}

#[test]
fn eos_same_instance_restart_fences_and_recovers_immediately() {
    let s = setup();
    send_events(&s.cluster, 3, 0);
    {
        let mut app = KafkaStreamsApp::new(
            s.cluster.clone(),
            counting_topology(),
            eos_config().with_commit_interval_ms(1_000_000),
            "instance-0",
        );
        app.start().unwrap();
        for _ in 0..5 {
            app.step().unwrap();
            s.clock.advance(10);
        }
        app.crash();
    }
    // Same instance id restarts: init_transactions aborts the dangling
    // transaction and bumps the epoch — no timeout wait needed (§4.2.1).
    run_app(&s, eos_config(), "instance-0", 20);
    let (latest, total) = read_output(&s.cluster);
    assert_eq!(latest["key"], 3);
    assert_eq!(total, 3);
}

#[test]
fn committed_work_survives_crash_without_reprocessing() {
    let s = setup();
    send_events(&s.cluster, 3, 0);
    // First instance processes AND commits, then crashes.
    {
        let mut app = KafkaStreamsApp::new(
            s.cluster.clone(),
            counting_topology(),
            eos_config(),
            "instance-0",
        );
        app.start().unwrap();
        for _ in 0..10 {
            app.step().unwrap();
            s.clock.advance(10);
        }
        app.crash();
    }
    // Recovery resumes from the committed offsets: no reprocessing.
    send_events(&s.cluster, 2, 100);
    run_app(&s, eos_config(), "instance-0", 20);
    let (latest, total) = read_output(&s.cluster);
    assert_eq!(latest["key"], 5);
    assert_eq!(total, 5, "each input produced exactly one output");
}

#[test]
fn zombie_instance_cannot_commit() {
    let s = setup();
    send_events(&s.cluster, 2, 0);
    let mut old = KafkaStreamsApp::new(
        s.cluster.clone(),
        counting_topology(),
        eos_config().with_commit_interval_ms(1_000_000),
        "instance-0",
    );
    old.start().unwrap();
    old.step().unwrap(); // processes, transaction open, nothing committed

    // A new incarnation of the same instance registers (§2.1's zombie
    // scenario: the old one is presumed dead but still runs).
    let mut new =
        KafkaStreamsApp::new(s.cluster.clone(), counting_topology(), eos_config(), "instance-0");
    new.start().unwrap();

    // The zombie tries to continue: its producer epoch is stale.
    let err = old.commit().unwrap_err();
    assert!(matches!(err, StreamsError::Fenced(_)), "zombie must be fenced, got {err:?}");

    // The new incarnation processes everything exactly once.
    for _ in 0..20 {
        new.step().unwrap();
        s.clock.advance(10);
    }
    new.close().unwrap();
    let (latest, total) = read_output(&s.cluster);
    assert_eq!(latest["key"], 2);
    assert_eq!(total, 2);
}

#[test]
fn lost_acks_with_eos_do_not_duplicate() {
    // Every 3rd produce ack vanishes (§2.1's RPC failure); idempotent
    // sequences absorb the retries end-to-end.
    let faults = FaultPlan::seeded(7).with_ack_loss(FaultPoint::ProduceAckLost, 0.34);
    let s = setup_with(faults);
    send_events(&s.cluster, 10, 0);
    s.cluster.faults().disable(); // only the app's own sends see faults below
    s.cluster.faults().enable();
    run_app(&s, eos_config(), "instance-0", 30);
    let (latest, total) = read_output(&s.cluster);
    assert_eq!(latest["key"], 10);
    assert_eq!(total, 10, "retried appends deduplicated by sequence numbers");
}

#[test]
fn lost_acks_without_idempotence_duplicate_outputs() {
    // Control experiment for the one above: at-least-once + scripted ack
    // loss on the app's first output append ⇒ a duplicate output record.
    let faults = FaultPlan::none().script(FaultPoint::ProduceAckLost, 2, FaultDecision::DropAck);
    let s = setup_with(faults);
    // Fault op #1 is the test generator's send; #2 is the app's first
    // output/changelog append.
    send_events(&s.cluster, 1, 0);
    run_app(&s, alos_config(), "instance-0", 10);
    let (_, total) = read_output(&s.cluster);
    // Depending on whether the changelog or the output append hit the
    // fault, the output topic has 1 or 2 records — but the broker level
    // *must* show a duplicated append somewhere.
    let events = s.cluster.topic_record_count("events").unwrap();
    assert_eq!(events, 1);
    let outputs = s.cluster.topic_record_count("counts").unwrap();
    let changelog: usize =
        s.cluster.topic_record_count("counter-app-event-counts-changelog").unwrap();
    assert!(
        outputs + changelog > 2,
        "expected a duplicated append, got outputs={outputs} changelog={changelog} total={total}"
    );
}

#[test]
fn task_migration_restores_state_from_changelog() {
    let s = setup();
    send_events(&s.cluster, 4, 0);
    // Instance A processes and commits.
    {
        let mut a = KafkaStreamsApp::new(
            s.cluster.clone(),
            counting_topology(),
            eos_config(),
            "instance-a",
        );
        a.start().unwrap();
        for _ in 0..10 {
            a.step().unwrap();
            s.clock.advance(10);
        }
        a.close().unwrap(); // graceful: leaves the group
    }
    // Instance B starts fresh on another "host": must restore count=4 by
    // replaying the changelog (§3.3), then continue.
    send_events(&s.cluster, 1, 50);
    let mut b =
        KafkaStreamsApp::new(s.cluster.clone(), counting_topology(), eos_config(), "instance-b");
    b.start().unwrap();
    for _ in 0..10 {
        b.step().unwrap();
        s.clock.advance(10);
    }
    assert!(b.metrics().restore_records >= 1, "state was restored by replay");
    assert_eq!(
        b.query_kv("event-counts", &"key".to_string().to_bytes())
            .map(|b| i64::from_bytes(&b).unwrap()),
        Some(5),
        "restored state continued from 4 to 5"
    );
    b.close().unwrap();
    let (latest, _) = read_output(&s.cluster);
    assert_eq!(latest["key"], 5);
}

#[test]
fn broker_failure_is_transparent_to_the_app() {
    let s = setup();
    send_events(&s.cluster, 3, 0);
    let mut app =
        KafkaStreamsApp::new(s.cluster.clone(), counting_topology(), eos_config(), "instance-0");
    app.start().unwrap();
    for _ in 0..5 {
        app.step().unwrap();
        s.clock.advance(10);
    }
    // Kill the leader of everything mid-run; replication + coordinator
    // failover keep the pipeline going (§4 intro, §4.2.1).
    s.cluster.kill_broker(0);
    send_events(&s.cluster, 2, 100);
    for _ in 0..20 {
        app.step().unwrap();
        s.clock.advance(10);
    }
    app.close().unwrap();
    let (latest, total) = read_output(&s.cluster);
    assert_eq!(latest["key"], 5);
    assert_eq!(total, 5);
}

#[test]
fn interactive_query_reads_current_state() {
    let s = setup();
    send_events(&s.cluster, 7, 0);
    let mut app =
        KafkaStreamsApp::new(s.cluster.clone(), counting_topology(), eos_config(), "instance-0");
    app.start().unwrap();
    for _ in 0..10 {
        app.step().unwrap();
        s.clock.advance(10);
    }
    assert_eq!(
        app.query_kv("event-counts", &"key".to_string().to_bytes())
            .map(|b| i64::from_bytes(&b).unwrap()),
        Some(7)
    );
    assert_eq!(app.query_kv("event-counts", &"ghost".to_string().to_bytes()), None);
    app.close().unwrap();
}

#[test]
fn metrics_reflect_processing() {
    let s = setup();
    send_events(&s.cluster, 5, 0);
    let mut app =
        KafkaStreamsApp::new(s.cluster.clone(), counting_topology(), eos_config(), "instance-0");
    app.start().unwrap();
    for _ in 0..10 {
        app.step().unwrap();
        s.clock.advance(10);
    }
    let m = app.metrics();
    assert_eq!(m.records_processed, 5);
    assert_eq!(m.records_emitted, 5);
    assert!(m.transactions >= 1);
    assert!(m.commit_cycles >= m.transactions);
    assert_eq!(m.active_tasks, 1);
    app.close().unwrap();
}

#[test]
fn two_instances_split_work_and_agree() {
    let clock = ManualClock::new();
    let cluster = Cluster::builder().brokers(3).replication(3).clock(clock.shared()).build();
    cluster.create_topic("events", TopicConfig::new(4)).unwrap();
    cluster.create_topic("counts", TopicConfig::new(4)).unwrap();
    // Keys spread over partitions.
    let mut p = Producer::new(cluster.clone(), ProducerConfig::default());
    for i in 0..40 {
        let key = format!("k{}", i % 8);
        p.send("events", Some(key.to_bytes()), Some(Bytes::from_static(b"x")), i).unwrap();
    }
    p.flush().unwrap();

    let mk = |id: &str| {
        KafkaStreamsApp::new(
            cluster.clone(),
            counting_topology(),
            StreamsConfig::new("counter-app").exactly_once().with_commit_interval_ms(10),
            id,
        )
    };
    let mut a = mk("a");
    let mut b = mk("b");
    a.start().unwrap();
    b.start().unwrap();
    for _ in 0..20 {
        a.step().unwrap();
        b.step().unwrap();
        clock.advance(10);
    }
    // Work was split.
    assert_eq!(a.task_ids().len(), 2);
    assert_eq!(b.task_ids().len(), 2);
    a.close().unwrap();
    b.close().unwrap();

    let (latest, total) = read_output(&cluster);
    assert_eq!(total, 40, "each input produced exactly one output");
    assert_eq!(latest.len(), 8);
    assert!(latest.values().all(|&c| c == 5), "{latest:?}");
}

#[test]
fn run_until_idle_drains_everything() {
    let s = setup();
    send_events(&s.cluster, 25, 0);
    let mut app =
        KafkaStreamsApp::new(s.cluster.clone(), counting_topology(), eos_config(), "instance-0");
    app.start().unwrap();
    // Interleave clock advances so the commit interval elapses.
    for _ in 0..5 {
        s.clock.advance(50);
        app.step().unwrap();
    }
    app.run_until_idle(3).unwrap();
    assert_eq!(app.metrics().records_processed, 25);
    app.close().unwrap();
    let (latest, total) = read_output(&s.cluster);
    assert_eq!(total, 25);
    assert_eq!(latest["key"], 25);
}

#[test]
fn consumer_group_offsets_fence_across_generations_in_eos() {
    // End-to-end: the generation check inside send_offsets_to_transaction
    // (§4.2.3 + zombie consumers of §2.1).
    let s = setup();
    send_events(&s.cluster, 2, 0);
    let mut old = KafkaStreamsApp::new(
        s.cluster.clone(),
        counting_topology(),
        eos_config().with_commit_interval_ms(1_000_000),
        "instance-0",
    );
    old.start().unwrap();
    old.step().unwrap(); // open transaction, offsets not yet committed
                         // Membership changes underneath (a second instance joins).
    let mut newcomer =
        KafkaStreamsApp::new(s.cluster.clone(), counting_topology(), eos_config(), "instance-1");
    newcomer.start().unwrap();
    // The old instance's next explicit commit is overtaken: with the public
    // commit() API this surfaces as an error...
    let err = old.commit().unwrap_err();
    assert!(
        matches!(err, StreamsError::Broker(kbroker::BrokerError::IllegalGeneration { .. })),
        "{err:?}"
    );
    // ...while step() handles it internally (abort + rebuild) and both
    // instances converge to exactly-once output.
    for _ in 0..20 {
        old.step().unwrap();
        newcomer.step().unwrap();
        s.clock.advance(10);
    }
    old.close().unwrap();
    newcomer.close().unwrap();
    let (latest, total) = read_output(&s.cluster);
    assert_eq!(total, 2);
    assert_eq!(latest["key"], 2);
}
