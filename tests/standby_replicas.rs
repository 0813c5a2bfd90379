//! Standby-replica tests (§3.3 state-migration minimization; §8's
//! queryable-replica future work): warm store copies on other instances,
//! near-zero-restore promotion on failover, and standby queries.

use bytes::Bytes;
use kbroker::{
    group::SESSION_TIMEOUT_MS, Cluster, Producer, ProducerConfig, TopicConfig,
    DEFAULT_TXN_TIMEOUT_MS,
};
use kstreams::dsl::windows::JoinWindows;
use kstreams::topology::{NodeKind, Topology};
use kstreams::{KSerde, KafkaStreamsApp, StreamsBuilder, StreamsConfig};
use simkit::ManualClock;
use std::sync::Arc;

fn counting_topology() -> Arc<Topology> {
    let builder = StreamsBuilder::new();
    builder.stream::<String, String>("events").group_by_key().count("counts").to_stream().to("out");
    Arc::new(builder.build().unwrap())
}

struct Setup {
    cluster: Cluster,
    clock: ManualClock,
}

fn setup() -> Setup {
    let clock = ManualClock::new();
    let cluster = Cluster::builder().brokers(3).replication(3).clock(clock.shared()).build();
    cluster.create_topic("events", TopicConfig::new(2)).unwrap();
    cluster.create_topic("out", TopicConfig::new(2)).unwrap();
    Setup { cluster, clock }
}

fn app(s: &Setup, id: &str) -> KafkaStreamsApp {
    KafkaStreamsApp::new(
        s.cluster.clone(),
        counting_topology(),
        StreamsConfig::new("sb-app")
            .exactly_once()
            .with_commit_interval_ms(10)
            .with_standby_replicas(1),
        id,
    )
}

fn send_many(cluster: &Cluster, n: usize) {
    let mut p = Producer::new(cluster.clone(), ProducerConfig::default());
    for i in 0..n {
        p.send(
            "events",
            Some(format!("k{}", i % 10).to_bytes()),
            Some(Bytes::from_static(b"x")),
            i as i64,
        )
        .unwrap();
    }
    p.flush().unwrap();
}

#[test]
fn standbys_are_hosted_on_the_other_instance() {
    let s = setup();
    let mut a = app(&s, "a");
    let mut b = app(&s, "b");
    a.start().unwrap();
    b.start().unwrap();
    for _ in 0..5 {
        a.step().unwrap();
        b.step().unwrap();
        s.clock.advance(10);
    }
    // 2 tasks total; each instance runs 1 active and hosts the other's
    // standby.
    assert_eq!(a.task_ids().len(), 1);
    assert_eq!(b.task_ids().len(), 1);
    assert_eq!(a.standby_ids().len(), 1);
    assert_eq!(b.standby_ids().len(), 1);
    assert_ne!(a.task_ids(), a.standby_ids(), "standby ≠ active on one instance");
    a.close().unwrap();
    b.close().unwrap();
}

#[test]
fn standby_tails_changelog_and_is_queryable() {
    let s = setup();
    let mut a = app(&s, "a");
    let mut b = app(&s, "b");
    a.start().unwrap();
    b.start().unwrap();
    send_many(&s.cluster, 100);
    for _ in 0..20 {
        a.step().unwrap();
        b.step().unwrap();
        s.clock.advance(10);
    }
    let applied = a.metrics().standby_records_applied + b.metrics().standby_records_applied;
    assert!(applied >= 100, "standbys replayed the changelog: {applied}");
    // Every key is queryable SOMEWHERE as a standby copy.
    let mut found = 0;
    for k in 0..10 {
        let key = format!("k{k}").to_bytes();
        if a.query_standby_kv("counts", &key).is_some()
            || b.query_standby_kv("counts", &key).is_some()
        {
            found += 1;
        }
    }
    assert_eq!(found, 10, "all keys served by standby replicas");
    a.close().unwrap();
    b.close().unwrap();
}

#[test]
fn failover_promotion_replays_only_the_suffix() {
    let s = setup();
    let mut a = app(&s, "a");
    let mut b = app(&s, "b");
    a.start().unwrap();
    b.start().unwrap();
    // Build up a large changelog.
    send_many(&s.cluster, 400);
    for _ in 0..30 {
        a.step().unwrap();
        b.step().unwrap();
        s.clock.advance(10);
    }
    // a crashes; b must take over a's task.
    a.crash();
    s.clock.advance(SESSION_TIMEOUT_MS + 1);
    b.step().unwrap(); // b heartbeats; only the crashed instance is stale
    s.cluster.abort_expired_transactions();
    s.cluster.group_expire_members("sb-app");
    let restore_before = b.metrics().restore_records;
    for _ in 0..10 {
        b.step().unwrap();
        s.clock.advance(10);
    }
    assert_eq!(b.task_ids().len(), 2, "b owns everything now");
    let delta = b.metrics().restore_records - restore_before;
    assert!(
        delta < 20,
        "promotion from a warm standby must replay only a small suffix, replayed {delta}"
    );
    b.close().unwrap();
}

#[test]
fn cold_failover_without_standby_replays_everything() {
    // Control experiment for the one above: same scenario, standbys off.
    let s = setup();
    let mk = |id: &str| {
        KafkaStreamsApp::new(
            s.cluster.clone(),
            counting_topology(),
            StreamsConfig::new("sb-app").exactly_once().with_commit_interval_ms(10),
            id,
        )
    };
    let mut a = mk("a");
    let mut b = mk("b");
    a.start().unwrap();
    b.start().unwrap();
    send_many(&s.cluster, 400);
    for _ in 0..30 {
        a.step().unwrap();
        b.step().unwrap();
        s.clock.advance(10);
    }
    a.crash();
    s.clock.advance(SESSION_TIMEOUT_MS + 1);
    b.step().unwrap(); // b heartbeats; only the crashed instance is stale
    s.cluster.abort_expired_transactions();
    s.cluster.group_expire_members("sb-app");
    let restore_before = b.metrics().restore_records;
    for _ in 0..10 {
        b.step().unwrap();
        s.clock.advance(10);
    }
    let delta = b.metrics().restore_records - restore_before;
    assert!(delta >= 150, "cold restore replays the whole changelog partition: {delta}");
    b.close().unwrap();
}

#[test]
fn promoted_task_continues_counting_correctly() {
    let s = setup();
    let mut a = app(&s, "a");
    let mut b = app(&s, "b");
    a.start().unwrap();
    b.start().unwrap();
    send_many(&s.cluster, 100); // 10 per key
    for _ in 0..20 {
        a.step().unwrap();
        b.step().unwrap();
        s.clock.advance(10);
    }
    a.crash();
    s.clock.advance(SESSION_TIMEOUT_MS.max(DEFAULT_TXN_TIMEOUT_MS) + 1);
    b.step().unwrap(); // b heartbeats; only the crashed instance is stale
    s.cluster.abort_expired_transactions();
    s.cluster.group_expire_members("sb-app");
    send_many(&s.cluster, 100); // 10 more per key
    for _ in 0..30 {
        b.step().unwrap();
        s.clock.advance(10);
    }
    for k in 0..10 {
        let key = format!("k{k}").to_bytes();
        assert_eq!(
            b.query_kv("counts", &key).map(|v| i64::from_bytes(&v).unwrap()),
            Some(20),
            "key k{k} must count all 20 occurrences across the failover"
        );
    }
    b.close().unwrap();
}

#[test]
fn single_instance_hosts_no_standbys() {
    let s = setup();
    let mut a = app(&s, "solo");
    a.start().unwrap();
    a.step().unwrap();
    assert_eq!(a.task_ids().len(), 2);
    assert!(a.standby_ids().is_empty(), "nowhere else to host replicas");
    a.close().unwrap();
}

/// A windowed left join whose sub-topology holds three changelogged stores
/// (both join buffers and the left side's pending padding) that its join
/// nodes declare in an order other than name order. Records of one key
/// are 10 ms apart, so a record matches at most one partner; the grace
/// period outlasts the test, so nothing pads or expires.
fn left_join_topology() -> Arc<Topology> {
    let builder = StreamsBuilder::new();
    let right = builder.stream::<String, String>("right");
    builder
        .stream::<String, String>("left")
        .left_join(&right, JoinWindows::of(5).grace(1_000_000), |l, r: Option<&String>| {
            format!("{l}+{}", r.map_or("-", String::as_str))
        })
        .to("joined");
    Arc::new(builder.build().unwrap())
}

#[test]
fn promotion_over_several_stores_matches_a_cold_restore() {
    let clock = ManualClock::new();
    let s = Setup {
        cluster: Cluster::builder().brokers(3).replication(3).clock(clock.shared()).build(),
        clock,
    };
    for topic in ["left", "right", "joined"] {
        s.cluster.create_topic(topic, TopicConfig::new(2)).unwrap();
    }
    let topology = left_join_topology();
    let declared = topology.nodes.iter().find_map(|n| match &n.kind {
        NodeKind::Processor { stores, .. } if !stores.is_empty() => Some(stores.clone()),
        _ => None,
    });
    let declared = declared.expect("the join declares its stores");
    let mut by_name = declared.clone();
    by_name.sort();
    assert_eq!(declared.len(), 3);
    assert_ne!(declared, by_name, "declaration order differs from name order");
    let app = |id: &str, standbys: usize| {
        let config = StreamsConfig::new("sbj-app")
            .exactly_once()
            .with_commit_interval_ms(10)
            .with_standby_replicas(standbys);
        KafkaStreamsApp::new(s.cluster.clone(), topology.clone(), config, id)
    };

    let mut a = app("a", 1);
    let mut b = app("b", 1);
    a.start().unwrap();
    b.start().unwrap();
    let send = |records: std::ops::Range<i64>| {
        let mut p = Producer::new(s.cluster.clone(), ProducerConfig::default());
        for i in records {
            let key = format!("k{}", i % 10).to_bytes();
            p.send("left", Some(key.clone()), Some(format!("l{i}").to_bytes()), i).unwrap();
            // Odd keys never match: their left records wait in the pending
            // store.
            if i % 2 == 0 {
                p.send("right", Some(key), Some(format!("r{i}").to_bytes()), i).unwrap();
            }
        }
        p.flush().unwrap();
    };
    send(0..200);
    for _ in 0..30 {
        a.step().unwrap();
        b.step().unwrap();
        s.clock.advance(10);
    }
    assert_eq!((a.standby_ids().len(), b.standby_ids().len()), (1, 1));
    // a commits a last round that b's standby has not tailed, and leaves:
    // b promotes its standby of a's task, replaying that round's suffix.
    send(200..220);
    a.step().unwrap();
    a.close().unwrap();
    let restore_before = b.metrics().restore_records;
    for _ in 0..10 {
        b.step().unwrap();
        s.clock.advance(10);
    }
    assert_eq!(b.task_ids().len(), 2, "b owns everything now");
    let promoted = b.metrics().restore_records - restore_before;
    let warm = b.dump_stores();
    b.close().unwrap();

    // A fresh instance with no standby replays every changelog in full.
    let mut c = app("c", 0);
    c.start().unwrap();
    for _ in 0..10 {
        c.step().unwrap();
        s.clock.advance(10);
    }
    assert_eq!(c.task_ids().len(), 2, "c owns everything now");
    let cold = c.metrics().restore_records;
    let cold_dump = c.dump_stores();
    for name in &declared {
        let rows: usize =
            cold_dump.iter().filter(|((_, store), _)| store == name).map(|(_, v)| v.len()).sum();
        assert!(rows > 0, "store {name} holds state");
    }
    assert_eq!(warm, cold_dump, "the promoted stores equal a cold restore's");
    assert!(
        promoted > 0 && promoted * 10 < cold,
        "promotion replays only the suffix: {promoted} records against {cold} cold"
    );
    c.close().unwrap();
}
