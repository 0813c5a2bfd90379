//! Standby-replica tests (§3.3 state-migration minimization; §8's
//! queryable-replica future work): warm store copies on other instances,
//! near-zero-restore promotion on failover, and standby queries.

use bytes::Bytes;
use kbroker::{
    group::SESSION_TIMEOUT_MS, Cluster, Producer, ProducerConfig, TopicConfig,
    DEFAULT_TXN_TIMEOUT_MS,
};
use kstreams::{KSerde, KafkaStreamsApp, StreamsBuilder, StreamsConfig};
use simkit::ManualClock;
use std::sync::Arc;

fn counting_topology() -> Arc<kstreams::topology::Topology> {
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
