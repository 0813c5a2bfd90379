//! Tests for the §3.3 topology optimization: a table read directly from a
//! topic uses that topic as its changelog — no duplicate internal topic, and
//! restore replays the source up to the committed offset only.

use kbroker::{
    group::SESSION_TIMEOUT_MS, Cluster, Producer, ProducerConfig, TopicConfig,
    DEFAULT_TXN_TIMEOUT_MS,
};
use kstreams::{KSerde, KafkaStreamsApp, StreamsBuilder, StreamsConfig};
use simkit::ManualClock;
use std::sync::Arc;

fn table_topology() -> Arc<kstreams::topology::Topology> {
    let builder = StreamsBuilder::new();
    builder
        .table::<String, String>("profiles", "profile-store")
        .map_values(|_k, v| v.to_uppercase())
        .to_stream()
        .to("out");
    Arc::new(builder.build().unwrap())
}

struct Setup {
    cluster: Cluster,
    clock: ManualClock,
}

fn setup() -> Setup {
    let clock = ManualClock::new();
    let cluster = Cluster::builder().brokers(1).replication(1).clock(clock.shared()).build();
    cluster.create_topic("profiles", TopicConfig::new(1)).unwrap();
    cluster.create_topic("out", TopicConfig::new(1)).unwrap();
    Setup { cluster, clock }
}

fn upsert(cluster: &Cluster, key: &str, value: &str, ts: i64) {
    let mut p = Producer::new(cluster.clone(), ProducerConfig::default());
    p.send("profiles", Some(key.to_string().to_bytes()), Some(value.to_string().to_bytes()), ts)
        .unwrap();
    p.flush().unwrap();
}

#[test]
fn no_changelog_topic_is_created_for_source_tables() {
    let s = setup();
    let topology = table_topology();
    assert!(
        topology.internal_topics.is_empty(),
        "source-changelog optimization must suppress the changelog topic: {:?}",
        topology.internal_topics
    );
    assert!(topology.source_changelogs.contains_key("profile-store"));
    let mut app = KafkaStreamsApp::new(
        s.cluster.clone(),
        topology,
        StreamsConfig::new("opt-app").exactly_once().with_commit_interval_ms(10),
        "i0",
    );
    app.start().unwrap();
    app.step().unwrap();
    assert!(
        !s.cluster.topic_exists("opt-app-profile-store-changelog"),
        "no physical changelog topic either"
    );
    app.close().unwrap();
}

#[test]
fn restore_replays_source_up_to_committed_offset() {
    let s = setup();
    for i in 0..20 {
        upsert(&s.cluster, &format!("k{}", i % 4), &format!("v{i}"), i);
    }
    // First incarnation processes and commits everything.
    {
        let mut app = KafkaStreamsApp::new(
            s.cluster.clone(),
            table_topology(),
            StreamsConfig::new("opt-app").exactly_once().with_commit_interval_ms(10),
            "i0",
        );
        app.start().unwrap();
        for _ in 0..10 {
            app.step().unwrap();
            s.clock.advance(10);
        }
        app.close().unwrap();
    }
    // More upserts arrive that no one has processed yet.
    for i in 20..25 {
        upsert(&s.cluster, "k0", &format!("late{i}"), i);
    }
    // Second incarnation must restore from the SOURCE topic, bounded at the
    // committed offset (20) — the 5 late records are *processed*, not
    // restored.
    let mut app = KafkaStreamsApp::new(
        s.cluster.clone(),
        table_topology(),
        StreamsConfig::new("opt-app").exactly_once().with_commit_interval_ms(10),
        "i1",
    );
    app.start().unwrap();
    assert_eq!(app.metrics().restore_records, 20, "restore covers exactly the committed prefix");
    assert_eq!(
        app.query_kv("profile-store", &"k0".to_string().to_bytes())
            .map(|b| String::from_bytes(&b).unwrap()),
        Some("v16".into()),
        "restored state is the committed-prefix materialization"
    );
    for _ in 0..10 {
        app.step().unwrap();
        s.clock.advance(10);
    }
    assert_eq!(
        app.query_kv("profile-store", &"k0".to_string().to_bytes())
            .map(|b| String::from_bytes(&b).unwrap()),
        Some("late24".into()),
        "late records processed on top of the restored prefix"
    );
    app.close().unwrap();
}

#[test]
fn table_semantics_survive_crash_with_source_restore() {
    let s = setup();
    upsert(&s.cluster, "alice", "berlin", 0);
    upsert(&s.cluster, "alice", "tokyo", 1);
    {
        let mut app = KafkaStreamsApp::new(
            s.cluster.clone(),
            table_topology(),
            StreamsConfig::new("opt-app").exactly_once().with_commit_interval_ms(10),
            "i0",
        );
        app.start().unwrap();
        for _ in 0..10 {
            app.step().unwrap();
            s.clock.advance(10);
        }
        app.crash();
    }
    s.clock.advance(SESSION_TIMEOUT_MS.max(DEFAULT_TXN_TIMEOUT_MS) + 1);
    s.cluster.abort_expired_transactions();
    s.cluster.group_expire_members("opt-app");
    upsert(&s.cluster, "alice", "lisbon", 2);
    let mut app = KafkaStreamsApp::new(
        s.cluster.clone(),
        table_topology(),
        StreamsConfig::new("opt-app").exactly_once().with_commit_interval_ms(10),
        "i1",
    );
    app.start().unwrap();
    for _ in 0..10 {
        app.step().unwrap();
        s.clock.advance(10);
    }
    assert_eq!(
        app.query_kv("profile-store", &"alice".to_string().to_bytes())
            .map(|b| String::from_bytes(&b).unwrap()),
        Some("lisbon".into())
    );
    app.close().unwrap();
}

#[test]
fn aggregation_stores_still_use_changelog_topics() {
    // The optimization applies only to direct table sources: derived
    // aggregations still need their own changelog.
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, String>("events")
        .group_by_key()
        .count("agg-store")
        .to_stream()
        .to("out");
    let topology = builder.build().unwrap();
    assert!(topology.internal_topics.iter().any(|t| t.name == "agg-store-changelog"));
    assert!(topology.source_changelogs.is_empty());
}
