//! Figure 1 — the two streaming correctness challenges, made executable.
//!
//! Part 1 (**consistency**, Figure 1.a–c): a stateful counter crashes after
//! updating its state but before committing its input offsets. We run the
//! identical failure under at-least-once and exactly-once processing and
//! print the resulting counts: ALOS double-updates, EOS does not.
//!
//! Part 2 (**completeness**, Figure 1.d): records with timestamps 11, 13
//! arrive, results are emitted, then an out-of-order record at 12 shows the
//! earlier results were incomplete — Kafka Streams revises them instead of
//! having delayed them.
//!
//! Run with: `cargo run --example figure1_challenges`

use kstream_repro::kbroker::{
    group::SESSION_TIMEOUT_MS, Cluster, Consumer, ConsumerConfig, Producer, ProducerConfig,
    TopicConfig, DEFAULT_TXN_TIMEOUT_MS,
};
use kstream_repro::kstreams::topology::Topology;
use kstream_repro::kstreams::{
    KSerde, KafkaStreamsApp, ProcessingGuarantee, StreamsBuilder, StreamsConfig, TimeWindows,
    Windowed,
};
use kstream_repro::simkit::ManualClock;
use std::sync::Arc;

fn counter_topology() -> Arc<Topology> {
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, String>("events")
        .group_by_key()
        .count("counts-store")
        .to_stream()
        .to("counts");
    Arc::new(builder.build().unwrap())
}

fn crash_scenario(guarantee: ProcessingGuarantee) -> i64 {
    let clock = ManualClock::new();
    let cluster = Cluster::builder().brokers(3).replication(3).clock(clock.shared()).build();
    cluster.create_topic("events", TopicConfig::new(1)).unwrap();
    cluster.create_topic("counts", TopicConfig::new(1)).unwrap();

    // Three input records (Figure 1.a uses three as well).
    let mut p = Producer::new(cluster.clone(), ProducerConfig::default());
    for ts in [11, 13, 12] {
        p.send("events", Some("k".to_string().to_bytes()), Some("v".to_string().to_bytes()), ts)
            .unwrap();
    }
    p.flush().unwrap();

    let mut config = StreamsConfig::new("fig1")
        .with_commit_interval_ms(1_000_000) // never commits before the crash
        .with_producer_batch_size(1);
    if guarantee == ProcessingGuarantee::ExactlyOnce {
        config = config.exactly_once();
    }
    // Instance 0 processes everything (state updated, outputs flushed) but
    // crashes before acknowledging its input (Figure 1.b).
    let mut doomed = KafkaStreamsApp::new(cluster.clone(), counter_topology(), config, "i0");
    doomed.start().unwrap();
    for _ in 0..5 {
        doomed.step().unwrap();
        clock.advance(10);
    }
    doomed.crash();

    // The platform cleans up: group session expires, dangling transaction
    // times out and is aborted by the coordinator.
    clock.advance(SESSION_TIMEOUT_MS.max(DEFAULT_TXN_TIMEOUT_MS) + 1);
    cluster.group_expire_members("fig1");
    cluster.abort_expired_transactions();

    // Recovery (Figure 1.c): a fresh instance restores state from the
    // changelog and re-fetches the unacknowledged input.
    let mut config2 =
        StreamsConfig::new("fig1").with_commit_interval_ms(10).with_producer_batch_size(1);
    if guarantee == ProcessingGuarantee::ExactlyOnce {
        config2 = config2.exactly_once();
    }
    let mut recovery = KafkaStreamsApp::new(cluster.clone(), counter_topology(), config2, "i1");
    recovery.start().unwrap();
    for _ in 0..10 {
        recovery.step().unwrap();
        clock.advance(10);
    }
    let count = recovery
        .query_kv("counts-store", &"k".to_string().to_bytes())
        .map_or(0, |b| i64::from_bytes(&b).unwrap());
    recovery.close().unwrap();
    count
}

fn completeness_scenario() {
    println!("--- Part 2: completeness with out-of-order data (Figure 1.d) ---");
    let clock = ManualClock::new();
    let cluster = Cluster::builder().brokers(1).replication(1).clock(clock.shared()).build();
    cluster.create_topic("events", TopicConfig::new(1)).unwrap();
    cluster.create_topic("out", TopicConfig::new(1)).unwrap();
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, String>("events")
        .group_by_key()
        .windowed_by(TimeWindows::of(5_000).grace(10_000))
        .count("win")
        .to_stream()
        .to("out");
    let topology = Arc::new(builder.build().unwrap());
    let mut app = KafkaStreamsApp::new(
        cluster.clone(),
        topology,
        StreamsConfig::new("fig1d").exactly_once().with_commit_interval_ms(10),
        "i0",
    );
    app.start().unwrap();

    let mut probe =
        Consumer::new(cluster.clone(), "probe", ConsumerConfig::default().read_committed());
    probe.assign(cluster.partitions_of("out").unwrap()).unwrap();

    let mut producer = Producer::new(cluster.clone(), ProducerConfig::default());
    for ts in [11_000i64, 13_000, 12_000] {
        producer
            .send("events", Some("k".to_string().to_bytes()), Some("v".to_string().to_bytes()), ts)
            .unwrap();
        producer.flush().unwrap();
        for _ in 0..3 {
            app.step().unwrap();
            clock.advance(10);
        }
        for rec in probe.poll().unwrap() {
            let wk = Windowed::<String>::from_bytes(rec.key.as_ref().unwrap()).unwrap();
            let count = i64::from_bytes(rec.value.as_ref().unwrap()).unwrap();
            let kind = if ts == 12_000 { "REVISION" } else { "result " };
            println!(
                "input ts={ts:>6} -> {kind} window[{},{})s count={count}",
                wk.window_start / 1000,
                wk.window_start / 1000 + 5
            );
        }
    }
    app.close().unwrap();
    println!("the out-of-order record at ts=12000 did not block anything — it");
    println!("produced a revision of the previously emitted (incomplete) result.");
}

fn main() {
    println!("--- Part 1: consistency under a crash (Figure 1.a-c) ---");
    println!("3 input records; processor crashes after state update, before ack.\n");
    let alos = crash_scenario(ProcessingGuarantee::AtLeastOnce);
    println!("at-least-once : count = {alos}   (double update! state counted records twice)");
    let eos = crash_scenario(ProcessingGuarantee::ExactlyOnce);
    println!("exactly-once  : count = {eos}   (each record reflected exactly once)\n");
    assert_eq!(alos, 6);
    assert_eq!(eos, 3);
    completeness_scenario();
}
