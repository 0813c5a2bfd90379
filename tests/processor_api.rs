//! The low-level Processor API (§3.2): custom stateful processors attached
//! via `KStream::process`, including store access, downstream forwarding,
//! and punctuation — the extension point the Bloomberg framework builds its
//! "boilerplate" on (§6.1).

use kbroker::{Cluster, Consumer, ConsumerConfig, Producer, ProducerConfig, TopicConfig};
use kstreams::processor::{Processor, ProcessorContext, StoreId};
use kstreams::record::FlowRecord;
use kstreams::state::{StoreKind, StoreSpec};
use kstreams::{KSerde, KafkaStreamsApp, StreamsBuilder, StreamsConfig};
use simkit::ManualClock;
use std::sync::Arc;

/// Emits an alert when a key's value jumps by more than `threshold`
/// relative to the last seen value — a miniature outlier-signal detector.
struct JumpDetector {
    store: StoreId,
    threshold: i64,
}

impl Processor for JumpDetector {
    fn process(&mut self, ctx: &mut ProcessorContext<'_>, record: FlowRecord) {
        let (Some(key), Some(value)) = (record.key.clone(), record.new.clone()) else {
            return;
        };
        ctx.observe_ts(record.ts);
        let current = i64::from_bytes(&value).expect("i64 value");
        let previous =
            ctx.kv_get(self.store, &key).map(|b| i64::from_bytes(&b).expect("i64 state"));
        ctx.kv_put(self.store, key.clone(), Some(value));
        if let Some(prev) = previous {
            if (current - prev).abs() > self.threshold {
                let alert = format!("jump {prev}->{current}");
                ctx.forward(FlowRecord {
                    key: Some(key),
                    new: Some(alert.to_bytes()),
                    old: None,
                    ts: record.ts,
                });
            }
        }
    }
}

/// Counts punctuation invocations and emits a heartbeat each time.
struct Heartbeat {
    beats: u64,
}

impl Processor for Heartbeat {
    fn process(&mut self, ctx: &mut ProcessorContext<'_>, record: FlowRecord) {
        ctx.forward(record);
    }

    fn punctuate(&mut self, ctx: &mut ProcessorContext<'_>, stream_time: i64, _wall: i64) {
        if stream_time == i64::MIN {
            return; // no records observed yet
        }
        self.beats += 1;
        ctx.forward(FlowRecord {
            key: Some("heartbeat".to_string().to_bytes()),
            new: Some(format!("beat-{}@{stream_time}", self.beats).to_bytes()),
            old: None,
            ts: stream_time,
        });
    }
}

fn setup() -> (Cluster, ManualClock) {
    let clock = ManualClock::new();
    let cluster = Cluster::builder().brokers(1).replication(1).clock(clock.shared()).build();
    cluster.create_topic("in", TopicConfig::new(1)).unwrap();
    cluster.create_topic("out", TopicConfig::new(1)).unwrap();
    (cluster, clock)
}

fn send(cluster: &Cluster, key: &str, value: i64, ts: i64) {
    let mut p = Producer::new(cluster.clone(), ProducerConfig::default());
    p.send("in", Some(key.to_string().to_bytes()), Some(value.to_bytes()), ts).unwrap();
    p.flush().unwrap();
}

fn read_values(cluster: &Cluster) -> Vec<String> {
    let mut c = Consumer::new(cluster.clone(), "v", ConsumerConfig::default().read_committed());
    c.assign(cluster.partitions_of("out").unwrap()).unwrap();
    let mut out = Vec::new();
    loop {
        let batch = c.poll().unwrap();
        if batch.is_empty() {
            break;
        }
        for rec in batch {
            out.push(String::from_bytes(rec.value.as_ref().unwrap()).unwrap());
        }
    }
    out
}

#[test]
fn custom_stateful_processor_detects_jumps() {
    let (cluster, clock) = setup();
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, i64>("in")
        .process::<String, String>(
            Arc::new(|s| Box::new(JumpDetector { store: s[0], threshold: 100 })),
            vec![StoreSpec::new("last-seen", StoreKind::KeyValue)],
        )
        .to("out");
    let mut app = KafkaStreamsApp::new(
        cluster.clone(),
        Arc::new(builder.build().unwrap()),
        StreamsConfig::new("jump-app").exactly_once().with_commit_interval_ms(10),
        "i0",
    );
    app.start().unwrap();
    for (v, ts) in [(100, 0), (105, 1), (400, 2), (395, 3)] {
        send(&cluster, "sensor", v, ts);
    }
    for _ in 0..10 {
        app.step().unwrap();
        clock.advance(10);
    }
    assert_eq!(read_values(&cluster), vec!["jump 105->400".to_string()]);
    app.close().unwrap();
}

#[test]
fn custom_processor_state_restores_after_crash() {
    let (cluster, clock) = setup();
    let topology = || {
        let builder = StreamsBuilder::new();
        builder
            .stream::<String, i64>("in")
            .process::<String, String>(
                Arc::new(|s| Box::new(JumpDetector { store: s[0], threshold: 100 })),
                vec![StoreSpec::new("last-seen", StoreKind::KeyValue)],
            )
            .to("out");
        Arc::new(builder.build().unwrap())
    };
    {
        let mut app = KafkaStreamsApp::new(
            cluster.clone(),
            topology(),
            StreamsConfig::new("jump-app").exactly_once().with_commit_interval_ms(10),
            "i0",
        );
        app.start().unwrap();
        send(&cluster, "sensor", 100, 0);
        for _ in 0..10 {
            app.step().unwrap();
            clock.advance(10);
        }
        app.close().unwrap();
    }
    // The next record arrives after a restart: the detector must remember
    // last-seen=100 from the changelog and fire on the jump.
    send(&cluster, "sensor", 300, 1);
    let mut app = KafkaStreamsApp::new(
        cluster.clone(),
        topology(),
        StreamsConfig::new("jump-app").exactly_once().with_commit_interval_ms(10),
        "i1",
    );
    app.start().unwrap();
    for _ in 0..10 {
        app.step().unwrap();
        clock.advance(10);
    }
    assert_eq!(read_values(&cluster), vec!["jump 100->300".to_string()]);
    app.close().unwrap();
}

#[test]
fn punctuation_fires_each_poll_round() {
    let (cluster, clock) = setup();
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, i64>("in")
        .process::<String, String>(Arc::new(|_| Box::new(Heartbeat { beats: 0 })), vec![])
        .filter(|k, _| k == "heartbeat")
        .to("out");
    let mut app = KafkaStreamsApp::new(
        cluster.clone(),
        Arc::new(builder.build().unwrap()),
        StreamsConfig::new("hb-app").with_commit_interval_ms(10),
        "i0",
    );
    app.start().unwrap();
    send(&cluster, "k", 1, 500);
    for _ in 0..5 {
        app.step().unwrap();
        clock.advance(10);
    }
    let beats = read_values(&cluster);
    assert!(beats.len() >= 2, "punctuator ran every poll round: {beats:?}");
    assert!(beats[0].starts_with("beat-1@500"), "{beats:?}");
    app.close().unwrap();
}
