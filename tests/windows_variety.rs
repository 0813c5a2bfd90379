//! Window-variety tests: hopping windows, session windows, and determinism
//! of timestamp-ordered processing (§3.2, §5, §7).

use bytes::Bytes;
use kbroker::{Cluster, Consumer, ConsumerConfig, Producer, ProducerConfig, TopicConfig};
use kstreams::{
    KSerde, KafkaStreamsApp, SessionWindows, StreamsBuilder, StreamsConfig, TimeWindows, Windowed,
};
use simkit::ManualClock;
use std::collections::HashMap;
use std::sync::Arc;

struct Setup {
    cluster: Cluster,
    clock: ManualClock,
}

fn setup() -> Setup {
    let clock = ManualClock::new();
    let cluster = Cluster::builder().brokers(1).replication(1).clock(clock.shared()).build();
    cluster.create_topic("in", TopicConfig::new(1)).unwrap();
    cluster.create_topic("out", TopicConfig::new(1)).unwrap();
    Setup { cluster, clock }
}

fn send(cluster: &Cluster, key: &str, ts: i64) {
    let mut p = Producer::new(cluster.clone(), ProducerConfig::default());
    p.send("in", Some(key.to_string().to_bytes()), Some(Bytes::from_static(b"v")), ts).unwrap();
    p.flush().unwrap();
}

fn run(s: &Setup, app: &mut KafkaStreamsApp, steps: usize) {
    for _ in 0..steps {
        app.step().unwrap();
        s.clock.advance(10);
    }
}

/// Latest count per (key, window_start) from the output topic.
fn latest_windowed(cluster: &Cluster) -> HashMap<(String, i64), i64> {
    let mut c = Consumer::new(cluster.clone(), "v", ConsumerConfig::default().read_committed());
    c.assign(cluster.partitions_of("out").unwrap()).unwrap();
    let mut out = HashMap::new();
    loop {
        let batch = c.poll().unwrap();
        if batch.is_empty() {
            break;
        }
        for rec in batch {
            let wk = Windowed::<String>::from_bytes(rec.key.as_ref().unwrap()).unwrap();
            match rec.value.as_ref() {
                Some(v) => {
                    out.insert((wk.key, wk.window_start), i64::from_bytes(v).unwrap());
                }
                None => {
                    out.remove(&(wk.key, wk.window_start));
                }
            }
        }
    }
    out
}

#[test]
fn hopping_windows_count_into_overlapping_windows() {
    let s = setup();
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, String>("in")
        .group_by_key()
        // 10 s windows hopping every 5 s: each record lands in two windows.
        .windowed_by(TimeWindows::of(10_000).advance_by(5_000).grace(60_000))
        .count("hop-counts")
        .to_stream()
        .to("out");
    let mut app = KafkaStreamsApp::new(
        s.cluster.clone(),
        Arc::new(builder.build().unwrap()),
        StreamsConfig::new("hopping").exactly_once().with_commit_interval_ms(10),
        "i0",
    );
    app.start().unwrap();

    send(&s.cluster, "k", 7_000); // windows [0,10s) and [5s,15s)
    send(&s.cluster, "k", 12_000); // windows [5s,15s) and [10s,20s)
    run(&s, &mut app, 5);
    let counts = latest_windowed(&s.cluster);
    assert_eq!(counts[&("k".into(), 0)], 1);
    assert_eq!(counts[&("k".into(), 5_000)], 2, "overlap window sees both");
    assert_eq!(counts[&("k".into(), 10_000)], 1);
    app.close().unwrap();
}

#[test]
fn windowed_count_near_i64_max_counts_the_record() {
    // A record timestamp is producer input. One at i64::MAX - 1 lies in a
    // window that ends past i64::MAX: it is counted, neither dropped as late
    // nor a panic.
    let s = setup();
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, String>("in")
        .group_by_key()
        .windowed_by(TimeWindows::of(1_000))
        .count("edge-counts")
        .to_stream()
        .to("out");
    let mut app = KafkaStreamsApp::new(
        s.cluster.clone(),
        Arc::new(builder.build().unwrap()),
        StreamsConfig::new("edge").exactly_once().with_commit_interval_ms(10),
        "i0",
    );
    app.start().unwrap();

    send(&s.cluster, "k", i64::MAX - 1);
    run(&s, &mut app, 5);
    let start = i64::MAX - i64::MAX % 1_000;
    assert_eq!(latest_windowed(&s.cluster), HashMap::from([(("k".into(), start), 1)]));
    assert_eq!(app.metrics().late_dropped, 0);
    app.close().unwrap();
}

#[test]
fn session_windows_merge_and_gc() {
    let s = setup();
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, String>("in")
        .group_by_key()
        .windowed_by_session(SessionWindows::with_gap(1_000).grace(30_000))
        .count("sessions")
        .to_stream()
        .to("out");
    let mut app = KafkaStreamsApp::new(
        s.cluster.clone(),
        Arc::new(builder.build().unwrap()),
        StreamsConfig::new("sessions").exactly_once().with_commit_interval_ms(10),
        "i0",
    );
    app.start().unwrap();

    // Two separate bursts for "k": [1000..1400] and [5000].
    for ts in [1_000, 1_400, 5_000] {
        send(&s.cluster, "k", ts);
    }
    run(&s, &mut app, 5);
    let counts = latest_windowed(&s.cluster);
    assert_eq!(counts[&("k".into(), 1_000)], 2, "burst merged into one session");
    assert_eq!(counts[&("k".into(), 5_000)], 1);

    // A record at 2000 bridges NOTHING (gap 1000 from 1400 is 2400 ≥ …
    // actually 2000 - 1400 = 600 < 1000): it extends the first session.
    send(&s.cluster, "k", 2_000);
    run(&s, &mut app, 5);
    let counts = latest_windowed(&s.cluster);
    assert_eq!(counts[&("k".into(), 1_000)], 3, "session extended to [1000,2000]");

    // A record at 3000 bridges [1000..2000] and nothing else; at 4200 it
    // would bridge toward 5000. Send 4200: merges [1000..3000]? No —
    // 4200-3000 > 1000. It merges with [5000] (5000-4200 < 1000).
    send(&s.cluster, "k", 3_000);
    send(&s.cluster, "k", 4_200);
    run(&s, &mut app, 5);
    let counts = latest_windowed(&s.cluster);
    assert_eq!(counts[&("k".into(), 1_000)], 4, "3000 extended the first session");
    assert_eq!(counts[&("k".into(), 4_200)], 2, "4200 merged with the 5000 session");
    app.close().unwrap();
}

#[test]
fn session_merge_spanning_two_sessions() {
    let s = setup();
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, String>("in")
        .group_by_key()
        .windowed_by_session(SessionWindows::with_gap(1_000).grace(30_000))
        .count("sessions2")
        .to_stream()
        .to("out");
    let mut app = KafkaStreamsApp::new(
        s.cluster.clone(),
        Arc::new(builder.build().unwrap()),
        StreamsConfig::new("sessions2").exactly_once().with_commit_interval_ms(10),
        "i0",
    );
    app.start().unwrap();
    // Two sessions, then an out-of-order record in the middle fuses them.
    send(&s.cluster, "k", 1_000);
    send(&s.cluster, "k", 3_000);
    run(&s, &mut app, 5);
    send(&s.cluster, "k", 2_000); // within gap of both
    run(&s, &mut app, 5);
    let counts = latest_windowed(&s.cluster);
    assert_eq!(counts.len(), 1, "fused into one session: {counts:?}");
    assert_eq!(counts[&("k".into(), 1_000)], 3);
    app.close().unwrap();
}

#[test]
fn timestamp_ordered_processing_is_deterministic() {
    // §7: Kafka Streams "does make deterministic incoming record choices
    // based on record timestamps". Run the same two-input merge twice and
    // require byte-identical output order.
    let run_once = || -> Vec<(Option<Bytes>, i64)> {
        let clock = ManualClock::new();
        let cluster = Cluster::builder().brokers(1).replication(1).clock(clock.shared()).build();
        cluster.create_topic("a", TopicConfig::new(1)).unwrap();
        cluster.create_topic("b", TopicConfig::new(1)).unwrap();
        cluster.create_topic("out", TopicConfig::new(1)).unwrap();
        let builder = StreamsBuilder::new();
        let left = builder.stream::<String, String>("a");
        let right = builder.stream::<String, String>("b");
        left.merge(&right).to("out");
        let mut app = KafkaStreamsApp::new(
            cluster.clone(),
            Arc::new(builder.build().unwrap()),
            StreamsConfig::new("det").exactly_once().with_commit_interval_ms(10),
            "i0",
        );
        app.start().unwrap();
        // Interleaved timestamps across the two inputs.
        let mut p = Producer::new(cluster.clone(), ProducerConfig::default());
        for (topic, ts) in [("a", 5), ("a", 1), ("b", 3), ("b", 2), ("a", 4), ("b", 6), ("a", 0)] {
            p.send(
                topic,
                Some("k".to_string().to_bytes()),
                Some(Bytes::from(format!("{topic}{ts}"))),
                ts,
            )
            .unwrap();
        }
        p.flush().unwrap();
        for _ in 0..10 {
            app.step().unwrap();
            clock.advance(10);
        }
        app.close().unwrap();
        let mut c = Consumer::new(cluster.clone(), "v", ConsumerConfig::default().read_committed());
        c.assign(cluster.partitions_of("out").unwrap()).unwrap();
        let mut out = Vec::new();
        loop {
            let batch = c.poll().unwrap();
            if batch.is_empty() {
                break;
            }
            for rec in batch {
                out.push((rec.value.clone(), rec.timestamp));
            }
        }
        out
    };
    let first = run_once();
    let second = run_once();
    assert_eq!(first, second, "identical runs must produce identical output order");
    assert_eq!(first.len(), 7);
    // Offset order holds within each partition; across the two partition
    // heads the smaller timestamp goes first. With partition a = [5,1,4,0]
    // and b = [3,2,6] (offset order), the head comparison yields exactly:
    let ts: Vec<i64> = first.iter().map(|(_, t)| *t).collect();
    assert_eq!(ts, vec![3, 2, 5, 1, 4, 0, 6], "deterministic head-of-partition min-ts choice");
}
