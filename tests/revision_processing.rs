//! Completeness tests (§2.2, §5, Figures 1 and 6): speculative emission,
//! revision records on out-of-order input, grace-period drops, window
//! garbage collection, and suppression.

use kbroker::{Cluster, Consumer, ConsumerConfig, Producer, ProducerConfig, TopicConfig};
use kstreams::{KSerde, KafkaStreamsApp, StreamsBuilder, StreamsConfig, TimeWindows, Windowed};
use simkit::ManualClock;
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

/// 5-second windowed count with the given grace, as in Figure 6.
fn windowed_count_topology(grace_ms: i64, suppress: bool) -> Arc<kstreams::topology::Topology> {
    let builder = StreamsBuilder::new();
    let table = builder
        .stream::<String, String>("in")
        .group_by_key()
        .windowed_by(TimeWindows::of(5000).grace(grace_ms))
        .count("window-counts");
    let table = if suppress { table.suppress_until_window_close() } else { table };
    table.to_stream().to("out");
    Arc::new(builder.build().unwrap())
}

fn send(cluster: &Cluster, ts: i64) {
    let mut p = Producer::new(cluster.clone(), ProducerConfig::default());
    p.send("in", Some("k".to_string().to_bytes()), Some("v".to_string().to_bytes()), ts).unwrap();
    p.flush().unwrap();
}

/// All output records in order as (window_start, count).
fn read_all(cluster: &Cluster) -> Vec<(i64, i64)> {
    let mut c =
        Consumer::new(cluster.clone(), "verify", ConsumerConfig::default().read_committed());
    c.assign(cluster.partitions_of("out").unwrap()).unwrap();
    let mut out = Vec::new();
    loop {
        let batch = c.poll().unwrap();
        if batch.is_empty() {
            break;
        }
        for rec in batch {
            let wk = Windowed::<String>::from_bytes(rec.key.as_ref().unwrap()).unwrap();
            let count = i64::from_bytes(rec.value.as_ref().unwrap()).unwrap();
            out.push((wk.window_start, count));
        }
    }
    out
}

fn run_and_drain(setup: &Setup, app: &mut KafkaStreamsApp, steps: usize) {
    for _ in 0..steps {
        app.step().unwrap();
        setup.clock.advance(10);
    }
}

#[test]
fn figure6_revision_walkthrough() {
    // Figure 6: 5s windows, grace 10s, records at ts 12, 16, 14, 23
    // (scaled to ms here: 12_000 etc. to keep units consistent).
    let s = setup();
    let mut app = KafkaStreamsApp::new(
        s.cluster.clone(),
        windowed_count_topology(10_000, false),
        StreamsConfig::new("fig6").exactly_once().with_commit_interval_ms(10),
        "i0",
    );
    app.start().unwrap();

    // (a) ts=12s → window [10s,15s) count 1, emitted immediately
    // (speculative, no completeness delay).
    send(&s.cluster, 12_000);
    run_and_drain(&s, &mut app, 3);
    assert_eq!(read_all(&s.cluster), vec![(10_000, 1)]);

    // (b) ts=16s → window [15s,20s) count 1.
    send(&s.cluster, 16_000);
    run_and_drain(&s, &mut app, 3);
    assert_eq!(read_all(&s.cluster), vec![(10_000, 1), (15_000, 1)]);

    // (c) out-of-order ts=14s, within grace → REVISION of [10s,15s): the
    // previously emitted count 1 is corrected to 2 via the same channel.
    send(&s.cluster, 14_000);
    run_and_drain(&s, &mut app, 3);
    assert_eq!(read_all(&s.cluster), vec![(10_000, 1), (15_000, 1), (10_000, 2)]);
    assert_eq!(app.metrics().revisions_emitted, 1);

    // (d) ts=30s advances stream time past 15s+10s → window [10s,15s) is
    // garbage collected...
    send(&s.cluster, 30_000);
    run_and_drain(&s, &mut app, 3);
    assert_eq!(
        app.query_window("window-counts", &"k".to_string().to_bytes(), 10_000),
        None,
        "closed window GC'd from the store (Figure 6.d)"
    );
    // ... and a late record for it (ts=12s again) is now dropped.
    send(&s.cluster, 12_000);
    run_and_drain(&s, &mut app, 3);
    assert_eq!(app.metrics().late_dropped, 1);
    let out = read_all(&s.cluster);
    assert_eq!(out.last(), Some(&(30_000, 1)), "late record produced no output");
    assert_eq!(out.len(), 4);
    app.close().unwrap();
}

#[test]
fn figure1_completeness_scenario_revises_incomplete_result() {
    // Figure 1.d: records at ts 11, 13, then out-of-order 12. With
    // speculative processing the early emissions for 11 and 13 are later
    // *revised*, never blocked.
    let s = setup();
    let mut app = KafkaStreamsApp::new(
        s.cluster.clone(),
        windowed_count_topology(10_000, false),
        StreamsConfig::new("fig1d").exactly_once().with_commit_interval_ms(10),
        "i0",
    );
    app.start().unwrap();
    for ts in [11_000, 13_000, 12_000] {
        send(&s.cluster, ts);
        run_and_drain(&s, &mut app, 3);
    }
    // All three land in window [10s,15s): count revised 1 → 2 → 3.
    assert_eq!(read_all(&s.cluster), vec![(10_000, 1), (10_000, 2), (10_000, 3)]);
    app.close().unwrap();
}

#[test]
fn zero_grace_drops_any_late_record() {
    // The same late record is dropped with zero grace, and counted into its
    // window by a grace that covers its lateness.
    for (grace, expected, dropped) in
        [(0, vec![(5_000, 1)], 1), (5_000, vec![(5_000, 1), (0, 1)], 0)]
    {
        let s = setup();
        let mut app = KafkaStreamsApp::new(
            s.cluster.clone(),
            windowed_count_topology(grace, false),
            StreamsConfig::new("nograce").with_commit_interval_ms(10),
            "i0",
        );
        app.start().unwrap();
        send(&s.cluster, 6_000); // window [5s,10s); stream time 6s
        send(&s.cluster, 3_000); // window [0,5s) closes at stream time ≥ 5s + grace
        run_and_drain(&s, &mut app, 5);
        assert_eq!(read_all(&s.cluster), expected, "grace {grace}");
        assert_eq!(app.metrics().late_dropped, dropped, "grace {grace}");
        app.close().unwrap();
    }
}

#[test]
fn grace_period_bounds_state_not_output_delay() {
    // §5: "the grace period here only controls how much old state Kafka
    // Streams would need to maintain … but does not indicate how long we
    // delay output". Even with a huge grace, output is immediate.
    let s = setup();
    let mut app = KafkaStreamsApp::new(
        s.cluster.clone(),
        windowed_count_topology(3_600_000, false),
        StreamsConfig::new("hugegrace").with_commit_interval_ms(10),
        "i0",
    );
    app.start().unwrap();
    send(&s.cluster, 1_000);
    run_and_drain(&s, &mut app, 3);
    assert_eq!(read_all(&s.cluster).len(), 1, "output not delayed by grace");
    app.close().unwrap();
}

#[test]
fn suppress_emits_single_final_result_per_window() {
    let s = setup();
    let mut app = KafkaStreamsApp::new(
        s.cluster.clone(),
        windowed_count_topology(2_000, true),
        StreamsConfig::new("suppress").with_commit_interval_ms(10),
        "i0",
    );
    app.start().unwrap();
    // Three records in window [0,5s), one out of order.
    for ts in [1_000, 3_000, 2_000] {
        send(&s.cluster, ts);
    }
    run_and_drain(&s, &mut app, 5);
    assert_eq!(read_all(&s.cluster), vec![], "nothing emitted before window close");

    // Advance stream time past 5s + 2s grace: the final count flushes.
    send(&s.cluster, 8_000);
    run_and_drain(&s, &mut app, 5);
    assert_eq!(read_all(&s.cluster), vec![(0, 3)], "one consolidated final result");
    assert_eq!(app.metrics().suppressed, 2, "two intermediate revisions absorbed");
    app.close().unwrap();
}

#[test]
fn suppress_time_limit_coalesces_revisions() {
    // §6.2: Expedia's conversation-view aggregation uses suppression to
    // reduce I/O: many updates per key within the interval → one output.
    let s = setup();
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, String>("in")
        .group_by_key()
        .count("counts")
        .suppress_until_time_limit(1_000)
        .to_stream()
        .to("out");
    let topology = Arc::new(builder.build().unwrap());
    let mut app = KafkaStreamsApp::new(
        s.cluster.clone(),
        topology,
        StreamsConfig::new("coalesce").with_commit_interval_ms(10),
        "i0",
    );
    app.start().unwrap();
    // 5 rapid updates within 1s of stream time.
    for ts in [0, 100, 200, 300, 400] {
        send(&s.cluster, ts);
    }
    run_and_drain(&s, &mut app, 5);
    // Advance stream time past the limit.
    send(&s.cluster, 1_500);
    run_and_drain(&s, &mut app, 5);

    let mut c = Consumer::new(s.cluster.clone(), "v", ConsumerConfig::default());
    c.assign(s.cluster.partitions_of("out").unwrap()).unwrap();
    let mut values = Vec::new();
    loop {
        let batch = c.poll().unwrap();
        if batch.is_empty() {
            break;
        }
        for rec in batch {
            values.push(i64::from_bytes(rec.value.as_ref().unwrap()).unwrap());
        }
    }
    // The flush-triggering record (ts 1.5s) also lands in the buffer before
    // the punctuator fires, so the single flushed record carries count 6 —
    // six updates consolidated into one output.
    assert_eq!(values, vec![6], "one output for six updates");
    assert!(app.metrics().suppressed >= 5);
    app.close().unwrap();
}

#[test]
fn downstream_table_consumes_revisions_correctly() {
    // §5's recomputation bookkeeping: a windowed count re-aggregated by a
    // downstream table operator must retract old counts before adding new
    // ones, or out-of-order revisions would double-count.
    let s = setup();
    let builder = StreamsBuilder::new();
    // Count per key per window, then sum all window-counts per key via a
    // table re-aggregation (group_by sends old+new through Change encoding).
    builder
        .stream::<String, String>("in")
        .group_by_key()
        .windowed_by(TimeWindows::of(5000).grace(10_000))
        .count("per-window")
        .group_by(|wk: &Windowed<String>, count| (wk.key.clone(), *count))
        .aggregate("total", || 0i64, |v, acc| acc + v, |v, acc| acc - v)
        .to_stream()
        .to("out");
    let topology = Arc::new(builder.build().unwrap());
    let mut app = KafkaStreamsApp::new(
        s.cluster.clone(),
        topology,
        StreamsConfig::new("reagg").exactly_once().with_commit_interval_ms(10),
        "i0",
    );
    app.start().unwrap();
    // Two windows; the out-of-order record revises the first window.
    for ts in [1_000, 6_000, 2_000] {
        send(&s.cluster, ts);
        run_and_drain(&s, &mut app, 5);
    }
    // Total should be 3 (not 4): the revision of window [0,5s) from 1→2
    // must retract the 1 before adding the 2.
    let mut c = Consumer::new(s.cluster.clone(), "v", ConsumerConfig::default().read_committed());
    c.assign(s.cluster.partitions_of("out").unwrap()).unwrap();
    let mut last = None;
    loop {
        let batch = c.poll().unwrap();
        if batch.is_empty() {
            break;
        }
        for rec in batch {
            last = Some(i64::from_bytes(rec.value.as_ref().unwrap()).unwrap());
        }
    }
    assert_eq!(last, Some(3), "retract-then-accumulate kept the total exact");
    app.close().unwrap();
}

#[test]
fn order_agnostic_operators_never_delay() {
    // §5: stateless operators are order-agnostic — emitted immediately even
    // with wildly out-of-order input, no drops.
    let s = setup();
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, String>("in")
        .filter(|_, v| !v.is_empty())
        .map_values(|_, v| format!("mapped-{v}"))
        .to("out");
    let topology = Arc::new(builder.build().unwrap());
    let mut app = KafkaStreamsApp::new(
        s.cluster.clone(),
        topology,
        StreamsConfig::new("stateless").with_commit_interval_ms(10),
        "i0",
    );
    app.start().unwrap();
    for ts in [100, 5, 90, 1] {
        send(&s.cluster, ts);
    }
    run_and_drain(&s, &mut app, 5);
    let m = app.metrics();
    assert_eq!(m.records_emitted, 4);
    assert_eq!(m.late_dropped, 0);
    app.close().unwrap();
}
