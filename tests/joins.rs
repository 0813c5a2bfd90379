//! Join semantics (§5): stream-stream joins with the hold-until-grace rule
//! for append-only outputs, table-table joins with amendment semantics, and
//! stream-table enrichment.

use kbroker::{Cluster, Consumer, ConsumerConfig, Producer, ProducerConfig, TopicConfig};
use kstreams::{
    JoinWindows, KSerde, KafkaStreamsApp, StreamsBuilder, StreamsConfig, TimeWindows, Windowed,
};
use simkit::ManualClock;
use std::sync::Arc;

struct Setup {
    cluster: Cluster,
    clock: ManualClock,
}

fn setup(topics: &[&str]) -> Setup {
    let clock = ManualClock::new();
    let cluster = Cluster::builder().brokers(1).replication(1).clock(clock.shared()).build();
    for t in topics {
        cluster.create_topic(t, TopicConfig::new(1)).unwrap();
    }
    cluster.create_topic("out", TopicConfig::new(1)).unwrap();
    Setup { cluster, clock }
}

fn send(cluster: &Cluster, topic: &str, key: &str, value: &str, ts: i64) {
    let mut p = Producer::new(cluster.clone(), ProducerConfig::default());
    p.send(topic, Some(key.to_string().to_bytes()), Some(value.to_string().to_bytes()), ts)
        .unwrap();
    p.flush().unwrap();
}

/// Output records as (key, value) strings, in order.
fn read_out(cluster: &Cluster) -> Vec<(String, String)> {
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
            out.push((
                String::from_bytes(rec.key.as_ref().unwrap()).unwrap(),
                rec.value
                    .as_ref()
                    .map_or_else(|| "<null>".into(), |v| String::from_bytes(v).unwrap()),
            ));
        }
    }
    out
}

fn run(setup: &Setup, app: &mut KafkaStreamsApp, steps: usize) {
    for _ in 0..steps {
        app.step().unwrap();
        setup.clock.advance(10);
    }
}

fn app_with(setup: &Setup, topology: kstreams::topology::Topology, name: &str) -> KafkaStreamsApp {
    let mut app = KafkaStreamsApp::new(
        setup.cluster.clone(),
        Arc::new(topology),
        StreamsConfig::new(name).exactly_once().with_commit_interval_ms(10),
        "i0",
    );
    app.start().unwrap();
    app
}

#[test]
fn stream_stream_inner_join_emits_on_second_arrival() {
    let s = setup(&["left", "right"]);
    let builder = StreamsBuilder::new();
    let left = builder.stream::<String, String>("left");
    let right = builder.stream::<String, String>("right");
    left.join(&right, JoinWindows::of(1_000), |l, r| format!("{l}+{r}")).to("out");
    let mut app = app_with(&s, builder.build().unwrap(), "ssj");

    send(&s.cluster, "left", "k", "a", 1_000);
    run(&s, &mut app, 3);
    assert_eq!(read_out(&s.cluster), vec![], "no match yet — nothing emitted");

    send(&s.cluster, "right", "k", "b", 1_500); // within ±1s
    run(&s, &mut app, 3);
    assert_eq!(read_out(&s.cluster), vec![("k".into(), "a+b".into())]);

    // A right record outside the window never joins.
    send(&s.cluster, "right", "k", "c", 5_000);
    run(&s, &mut app, 3);
    assert_eq!(read_out(&s.cluster).len(), 1);
    app.close().unwrap();
}

#[test]
fn stream_stream_join_out_of_order_still_pairs() {
    let s = setup(&["left", "right"]);
    let builder = StreamsBuilder::new();
    let left = builder.stream::<String, String>("left");
    let right = builder.stream::<String, String>("right");
    left.join(&right, JoinWindows::of(1_000).grace(5_000), |l, r| format!("{l}+{r}")).to("out");
    let mut app = app_with(&s, builder.build().unwrap(), "ssj-ooo");

    // Right arrives first with a LATER timestamp, left arrives second with
    // an earlier one (out of order): they must still pair.
    send(&s.cluster, "right", "k", "b", 2_000);
    send(&s.cluster, "left", "k", "a", 1_200);
    run(&s, &mut app, 5);
    assert_eq!(read_out(&s.cluster), vec![("k".into(), "a+b".into())]);
    app.close().unwrap();
}

#[test]
fn paper_section5_left_join_holds_until_grace() {
    // §5's exact scenario: "we need to hold on emitting the join result for
    // record a until the grace period has elapsed" — because a premature
    // (a, null) in an append-only stream could never be revoked.
    let s = setup(&["left", "right"]);
    let builder = StreamsBuilder::new();
    let left = builder.stream::<String, String>("left");
    let right = builder.stream::<String, String>("right");
    left.left_join(&right, JoinWindows::of(1_000).grace(2_000), |l, r| {
        format!("{l}+{}", r.map_or("null", String::as_str))
    })
    .to("out");
    let mut app = app_with(&s, builder.build().unwrap(), "ssj-left");

    // Record a on the left; record b is "delayed".
    send(&s.cluster, "left", "k", "a", 1_000);
    run(&s, &mut app, 3);
    assert_eq!(read_out(&s.cluster), vec![], "no premature (a, null)");

    // b arrives late but within window+grace: the CORRECT result is emitted
    // and the (a, null) padding is cancelled.
    send(&s.cluster, "right", "k", "b", 1_800);
    run(&s, &mut app, 3);
    assert_eq!(read_out(&s.cluster), vec![("k".into(), "a+b".into())]);

    // Stream time advances far past the window+grace: no spurious padding
    // appears for the already-joined record.
    send(&s.cluster, "left", "k2", "z", 60_000);
    run(&s, &mut app, 5);
    let out = read_out(&s.cluster);
    assert!(
        !out.contains(&("k".into(), "a+null".into())),
        "joined record must not also pad: {out:?}"
    );
    app.close().unwrap();
}

#[test]
fn left_join_pads_after_grace_when_no_match_arrives() {
    let s = setup(&["left", "right"]);
    let builder = StreamsBuilder::new();
    let left = builder.stream::<String, String>("left");
    let right = builder.stream::<String, String>("right");
    left.left_join(&right, JoinWindows::of(1_000).grace(2_000), |l, r| {
        format!("{l}+{}", r.map_or("null", String::as_str))
    })
    .to("out");
    let mut app = app_with(&s, builder.build().unwrap(), "ssj-pad");

    send(&s.cluster, "left", "k", "a", 1_000);
    run(&s, &mut app, 3);
    assert_eq!(read_out(&s.cluster), vec![]);
    // Advance stream time beyond ts + after + grace = 4s (via another key).
    send(&s.cluster, "left", "k2", "z", 4_100);
    run(&s, &mut app, 5);
    let out = read_out(&s.cluster);
    assert!(out.contains(&("k".into(), "a+null".into())), "{out:?}");
    app.close().unwrap();
}

#[test]
fn outer_join_pads_both_sides() {
    let s = setup(&["left", "right"]);
    let builder = StreamsBuilder::new();
    let left = builder.stream::<String, String>("left");
    let right = builder.stream::<String, String>("right");
    left.outer_join(&right, JoinWindows::of(500).grace(500), |l, r| {
        format!("{}|{}", l.map_or("null", String::as_str), r.map_or("null", String::as_str))
    })
    .to("out");
    let mut app = app_with(&s, builder.build().unwrap(), "ssj-outer");

    send(&s.cluster, "left", "a", "l1", 1_000);
    send(&s.cluster, "right", "b", "r1", 1_100);
    // Far-future record on each side advances both join processors' shared
    // task stream time.
    send(&s.cluster, "left", "zz", "advance", 10_000);
    send(&s.cluster, "right", "zz2", "advance", 10_000);
    run(&s, &mut app, 5);
    let out = read_out(&s.cluster);
    assert!(out.contains(&("a".into(), "l1|null".into())), "{out:?}");
    assert!(out.contains(&("b".into(), "null|r1".into())), "{out:?}");
    app.close().unwrap();
}

#[test]
fn left_join_padding_reaches_a_downstream_suppress_once() {
    // The join's punctuation forwards its padding into a windowed count
    // and a suppress buffer in the same sub-topology: each padded record is
    // counted once, and each window emits one final result once the
    // suppress has seen a record past its close — the held padding of the
    // tests above, the single final of `revision_processing`'s suppress.
    let s = setup(&["left", "right"]);
    let builder = StreamsBuilder::new();
    let left = builder.stream::<String, String>("left");
    let right = builder.stream::<String, String>("right");
    left.left_join(&right, JoinWindows::of(1_000).grace(2_000), |l, r| {
        format!("{l}+{}", r.map_or("null", String::as_str))
    })
    .group_by_key()
    .windowed_by(TimeWindows::of(5_000).grace(20_000))
    .count("padded-counts")
    .suppress_until_window_close()
    .to_stream()
    .to("out");
    let mut app = app_with(&s, builder.build().unwrap(), "ssj-suppress");
    let finals = |cluster: &Cluster| -> Vec<(String, i64, i64)> {
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
                out.push((wk.key, wk.window_start, count));
            }
        }
        out
    };

    // No right record ever arrives: each left record pads once stream time
    // passes its ts + 1s + 2s.
    send(&s.cluster, "left", "a", "1", 1_000);
    send(&s.cluster, "left", "b", "2", 4_100); // pads a
    run(&s, &mut app, 5);
    send(&s.cluster, "left", "c", "3", 10_000); // pads b
    run(&s, &mut app, 5);
    assert_eq!(finals(&s.cluster), vec![], "window [0, 5s) is open until 25s");

    // A match reaches the suppress with ts 30s: its stream time passes
    // [0, 5s)'s close at 5s + 20s.
    send(&s.cluster, "left", "d", "4", 30_000); // pads c
    send(&s.cluster, "right", "d", "x", 30_000);
    run(&s, &mut app, 5);
    assert_eq!(finals(&s.cluster), vec![("a".into(), 0, 1), ("b".into(), 0, 1)]);
    app.close().unwrap();
}

#[test]
fn table_table_join_amends_speculative_results() {
    // §5: table-table joins may emit (a, null) then amend to (a, b) —
    // the output is a table, so the overwrite is semantically correct.
    let s = setup(&["lt", "rt"]);
    let builder = StreamsBuilder::new();
    let left = builder.table::<String, String>("lt", "lt-store");
    let right = builder.table::<String, String>("rt", "rt-store");
    left.left_join(&right, |l, r| format!("{l}+{}", r.map_or("null", String::as_str)))
        .to_stream()
        .to("out");
    let mut app = app_with(&s, builder.build().unwrap(), "ttj");

    send(&s.cluster, "lt", "k", "a", 1_000);
    run(&s, &mut app, 3);
    // Speculative immediate emission with null right side.
    assert_eq!(read_out(&s.cluster), vec![("k".into(), "a+null".into())]);

    send(&s.cluster, "rt", "k", "b", 1_500);
    run(&s, &mut app, 3);
    // Amendment: the later record overwrites the earlier (§5).
    assert_eq!(
        read_out(&s.cluster),
        vec![("k".into(), "a+null".into()), ("k".into(), "a+b".into())]
    );
    app.close().unwrap();
}

#[test]
fn table_table_inner_join_handles_updates_and_deletes() {
    let s = setup(&["lt", "rt"]);
    let builder = StreamsBuilder::new();
    let left = builder.table::<String, String>("lt", "l-store");
    let right = builder.table::<String, String>("rt", "r-store");
    left.join(&right, |l, r| format!("{l}*{r}")).to_stream().to("out");
    let mut app = app_with(&s, builder.build().unwrap(), "ttj-inner");

    send(&s.cluster, "lt", "k", "a1", 1_000);
    run(&s, &mut app, 3);
    assert_eq!(read_out(&s.cluster), vec![], "inner join waits for both sides");

    send(&s.cluster, "rt", "k", "b1", 1_100);
    send(&s.cluster, "lt", "k", "a2", 1_200); // left update re-joins
    run(&s, &mut app, 3);
    assert_eq!(
        read_out(&s.cluster),
        vec![("k".into(), "a1*b1".into()), ("k".into(), "a2*b1".into())]
    );

    // Deleting the right side retracts the join result (tombstone).
    let mut p = Producer::new(s.cluster.clone(), ProducerConfig::default());
    p.send("rt", Some("k".to_string().to_bytes()), None, 1_300).unwrap();
    p.flush().unwrap();
    run(&s, &mut app, 3);
    let out = read_out(&s.cluster);
    assert_eq!(out.last(), Some(&("k".into(), "<null>".into())), "{out:?}");
    app.close().unwrap();
}

#[test]
fn stream_table_join_enriches_with_current_table_value() {
    let s = setup(&["clicks", "profiles"]);
    let builder = StreamsBuilder::new();
    let clicks = builder.stream::<String, String>("clicks");
    let profiles = builder.table::<String, String>("profiles", "profile-store");
    clicks.join_table(&profiles, |click, profile| format!("{click}@{profile}")).to("out");
    let mut app = app_with(&s, builder.build().unwrap(), "stj");

    // Click before the profile exists: inner join drops it.
    send(&s.cluster, "clicks", "u1", "c0", 500);
    run(&s, &mut app, 3);
    assert_eq!(read_out(&s.cluster), vec![]);

    send(&s.cluster, "profiles", "u1", "berlin", 1_000);
    run(&s, &mut app, 3);
    send(&s.cluster, "clicks", "u1", "c1", 1_500);
    run(&s, &mut app, 3);
    assert_eq!(read_out(&s.cluster), vec![("u1".into(), "c1@berlin".into())]);

    // Profile update affects subsequent clicks only.
    send(&s.cluster, "profiles", "u1", "tokyo", 2_000);
    run(&s, &mut app, 3);
    send(&s.cluster, "clicks", "u1", "c2", 2_500);
    run(&s, &mut app, 3);
    assert_eq!(
        read_out(&s.cluster),
        vec![("u1".into(), "c1@berlin".into()), ("u1".into(), "c2@tokyo".into())]
    );
    app.close().unwrap();
}

#[test]
fn stream_table_left_join_pads_missing_table_rows() {
    let s = setup(&["clicks", "profiles"]);
    let builder = StreamsBuilder::new();
    let clicks = builder.stream::<String, String>("clicks");
    let profiles = builder.table::<String, String>("profiles", "p-store");
    clicks
        .left_join_table(&profiles, |click, profile| {
            format!("{click}@{}", profile.map_or("unknown", String::as_str))
        })
        .to("out");
    let mut app = app_with(&s, builder.build().unwrap(), "stj-left");

    send(&s.cluster, "clicks", "u1", "c0", 500);
    run(&s, &mut app, 3);
    assert_eq!(read_out(&s.cluster), vec![("u1".into(), "c0@unknown".into())]);
    app.close().unwrap();
}

#[test]
fn a_match_cancels_only_padding_that_is_pending() {
    // One key every 10 ms, each left record 5 ms after a right one: every
    // left record matches on arrival, so none is ever pending, and the
    // right records matching it later have no padding to cancel.
    let s = setup(&["left", "right"]);
    let builder = StreamsBuilder::new();
    let right = builder.stream::<String, String>("right");
    builder
        .stream::<String, String>("left")
        .left_join(&right, JoinWindows::of(1_000), |l, r: Option<&String>| {
            format!("{l}+{}", r.map_or("-", String::as_str))
        })
        .to("out");
    let topology = builder.build().unwrap();
    let pending =
        topology.internal_topics.iter().find(|t| t.name.ends_with("left-pending-changelog"));
    let pending = format!("pending-app-{}", pending.expect("a left join pads its left side").name);
    let mut app = app_with(&s, topology, "pending-app");
    let mut p = Producer::new(s.cluster.clone(), ProducerConfig::default());
    let key = Some("k".to_string().to_bytes());
    for i in 0..100i64 {
        p.send("right", key.clone(), Some(format!("r{i}").to_bytes()), 10 * i).unwrap();
        p.send("left", key.clone(), Some(format!("l{i}").to_bytes()), 10 * i + 5).unwrap();
    }
    p.flush().unwrap();
    run(&s, &mut app, 20);
    let joined = read_out(&s.cluster);
    assert!(joined.len() > 100 && joined.iter().all(|(_, v)| !v.ends_with("+-")), "{joined:?}");

    let mut c = Consumer::new(s.cluster.clone(), "verify", ConsumerConfig::default());
    c.assign(vec![kbroker::TopicPartition::new(&pending, 0)]).unwrap();
    let mut tombstones = 0;
    loop {
        let batch = c.poll().unwrap();
        if batch.is_empty() {
            break;
        }
        tombstones += batch.iter().filter(|rec| rec.value.is_none()).count();
    }
    assert_eq!(tombstones, 0, "no left record was ever pending");
    app.close().unwrap();
}
