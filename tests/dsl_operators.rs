//! DSL operator coverage: the stateless transforms, branching, stream↔table
//! conversions, flat_map re-keying, the folds and joins — each run
//! end-to-end through the exactly-once runtime — and the typed boundary's
//! failures: a record that does not decode fails its task, and an invalid
//! DSL call fails the build.

use bytes::Bytes;
use kbroker::{
    BrokerError, Cluster, Consumer, ConsumerConfig, Producer, ProducerConfig, TopicConfig,
};
use kstreams::{KSerde, KafkaStreamsApp, StreamsBuilder, StreamsConfig, StreamsError};
use simkit::ManualClock;
use std::collections::HashMap;
use std::sync::Arc;

struct Setup {
    cluster: Cluster,
    clock: ManualClock,
}

fn setup(out_topics: &[&str]) -> Setup {
    let clock = ManualClock::new();
    let cluster = Cluster::builder().brokers(1).replication(1).clock(clock.shared()).build();
    cluster.create_topic("in", TopicConfig::new(2)).unwrap();
    for t in out_topics {
        cluster.create_topic(t, TopicConfig::new(2)).unwrap();
    }
    Setup { cluster, clock }
}

fn send(cluster: &Cluster, key: &str, value: &str, ts: i64) {
    let mut p = Producer::new(cluster.clone(), ProducerConfig::default());
    p.send("in", Some(key.to_string().to_bytes()), Some(value.to_string().to_bytes()), ts).unwrap();
    p.flush().unwrap();
}

fn run_app(s: &Setup, topology: kstreams::topology::Topology, steps: usize) -> KafkaStreamsApp {
    let mut app = KafkaStreamsApp::new(
        s.cluster.clone(),
        Arc::new(topology),
        StreamsConfig::new("dsl-app").exactly_once().with_commit_interval_ms(10),
        "i0",
    );
    app.start().unwrap();
    for _ in 0..steps {
        app.step().unwrap();
        s.clock.advance(10);
    }
    app
}

fn read_pairs(cluster: &Cluster, topic: &str) -> Vec<(String, String)> {
    let mut c = Consumer::new(cluster.clone(), "v", ConsumerConfig::default().read_committed());
    c.assign(cluster.partitions_of(topic).unwrap()).unwrap();
    let mut out = Vec::new();
    loop {
        let batch = c.poll().unwrap();
        if batch.is_empty() {
            break;
        }
        for rec in batch {
            out.push((
                String::from_bytes(rec.key.as_ref().unwrap()).unwrap(),
                rec.value.map(|v| String::from_bytes(&v).unwrap()).unwrap_or_default(),
            ));
        }
    }
    out.sort();
    out
}

#[test]
fn branch_splits_disjointly() {
    let s = setup(&["vip", "rest"]);
    let builder = StreamsBuilder::new();
    let stream = builder.stream::<String, String>("in");
    let (vip, rest) = stream.branch(|_k, v| v.starts_with("vip"));
    vip.to("vip");
    rest.to("rest");
    send(&s.cluster, "a", "vip-order", 0);
    send(&s.cluster, "b", "normal-order", 1);
    send(&s.cluster, "c", "vip-refund", 2);
    let mut app = run_app(&s, builder.build().unwrap(), 10);
    assert_eq!(
        read_pairs(&s.cluster, "vip"),
        vec![("a".into(), "vip-order".into()), ("c".into(), "vip-refund".into())]
    );
    assert_eq!(read_pairs(&s.cluster, "rest"), vec![("b".into(), "normal-order".into())]);
    app.close().unwrap();
}

#[test]
fn filter_not_is_the_complement() {
    let s = setup(&["kept"]);
    let builder = StreamsBuilder::new();
    builder.stream::<String, String>("in").filter_not(|_k, v| v.contains("drop")).to("kept");
    send(&s.cluster, "a", "drop-me", 0);
    send(&s.cluster, "b", "keep-me", 1);
    let mut app = run_app(&s, builder.build().unwrap(), 10);
    assert_eq!(read_pairs(&s.cluster, "kept"), vec![("b".into(), "keep-me".into())]);
    app.close().unwrap();
}

#[test]
fn flat_map_rekeys_and_repartitions_for_aggregation() {
    // flat_map fans each record out under new keys; the following count
    // must see co-partitioned data (i.e. a repartition topic is inserted).
    let s = setup(&["word-counts"]);
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, String>("in")
        .flat_map(|_k, sentence| sentence.split(' ').map(|w| (w.to_string(), 1i64)).collect())
        .group_by_key()
        .count("word-count-store")
        .to_stream()
        .to("word-counts");
    let topology = builder.build().unwrap();
    assert_eq!(topology.subtopologies.len(), 2, "flat_map forces a repartition");
    send(&s.cluster, "doc1", "the quick fox", 0);
    send(&s.cluster, "doc2", "the lazy dog", 1);
    let mut app = run_app(&s, topology, 15);
    // Latest count per word.
    let mut latest: HashMap<String, String> = HashMap::new();
    for (k, _) in read_pairs(&s.cluster, "word-counts") {
        latest.insert(k, String::new());
    }
    assert!(latest.contains_key("the"));
    assert_eq!(
        app.query_kv("word-count-store", &"the".to_string().to_bytes())
            .map(|b| i64::from_bytes(&b).unwrap()),
        Some(2),
        "'the' appears in both documents"
    );
    app.close().unwrap();
}

#[test]
fn to_table_materializes_a_stream() {
    let s = setup(&["latest"]);
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, String>("in")
        .to_table("latest-store")
        .map_values(|_k, v| format!("latest:{v}"))
        .to_stream()
        .to("latest");
    send(&s.cluster, "k", "v1", 0);
    send(&s.cluster, "k", "v2", 1);
    let mut app = run_app(&s, builder.build().unwrap(), 10);
    // The table emitted a revision for the overwrite.
    let out = read_pairs(&s.cluster, "latest");
    assert_eq!(out, vec![("k".into(), "latest:v1".into()), ("k".into(), "latest:v2".into())]);
    assert_eq!(
        app.query_kv("latest-store", &"k".to_string().to_bytes())
            .map(|b| String::from_bytes(&b).unwrap()),
        Some("v2".into())
    );
    app.close().unwrap();
}

#[test]
fn to_table_store_has_a_changelog() {
    // Unlike builder.table (source-changelog optimization), a mid-topology
    // to_table cannot reuse a source topic: it gets a changelog.
    let builder = StreamsBuilder::new();
    builder.stream::<String, String>("in").to_table("mid-store");
    let topology = builder.build().unwrap();
    assert!(topology.internal_topics.iter().any(|t| t.name == "mid-store-changelog"));
}

#[test]
fn peek_observes_without_altering() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let s = setup(&["out"]);
    let seen = Arc::new(AtomicUsize::new(0));
    let seen2 = seen.clone();
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, String>("in")
        .peek(move |_k, _v| {
            seen2.fetch_add(1, Ordering::Relaxed);
        })
        .to("out");
    send(&s.cluster, "a", "x", 0);
    send(&s.cluster, "b", "y", 1);
    let mut app = run_app(&s, builder.build().unwrap(), 10);
    assert_eq!(seen.load(Ordering::Relaxed), 2);
    assert_eq!(read_pairs(&s.cluster, "out").len(), 2);
    app.close().unwrap();
}

#[test]
fn select_key_then_count_repartitions() {
    let s = setup(&["by-prefix"]);
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, String>("in")
        .select_key(|_k, v| v.chars().next().unwrap_or('?').to_string())
        .group_by_key()
        .count("prefix-counts")
        .to_stream()
        .to("by-prefix");
    let topology = builder.build().unwrap();
    assert_eq!(topology.subtopologies.len(), 2);
    send(&s.cluster, "x", "apple", 0);
    send(&s.cluster, "y", "avocado", 1);
    send(&s.cluster, "z", "banana", 2);
    let mut app = run_app(&s, topology, 15);
    assert_eq!(
        app.query_kv("prefix-counts", &"a".to_string().to_bytes())
            .map(|b| i64::from_bytes(&b).unwrap()),
        Some(2)
    );
    app.close().unwrap();
}

/// One operator run end to end: the topology `build` declares (reading
/// `in` and `in2`, writing `out`), the records sent, and every record
/// `out` holds afterwards as `render` prints it, sorted.
struct Case {
    name: &'static str,
    build: fn(&StreamsBuilder),
    input: &'static [(&'static str, &'static str, &'static str, i64)],
    render: fn(&[u8], Option<&[u8]>) -> String,
    want: &'static [&'static str],
}

/// `key=value`, both strings; a tombstone prints as `key=∅`.
fn strings(key: &[u8], value: Option<&[u8]>) -> String {
    let value = value.map_or("∅".into(), |v| String::from_bytes(v).unwrap());
    format!("{}={value}", String::from_bytes(key).unwrap())
}

/// `key=n`: a string key and an `i64` value.
fn counts(key: &[u8], value: Option<&[u8]>) -> String {
    format!("{}={}", String::from_bytes(key).unwrap(), i64::from_bytes(value.unwrap()).unwrap())
}

/// `key@start=value`: a windowed string key and a string value.
fn windowed_strings(key: &[u8], value: Option<&[u8]>) -> String {
    let w = kstreams::Windowed::<String>::from_bytes(key).unwrap();
    strings(&format!("{}@{}", w.key, w.window_start).to_bytes(), value)
}

/// `key@start=n`: a windowed string key and an `i64` value.
fn windowed_counts(key: &[u8], value: Option<&[u8]>) -> String {
    let w = kstreams::Windowed::<String>::from_bytes(key).unwrap();
    counts(&format!("{}@{}", w.key, w.window_start).to_bytes(), value)
}

fn concat(a: &String, b: &String) -> String {
    format!("{a}+{b}")
}

fn or_dash(v: Option<&String>) -> &str {
    v.map_or("-", String::as_str)
}

const CASES: &[Case] = &[
    Case {
        name: "flat_map_values",
        build: |b| {
            b.stream::<String, String>("in")
                .flat_map_values(|_, v| v.split(',').map(String::from).collect())
                .to("out");
        },
        input: &[("in", "a", "x,y", 0), ("in", "b", "z", 1)],
        render: strings,
        want: &["a=x", "a=y", "b=z"],
    },
    Case {
        name: "map",
        build: |b| b.stream::<String, String>("in").map(|k, v| (v.clone(), k.clone())).to("out"),
        input: &[("in", "a", "x", 0), ("in", "b", "y", 1)],
        render: strings,
        want: &["x=a", "y=b"],
    },
    Case {
        name: "stream reduce",
        build: |b| {
            let s = b.stream::<String, String>("in").group_by_key();
            s.reduce("reduced", concat).to_stream().to("out");
        },
        input: &[("in", "a", "1", 0), ("in", "a", "2", 1), ("in", "b", "3", 2)],
        render: strings,
        want: &["a=1", "a=1+2", "b=3"],
    },
    Case {
        name: "windowed reduce",
        build: |b| {
            let s = b.stream::<String, String>("in").group_by_key();
            let w = s.windowed_by(kstreams::TimeWindows::of(100));
            w.reduce("reduced", concat).to_stream().to("out");
        },
        input: &[("in", "a", "1", 0), ("in", "a", "2", 50), ("in", "a", "3", 150)],
        render: windowed_strings,
        want: &["a@0=1", "a@0=1+2", "a@100=3"],
    },
    Case {
        name: "session reduce",
        build: |b| {
            let s = b.stream::<String, String>("in").group_by_key();
            let w = s.windowed_by_session(kstreams::SessionWindows::with_gap(50));
            w.reduce("sessions", concat).to_stream().to("out");
        },
        // The second record joins the first session: the session's old
        // aggregate is retracted and the merged one emitted.
        input: &[("in", "a", "1", 0), ("in", "a", "2", 30), ("in", "a", "3", 200)],
        render: windowed_strings,
        want: &["a@0=1", "a@0=2+1", "a@0=∅", "a@200=3"],
    },
    Case {
        name: "stream aggregate",
        build: |b| {
            let s = b.stream::<String, String>("in").group_by_key();
            s.aggregate("lengths", || 0, |v: &String, n| n + v.len() as i64).to_stream().to("out");
        },
        input: &[("in", "a", "xx", 0), ("in", "a", "yyy", 1), ("in", "b", "z", 2)],
        render: counts,
        want: &["a=2", "a=5", "b=1"],
    },
    Case {
        name: "windowed aggregate",
        build: |b| {
            let s = b.stream::<String, String>("in").group_by_key();
            let w = s.windowed_by(kstreams::TimeWindows::of(100));
            w.aggregate("lengths", || 0, |v: &String, n| n + v.len() as i64).to_stream().to("out");
        },
        input: &[("in", "a", "xx", 0), ("in", "a", "yyy", 50), ("in", "a", "z", 150)],
        render: windowed_counts,
        want: &["a@0=2", "a@0=5", "a@100=1"],
    },
    Case {
        name: "KTable::filter",
        build: |b| {
            let t = b.stream::<String, String>("in").to_table("latest");
            t.filter(|_, v| v != "drop").to_stream().to("out");
        },
        // A kept row that fails the predicate becomes a deletion; a row
        // never kept emits nothing.
        input: &[("in", "a", "keep", 0), ("in", "a", "drop", 1), ("in", "b", "drop", 2)],
        render: strings,
        want: &["a=keep", "a=∅"],
    },
    Case {
        name: "KTable::map_values",
        build: |b| {
            let t = b.stream::<String, String>("in").to_table("latest");
            t.map_values(|k, v| format!("{k}:{v}")).to_stream().to("out");
        },
        input: &[("in", "a", "1", 0), ("in", "a", "2", 1)],
        render: strings,
        want: &["a=a:1", "a=a:2"],
    },
    Case {
        name: "KTable::outer_join",
        build: |b| {
            let left = b.table::<String, String>("in", "left");
            let right = b.table::<String, String>("in2", "right");
            let joined = left.outer_join(&right, |l, r| format!("{}|{}", or_dash(l), or_dash(r)));
            joined.to_stream().to("out");
        },
        input: &[("in", "a", "L1", 0), ("in2", "b", "R1", 1), ("in2", "a", "R2", 2)],
        render: strings,
        want: &["a=L1|-", "a=L1|R2", "b=-|R1"],
    },
    Case {
        name: "KStream::merge",
        build: |b| {
            let left = b.stream::<String, String>("in");
            left.merge(&b.stream::<String, String>("in2")).to("out");
        },
        input: &[("in", "a", "1", 0), ("in2", "b", "2", 1)],
        render: strings,
        want: &["a=1", "b=2"],
    },
];

#[test]
fn each_operator_emits_its_records() {
    for case in CASES {
        let s = setup(&["in2", "out"]);
        let builder = StreamsBuilder::new();
        (case.build)(&builder);
        let mut p = Producer::new(s.cluster.clone(), ProducerConfig::default());
        for &(topic, key, value, ts) in case.input {
            let (key, value) = (key.to_string().to_bytes(), value.to_string().to_bytes());
            p.send(topic, Some(key), Some(value), ts).unwrap();
        }
        p.flush().unwrap();
        let mut app = run_app(&s, builder.build().unwrap(), 10);
        let mut c =
            Consumer::new(s.cluster.clone(), "v", ConsumerConfig::default().read_committed());
        c.assign(s.cluster.partitions_of("out").unwrap()).unwrap();
        let mut got = Vec::new();
        loop {
            let batch = c.poll().unwrap();
            if batch.is_empty() {
                break;
            }
            got.extend(
                batch.iter().map(|r| (case.render)(r.key.as_ref().unwrap(), r.value.as_deref())),
            );
        }
        got.sort();
        assert_eq!(got, case.want, "{}", case.name);
        app.close().unwrap();
    }
}

/// Feed a `stream::<String, i64>` → `filter` → `map_values` app a good
/// record and then `poison`, both under `key`: the step fails with a serde
/// error instead of panicking, and so does every later step and commit, so
/// nothing of the task's work commits.
fn poison_fails_its_task(key: Option<&str>, poison: &[u8]) {
    let s = setup(&["out"]);
    let builder = StreamsBuilder::new();
    builder.stream::<String, i64>("in").filter(|_, v| *v > 0).map_values(|_, v| v * 2).to("out");
    let mut p = Producer::new(s.cluster.clone(), ProducerConfig::default());
    let key = key.map(|k| k.to_string().to_bytes());
    p.send("in", key.clone(), Some(1i64.to_bytes()), 0).unwrap();
    p.send("in", key, Some(Bytes::copy_from_slice(poison)), 1).unwrap();
    p.flush().unwrap();
    let mut app = KafkaStreamsApp::new(
        s.cluster.clone(),
        Arc::new(builder.build().unwrap()),
        StreamsConfig::new("dsl-app").exactly_once().with_commit_interval_ms(10),
        "i0",
    );
    app.start().unwrap();
    for _ in 0..3 {
        assert!(matches!(app.step(), Err(StreamsError::Serde(_))));
        s.clock.advance(10);
    }
    assert!(matches!(app.commit(), Err(StreamsError::Serde(_))));
    assert_eq!(read_pairs(&s.cluster, "out"), vec![], "nothing was committed");
    for tp in s.cluster.partitions_of("in").unwrap() {
        assert_eq!(s.cluster.group_committed_offset("dsl-app", &tp).unwrap(), None, "{tp:?}");
    }
}

#[test]
fn a_value_that_does_not_decode_fails_its_task() {
    poison_fails_its_task(Some("k"), &[1, 2, 3]);
}

#[test]
fn a_record_without_a_key_fails_its_task() {
    poison_fails_its_task(None, &5i64.to_bytes());
}

/// Closing an instance whose task failed still leaves its group: `close()`
/// returns the final commit's error, and the member is gone at once, so its
/// partitions need not wait out a session timeout to move.
#[test]
fn close_after_a_failed_task_leaves_the_group() {
    let s = setup(&["out"]);
    let builder = StreamsBuilder::new();
    builder.stream::<String, i64>("in").map_values(|_, v| v * 2).to("out");
    let mut p = Producer::new(s.cluster.clone(), ProducerConfig::default());
    p.send("in", Some("k".to_string().to_bytes()), Some(Bytes::from_static(&[1, 2, 3])), 0)
        .unwrap();
    p.flush().unwrap();
    let mut app = KafkaStreamsApp::new(
        s.cluster.clone(),
        Arc::new(builder.build().unwrap()),
        StreamsConfig::new("dsl-app").exactly_once().with_commit_interval_ms(10),
        "i0",
    );
    app.start().unwrap();
    assert!(matches!(app.step(), Err(StreamsError::Serde(_))));
    assert!(matches!(app.close(), Err(StreamsError::Serde(_))));
    assert!(matches!(
        s.cluster.group_view("dsl-app", "i0"),
        Err(BrokerError::UnknownMember { .. })
    ));
    assert_eq!(app.close(), Ok(()), "a closed instance is no longer started");
}

#[test]
fn a_store_name_taken_twice_fails_the_build() {
    let builder = StreamsBuilder::new();
    let stream = builder.stream::<String, String>("in");
    stream.to_table("store");
    stream.group_by_key().count("store");
    assert!(
        matches!(builder.build(), Err(StreamsError::InvalidTopology(m)) if m.contains("store"))
    );
}

#[test]
fn a_window_suppress_without_a_window_fails_the_build() {
    let builder = StreamsBuilder::new();
    let counts = builder.stream::<String, String>("in").group_by_key().count("counts");
    counts.suppress_until_window_close().to_stream().to("out");
    assert!(matches!(builder.build(), Err(StreamsError::InvalidTopology(_))));
}
