//! True multithreaded execution: application instances on separate OS
//! threads sharing one cluster (wall clock), with concurrent producers —
//! the deployment shape of §3.3/§6. Verifies exactly-once end to end under
//! real interleaving.

use bytes::Bytes;
use kbroker::{Cluster, Consumer, ConsumerConfig, Producer, ProducerConfig, TopicConfig};
use kstreams::topology::TaskId;
use kstreams::{KSerde, KafkaStreamsApp, StreamsBuilder, StreamsConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn counting_topology() -> Arc<kstreams::topology::Topology> {
    let builder = StreamsBuilder::new();
    builder.stream::<String, String>("events").group_by_key().count("counts").to_stream().to("out");
    Arc::new(builder.build().unwrap())
}

/// Feed `records` records over `keys` keys with monotone timestamps,
/// flushing every 64.
fn feed(cluster: &Cluster, records: usize, keys: usize) {
    let mut producer = Producer::new(cluster.clone(), ProducerConfig::default());
    for i in 0..records {
        producer
            .send(
                "events",
                Some(format!("k{}", i % keys).to_bytes()),
                Some(Bytes::from_static(b"x")),
                i as i64,
            )
            .unwrap();
        if i % 64 == 0 {
            producer.flush().unwrap();
        }
    }
    producer.flush().unwrap();
}

/// Run `meanwhile` until `group`'s committed input offsets reach the log end
/// on every partition of `events` — no fixed sleep, which is a race on slow
/// machines — with a hard deadline, so a livelocked run fails loudly
/// instead of hanging.
fn wait_until_committed(cluster: &Cluster, group: &str, mut meanwhile: impl FnMut()) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let partitions = cluster.partitions_of("events").unwrap();
    let committed = |tp| cluster.group_committed_offset(group, tp).ok().flatten().unwrap_or(0);
    while partitions.iter().any(|tp| committed(tp) < cluster.latest_offset(tp).unwrap()) {
        assert!(
            std::time::Instant::now() < deadline,
            "instances did not commit the whole input within the deadline"
        );
        meanwhile();
    }
}

fn nap() {
    std::thread::sleep(std::time::Duration::from_millis(10));
}

/// The latest committed count per key on `out`, and how many committed
/// outputs there are in all.
fn committed_counts(cluster: &Cluster) -> (BTreeMap<String, i64>, usize) {
    let mut c = Consumer::new(cluster.clone(), "v", ConsumerConfig::default().read_committed());
    c.assign(cluster.partitions_of("out").unwrap()).unwrap();
    let mut latest = BTreeMap::new();
    let mut outputs = 0;
    loop {
        let batch = c.poll().unwrap();
        if batch.is_empty() {
            return (latest, outputs);
        }
        for rec in batch {
            latest.insert(
                String::from_bytes(rec.key.as_ref().unwrap()).unwrap(),
                i64::from_bytes(rec.value.as_ref().unwrap()).unwrap(),
            );
            outputs += 1;
        }
    }
}

#[test]
fn four_threads_share_the_work_exactly_once() {
    const THREADS: usize = 4;
    const RECORDS: usize = 2_000;
    const KEYS: usize = 20;
    // Wall clock: this test runs in real time.
    let cluster = Cluster::builder().brokers(3).replication(3).build();
    cluster.create_topic("events", TopicConfig::new(4)).unwrap();
    cluster.create_topic("out", TopicConfig::new(4)).unwrap();
    let topology = counting_topology();

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for i in 0..THREADS {
        let cluster = cluster.clone();
        let topology = topology.clone();
        let stop = stop.clone();
        handles.push(std::thread::spawn(move || {
            let mut app = KafkaStreamsApp::new(
                cluster,
                topology,
                StreamsConfig::new("mt-app").exactly_once().with_commit_interval_ms(5),
                format!("thread-{i}"),
            );
            app.start().unwrap();
            while !stop.load(Ordering::Relaxed) {
                app.step().unwrap();
            }
            let processed = app.metrics().records_processed;
            app.close().unwrap();
            processed
        }));
    }

    // A concurrent producer feeds records while the instances run.
    feed(&cluster, RECORDS, KEYS);
    wait_until_committed(&cluster, "mt-app", nap);
    stop.store(true, Ordering::Relaxed);
    let mut total_processed = 0;
    for h in handles {
        total_processed += h.join().expect("instance thread");
    }
    // Processing attempts may exceed RECORDS: work discarded by a
    // rebalance-overtaken (aborted) transaction is reprocessed. The
    // exactly-once guarantee is about *committed* results, asserted below.
    assert!(total_processed as usize >= RECORDS, "all records processed at least once");

    let (latest, outputs) = committed_counts(&cluster);
    assert_eq!(outputs, RECORDS, "one committed output per input");
    assert_eq!(latest.len(), KEYS);
    let expected = (RECORDS / KEYS) as i64;
    assert!(latest.values().all(|&v| v == expected), "every key counted to {expected}: {latest:?}");
}

type StoreDump = BTreeMap<(TaskId, String), Vec<(Bytes, Bytes)>>;

const EQ_RECORDS: usize = 2_000;
const EQ_KEYS: usize = 32;
const EQ_PARTITIONS: usize = 8;

/// One run of the counting app over a fixed input. `instances` instances
/// form their group stepped round-robin on the calling thread; then the
/// input arrives while — `threaded` — each instance runs on an OS thread of
/// its own, or they keep being stepped one after another. Returns the
/// committed per-key counts, the number of committed outputs, and the union
/// of the instances' store dumps.
fn run_counting_app(instances: usize, threaded: bool) -> (BTreeMap<String, i64>, usize, StoreDump) {
    let cluster = Cluster::builder().brokers(3).replication(3).build();
    cluster.create_topic("events", TopicConfig::new(EQ_PARTITIONS as u32)).unwrap();
    cluster.create_topic("out", TopicConfig::new(EQ_PARTITIONS as u32)).unwrap();
    let topology = counting_topology();
    let mut apps: Vec<KafkaStreamsApp> = (0..instances)
        .map(|i| {
            let config = StreamsConfig::new("eq-app").exactly_once().with_commit_interval_ms(5);
            let mut app =
                KafkaStreamsApp::new(cluster.clone(), topology.clone(), config, format!("i{i}"));
            app.start().unwrap();
            app
        })
        .collect();
    // Settle the group first, so no task changes hands once input flows.
    let step_all = |apps: &mut Vec<KafkaStreamsApp>| {
        for app in apps {
            app.step().unwrap();
        }
    };
    let settled = |app: &KafkaStreamsApp| {
        app.task_ids().len() == EQ_PARTITIONS / instances && app.warmup_ids().is_empty()
    };
    for _ in 0..10_000 {
        if apps.iter().all(settled) {
            break;
        }
        step_all(&mut apps);
    }
    assert!(apps.iter().all(settled), "the group did not settle on an even split");

    let apps = if threaded {
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = apps
            .into_iter()
            .map(|mut app| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        app.step().unwrap();
                    }
                    app
                })
            })
            .collect();
        feed(&cluster, EQ_RECORDS, EQ_KEYS);
        wait_until_committed(&cluster, "eq-app", nap);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().expect("instance thread")).collect()
    } else {
        feed(&cluster, EQ_RECORDS, EQ_KEYS);
        wait_until_committed(&cluster, "eq-app", || step_all(&mut apps));
        apps
    };
    let (latest, outputs) = committed_counts(&cluster);
    (latest, outputs, apps.iter().flat_map(KafkaStreamsApp::dump_stores).collect())
}

/// The instance is the unit of parallelism: the same input through one
/// instance stepped serially and through four instances on four OS threads
/// commits the same results and leaves the same state behind.
#[test]
fn four_instances_on_threads_match_one_instance_stepped_serially() {
    let (serial_latest, serial_outputs, serial_stores) = run_counting_app(1, false);
    assert_eq!(serial_outputs, EQ_RECORDS, "one committed output per input");
    assert_eq!(serial_latest.len(), EQ_KEYS);
    assert_eq!(serial_stores.len(), EQ_PARTITIONS, "one store per task");

    let (latest, outputs, stores) = run_counting_app(4, true);
    assert_eq!(latest, serial_latest, "committed per-key counts");
    assert_eq!(outputs, serial_outputs, "committed output count");
    assert_eq!(stores, serial_stores, "union of the instances' stores");
}

#[test]
fn producers_race_from_many_threads_with_idempotence() {
    // Multiple producer threads with ack-loss faults: the broker-side
    // dedup must keep each thread's stream exactly-once under contention.
    use simkit::{FaultPlan, FaultPoint};
    let faults = FaultPlan::seeded(99).with_ack_loss(FaultPoint::ProduceAckLost, 0.2);
    let cluster = Cluster::builder().brokers(3).replication(3).faults(faults).build();
    cluster.create_topic("t", TopicConfig::new(4)).unwrap();
    let mut handles = Vec::new();
    for t in 0..4 {
        let cluster = cluster.clone();
        handles.push(std::thread::spawn(move || {
            let mut p = Producer::new(
                cluster,
                ProducerConfig { max_retries: 100, ..ProducerConfig::idempotent_only() },
            );
            for i in 0..500 {
                p.send(
                    "t",
                    Some(format!("t{t}-k{}", i % 8).to_bytes()),
                    Some(format!("t{t}-v{i}").to_bytes()),
                    i,
                )
                .unwrap();
            }
            p.flush().unwrap();
        }));
    }
    for h in handles {
        h.join().expect("producer thread");
    }
    let total: usize = cluster.topic_record_count("t").unwrap();
    assert_eq!(total, 4 * 500, "per-producer sequences dedup independently");
}
