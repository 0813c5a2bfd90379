//! Permutation property tests for the work-stealing scheduler (§6.1): the
//! committed outputs and final store contents must not depend on how task
//! executions interleave across workers. Tasks are independent (one per
//! input partition, task-local state, per-task commit scope), so *any*
//! interleaving of their steps — any worker count, any steal schedule the
//! seed stream can produce, and real OS-thread races alike — must be
//! observationally identical to serial execution: same committed outputs,
//! same final store bytes.

use bytes::Bytes;
use kbroker::{Cluster, Consumer, ConsumerConfig, Producer, ProducerConfig, TopicConfig};
use kstreams::{KSerde, KafkaStreamsApp, StreamsBuilder, StreamsConfig};
use proptest::prelude::*;
use simkit::ManualClock;
use std::collections::BTreeMap;
use std::sync::Arc;

fn counting_topology() -> Arc<kstreams::topology::Topology> {
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, String>("events")
        .group_by_key()
        .count("counts-store")
        .to_stream()
        .to("out");
    Arc::new(builder.build().unwrap())
}

/// One full app run over a fresh cluster: feed the workload, process to
/// quiescence under the given scheduler shape, return the observable
/// outcome (final store dump, last committed output per key, committed
/// output count).
struct Outcome {
    dump: BTreeMap<(kstreams::topology::TaskId, String), Vec<(Bytes, Bytes)>>,
    latest: BTreeMap<String, i64>,
    total: usize,
}

fn run(
    records: usize,
    keys: usize,
    partitions: u32,
    workers: usize,
    sched_seed: Option<u64>,
    advance_ms: i64,
) -> Outcome {
    let clock = ManualClock::new();
    let cluster = Cluster::builder().brokers(3).replication(3).clock(clock.shared()).build();
    cluster.create_topic("events", TopicConfig::new(partitions)).unwrap();
    cluster.create_topic("out", TopicConfig::new(partitions)).unwrap();
    let mut p = Producer::new(cluster.clone(), ProducerConfig::default());
    for i in 0..records {
        p.send(
            "events",
            Some(format!("k{}", i % keys).to_bytes()),
            Some(Bytes::from_static(b"x")),
            i as i64,
        )
        .unwrap();
    }
    p.flush().unwrap();

    let mut cfg = StreamsConfig::new("perm-app")
        .exactly_once()
        .with_commit_interval_ms(10)
        .with_num_worker_threads(workers);
    if let Some(seed) = sched_seed {
        cfg = cfg.with_deterministic_scheduler(seed);
    }
    let mut app = KafkaStreamsApp::new(cluster.clone(), counting_topology(), cfg, "i0");
    app.start().unwrap();

    let targets: Vec<_> = cluster
        .partitions_of("events")
        .unwrap()
        .into_iter()
        .map(|tp| {
            let end = cluster.latest_offset(&tp).unwrap();
            (tp, end)
        })
        .collect();
    let mut done = false;
    for _ in 0..4_000 {
        app.step().unwrap();
        clock.advance(advance_ms);
        done = targets.iter().all(|(tp, end)| {
            cluster.group_committed_offset("perm-app", tp).ok().flatten().unwrap_or(0) >= *end
        });
        if done {
            break;
        }
    }
    assert!(done, "app did not commit the whole input within the step bound");
    let dump = app.dump_stores();
    app.close().unwrap();

    let mut consumer =
        Consumer::new(cluster.clone(), "verify", ConsumerConfig::default().read_committed());
    consumer.assign(cluster.partitions_of("out").unwrap()).unwrap();
    let mut latest = BTreeMap::new();
    let mut total = 0;
    loop {
        let batch = consumer.poll().unwrap();
        if batch.is_empty() {
            break;
        }
        for rec in batch {
            let k = String::from_bytes(rec.key.as_ref().unwrap()).unwrap();
            let v = i64::from_bytes(rec.value.as_ref().unwrap()).unwrap();
            latest.insert(k, v);
            total += 1;
        }
    }
    Outcome { dump, latest, total }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// ANY deterministic steal schedule — any worker count (one worker with
    /// a seed and more workers than tasks included), any seed, any commit
    /// cadence (via the clock-advance stride) — commits exactly the same
    /// outputs and leaves exactly the same store bytes as serial execution
    /// of the same workload.
    #[test]
    fn any_steal_schedule_is_observationally_serial(
        records in 40usize..140,
        keys in 1usize..12,
        partitions in 1u32..9,
        workers in 1usize..13,
        sched_seed in any::<u64>(),
        advance_ms in 1i64..30,
    ) {
        let serial = run(records, keys, partitions, 1, None, advance_ms);
        prop_assert_eq!(serial.total, records, "serial baseline must be exactly-once");
        let parallel = run(records, keys, partitions, workers, Some(sched_seed), advance_ms);
        prop_assert_eq!(
            &serial.dump, &parallel.dump,
            "workers={} seed={}: stores diverged from serial", workers, sched_seed
        );
        prop_assert_eq!(&serial.latest, &parallel.latest, "final revisions diverged");
        prop_assert_eq!(serial.total, parallel.total, "committed output count diverged");
    }

    /// Real OS-thread interleavings (no seed: genuinely racy work stealing)
    /// are just as invisible: committed outputs and stores match serial.
    #[test]
    fn threaded_interleavings_are_observationally_serial(
        records in 40usize..120,
        keys in 1usize..10,
        partitions in 1u32..7,
        workers in 2usize..11,
        advance_ms in 1i64..30,
    ) {
        let serial = run(records, keys, partitions, 1, None, advance_ms);
        prop_assert_eq!(serial.total, records, "serial baseline must be exactly-once");
        let threaded = run(records, keys, partitions, workers, None, advance_ms);
        prop_assert_eq!(
            &serial.dump, &threaded.dump,
            "threaded workers={}: stores diverged from serial", workers
        );
        prop_assert_eq!(&serial.latest, &threaded.latest, "final revisions diverged");
        prop_assert_eq!(serial.total, threaded.total, "committed output count diverged");
    }
}
