//! Concurrency battery for the work-stealing task scheduler: exactly-once
//! must hold for every worker count, through crashes landing mid-steal,
//! through rebalances arriving while parallel cycles run — and the final
//! store contents must be bit-identical to serial execution.
//!
//! Both executors of the scheduler are exercised:
//! * threads (no seed) — real OS worker threads (the deployment shape),
//! * inline (a seed) — the seed-driven deterministic serialization
//!   `simtest` uses; its shuffled per-round visit order makes idle workers
//!   steal from slower peers, so crash points reliably land between stolen
//!   task executions.

use bytes::Bytes;
use kbroker::{Cluster, Consumer, ConsumerConfig, Producer, ProducerConfig, TopicConfig};
use kstreams::topology::Topology;
use kstreams::{KSerde, KafkaStreamsApp, ProcessingGuarantee, StreamsBuilder, StreamsConfig};
use simkit::ManualClock;
use std::collections::BTreeMap;
use std::sync::Arc;

fn counting_topology() -> Arc<Topology> {
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, String>("events")
        .group_by_key()
        .count("counts-store")
        .to_stream()
        .to("out");
    Arc::new(builder.build().unwrap())
}

/// Two sub-topologies: the re-keyed count reads a repartition topic the
/// first sub-topology's tasks write, so what it sees within one cycle
/// depends on when those tasks' writes were drained into the producer.
fn regrouping_topology() -> Arc<Topology> {
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, String>("events")
        .group_by(|k, _v| format!("len{}", k.len()))
        .count("regrouped-store")
        .to_stream()
        .to("out");
    Arc::new(builder.build().unwrap())
}

struct Setup {
    cluster: Cluster,
    clock: ManualClock,
}

fn setup(partitions: u32) -> Setup {
    let clock = ManualClock::new();
    let cluster = Cluster::builder().brokers(3).replication(3).clock(clock.shared()).build();
    cluster.create_topic("events", TopicConfig::new(partitions)).unwrap();
    cluster.create_topic("out", TopicConfig::new(partitions)).unwrap();
    Setup { cluster, clock }
}

/// Feed `n` records over `keys` distinct keys with monotone timestamps.
fn feed(cluster: &Cluster, n: usize, keys: usize) {
    let mut p = Producer::new(cluster.clone(), ProducerConfig::default());
    for i in 0..n {
        p.send(
            "events",
            Some(format!("k{}", i % keys).to_bytes()),
            Some(Bytes::from_static(b"x")),
            i as i64,
        )
        .unwrap();
    }
    p.flush().unwrap();
}

fn config(app_id: &str, workers: usize, seed: Option<u64>) -> StreamsConfig {
    let cfg = StreamsConfig::new(app_id)
        .exactly_once()
        .with_commit_interval_ms(10)
        .with_num_worker_threads(workers);
    match seed {
        Some(seed) => cfg.with_deterministic_scheduler(seed),
        None => cfg,
    }
}

/// Step the apps (advancing the virtual clock) until the group's committed
/// input offsets reach the log end, bounded so a stuck run fails loudly.
fn run_until_committed(
    apps: &mut [KafkaStreamsApp],
    cluster: &Cluster,
    clock: &ManualClock,
    app_id: &str,
) {
    let targets: Vec<_> = cluster
        .partitions_of("events")
        .unwrap()
        .into_iter()
        .map(|tp| {
            let end = cluster.latest_offset(&tp).unwrap();
            (tp, end)
        })
        .collect();
    for _ in 0..2_000 {
        for app in apps.iter_mut() {
            app.step().unwrap();
        }
        clock.advance(20);
        let done = targets.iter().all(|(tp, end)| {
            cluster.group_committed_offset(app_id, tp).ok().flatten().unwrap_or(0) >= *end
        });
        if done {
            return;
        }
    }
    panic!("apps did not commit the whole input within the step bound");
}

/// Committed per-key counts plus total committed outputs.
fn read_output(cluster: &Cluster) -> (BTreeMap<String, i64>, usize) {
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
    (latest, total)
}

fn assert_exactly_once(cluster: &Cluster, records: usize, keys: usize) {
    let (latest, total) = read_output(cluster);
    assert_eq!(total, records, "exactly one committed output per input");
    assert_eq!(latest.len(), keys);
    let expected = (records / keys) as i64;
    assert!(latest.values().all(|&v| v == expected), "every key counted to {expected}: {latest:?}");
}

/// N-worker × M-partition sweep with real OS worker threads: exactly-once
/// holds for every combination, including workers > tasks.
#[test]
fn threaded_worker_partition_sweep_is_exactly_once() {
    const RECORDS: usize = 400;
    const KEYS: usize = 16;
    for &partitions in &[1u32, 4, 8] {
        for &workers in &[1usize, 2, 4, 8] {
            let s = setup(partitions);
            feed(&s.cluster, RECORDS, KEYS);
            let mut app = KafkaStreamsApp::new(
                s.cluster.clone(),
                counting_topology(),
                config("sweep-app", workers, None),
                "i0",
            );
            app.start().unwrap();
            let mut apps = vec![app];
            run_until_committed(&mut apps, &s.cluster, &s.clock, "sweep-app");
            apps.pop().unwrap().close().unwrap();
            assert_exactly_once(&s.cluster, RECORDS, KEYS);
        }
    }
}

/// Crash the instance while the deterministic scheduler is mid-sweep (the
/// 4-worker / 6-task layout plus shuffled visit order steals early and
/// often), then restart under the same id: the epoch bump fences the dead
/// incarnation and the committed output stays exactly-once.
#[test]
fn crash_mid_steal_recovers_exactly_once() {
    const RECORDS: usize = 600;
    const KEYS: usize = 24;
    let s = setup(6);
    feed(&s.cluster, RECORDS, KEYS);
    let mut app = KafkaStreamsApp::new(
        s.cluster.clone(),
        counting_topology(),
        config("steal-app", 4, Some(11)),
        "i0",
    );
    app.start().unwrap();
    // A handful of parallel cycles: enough to open a transaction and
    // accumulate stolen task executions, not enough to finish.
    for _ in 0..5 {
        app.step().unwrap();
        s.clock.advance(5);
    }
    assert!(app.metrics().scheduler_steals > 0, "uneven layout must steal before the crash");
    app.crash();

    let mut app = KafkaStreamsApp::new(
        s.cluster.clone(),
        counting_topology(),
        config("steal-app", 4, Some(11)),
        "i0",
    );
    app.start().unwrap();
    let mut apps = vec![app];
    run_until_committed(&mut apps, &s.cluster, &s.clock, "steal-app");
    apps.pop().unwrap().close().unwrap();
    assert_exactly_once(&s.cluster, RECORDS, KEYS);
}

/// A second instance joins (forcing a rebalance) while the first is running
/// parallel cycles: the overtaken generation's transaction aborts, tasks
/// migrate, and the committed output stays exactly-once.
#[test]
fn rebalance_while_parallel_is_exactly_once() {
    const RECORDS: usize = 600;
    const KEYS: usize = 24;
    let s = setup(8);
    feed(&s.cluster, RECORDS, KEYS);
    let mut a = KafkaStreamsApp::new(
        s.cluster.clone(),
        counting_topology(),
        config("reb-app", 4, None),
        "i0",
    );
    a.start().unwrap();
    for _ in 0..3 {
        a.step().unwrap();
        s.clock.advance(5);
    }
    // i1 joins mid-flight: i0's next commit hits IllegalGeneration, aborts,
    // and both instances re-form on the new generation. Cooperative
    // rebalancing transfers i1's share only after its warm-ups catch up, so
    // step until the deferred transfer lands before checking the split.
    let mut b = KafkaStreamsApp::new(
        s.cluster.clone(),
        counting_topology(),
        config("reb-app", 4, None),
        "i1",
    );
    b.start().unwrap();
    let mut apps = vec![a, b];
    for _ in 0..100 {
        if apps.iter().all(|app| !app.task_ids().is_empty()) {
            break;
        }
        for app in apps.iter_mut() {
            app.step().unwrap();
        }
        s.clock.advance(20);
    }
    run_until_committed(&mut apps, &s.cluster, &s.clock, "reb-app");
    let owned: usize = apps.iter().map(|app| app.task_ids().len()).sum();
    assert_eq!(owned, 8, "all tasks live across the two instances");
    assert!(apps.iter().all(|app| !app.task_ids().is_empty()), "work split across instances");
    for mut app in apps {
        app.close().unwrap();
    }
    assert_exactly_once(&s.cluster, RECORDS, KEYS);
}

/// Stress: the same workload on one worker and on seeded (several steal
/// schedules) and threaded pools must leave byte-identical stores. Store
/// dumps are `(changelog key, value)` lists in key order, so this is a
/// direct store-content fingerprint comparison. The at-least-once
/// repartition case is the one shape where a task can see, within a cycle,
/// what an earlier task of the same cycle wrote.
#[test]
fn parallel_store_dumps_match_serial() {
    const RECORDS: usize = 800;
    const KEYS: usize = 32;
    const PARTITIONS: usize = 8;

    type TopologyFn = fn() -> Arc<Topology>;
    let run = |topology: TopologyFn,
               guarantee: ProcessingGuarantee,
               workers: usize,
               seed: Option<u64>| {
        let s = setup(PARTITIONS as u32);
        feed(&s.cluster, RECORDS, KEYS);
        let cfg = StreamsConfig { guarantee, ..config("dump-app", workers, seed) };
        let app = KafkaStreamsApp::new(s.cluster.clone(), topology(), cfg, "i0");
        let mut apps = vec![app];
        apps[0].start().unwrap();
        run_until_committed(&mut apps, &s.cluster, &s.clock, "dump-app");
        // A downstream sub-topology may still be working through its
        // repartition topic.
        for _ in 0..200 {
            if read_output(&s.cluster).1 == RECORDS {
                break;
            }
            apps[0].step().unwrap();
            s.clock.advance(20);
        }
        let mut app = apps.pop().unwrap();
        let dump = app.dump_stores();
        let steals = app.metrics().scheduler_steals;
        app.close().unwrap();
        let (latest, total) = read_output(&s.cluster);
        (dump, steals, latest, total)
    };

    let cases: [(TopologyFn, ProcessingGuarantee); 2] = [
        (counting_topology, ProcessingGuarantee::ExactlyOnce),
        (regrouping_topology, ProcessingGuarantee::AtLeastOnce),
    ];
    for (topology, guarantee) in cases {
        let (serial_dump, _, serial_latest, serial_total) = run(topology, guarantee, 1, None);
        assert_eq!(serial_total, RECORDS);
        let mut steal_schedules_seen = 0u64;
        for (workers, seed) in [
            (1, Some(9)),
            (2, Some(1)),
            (4, Some(2)),
            (4, Some(3)),
            (8, Some(4)),
            (2 * PARTITIONS + 1, Some(5)),
            (4, None),
            (2 * PARTITIONS + 1, None),
        ] {
            let (dump, steals, latest, total) = run(topology, guarantee, workers, seed);
            assert_eq!(
                dump, serial_dump,
                "{guarantee:?} workers={workers} seed={seed:?}: final stores diverged from serial"
            );
            assert_eq!(latest, serial_latest);
            assert_eq!(total, serial_total, "committed output count diverged");
            steal_schedules_seen += u64::from(steals > 0);
        }
        assert!(steal_schedules_seen > 0, "at least one schedule must actually exercise stealing");
    }
}
