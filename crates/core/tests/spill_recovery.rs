//! Crash recovery through post-commit state spills: an instance configured
//! with a state directory writes every store to disk after each commit,
//! tagged with a changelog watermark. After a hard crash (drop without
//! close), a fresh instance over the same state directory must rebuild
//! byte-identical stores — and, because the spill carries the watermark, it
//! must replay only the changelog *suffix*, not the whole changelog. The
//! same holds when the broker crashes with the app and rebuilds its logs from
//! segment files.

use bytes::Bytes;
use kbroker::{Cluster, DiskConfig, Producer, ProducerConfig, StorageMode, TopicConfig};
use kstreams::{KSerde, KafkaStreamsApp, StreamsBuilder, StreamsConfig};
use simkit::ManualClock;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
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

fn temp_state_dir() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("kstreams-spill-it-{}-{n}", std::process::id()))
}

/// Feed `records` keyed records to a one-broker cluster on `storage`, run
/// one app instance to quiescence, and return the live app plus its cluster
/// and clock.
fn run_to_quiescence(
    storage: StorageMode,
    state_dir: Option<&PathBuf>,
    records: usize,
    keys: usize,
) -> (KafkaStreamsApp, Cluster, ManualClock) {
    let clock = ManualClock::new();
    let cluster =
        Cluster::builder().brokers(1).replication(1).clock(clock.shared()).storage(storage).build();
    cluster.create_topic("events", TopicConfig::new(2)).unwrap();
    cluster.create_topic("out", TopicConfig::new(2)).unwrap();
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

    let mut cfg = StreamsConfig::new("spill-app").exactly_once().with_commit_interval_ms(10);
    if let Some(dir) = state_dir {
        cfg = cfg.with_state_dir(dir.clone());
    }
    let mut app = KafkaStreamsApp::new(cluster.clone(), counting_topology(), cfg.clone(), "i0");
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
    for _ in 0..2_000 {
        app.step().unwrap();
        clock.advance(10);
        done = targets.iter().all(|(tp, end)| {
            cluster.group_committed_offset("spill-app", tp).ok().flatten().unwrap_or(0) >= *end
        });
        if done {
            break;
        }
    }
    assert!(done, "app did not commit the whole input within the step bound");
    (app, cluster, clock)
}

/// Start a successor instance on the same cluster and state dir, run it to
/// readiness, and return its store dump plus how many changelog records it
/// had to replay during restore.
type StoreDump =
    std::collections::BTreeMap<(kstreams::topology::TaskId, String), Vec<(Bytes, Bytes)>>;

fn recover(
    cluster: &Cluster,
    clock: &ManualClock,
    state_dir: Option<&PathBuf>,
) -> (StoreDump, u64) {
    let mut cfg = StreamsConfig::new("spill-app").exactly_once().with_commit_interval_ms(10);
    if let Some(dir) = state_dir {
        cfg = cfg.with_state_dir(dir.clone());
    }
    // The crashed predecessor never left the group: advance past the
    // session timeout and evict it *before* the successor joins, so the
    // first rebalance hands every partition (and its task state) to us.
    clock.advance(kbroker::group::SESSION_TIMEOUT_MS + 1);
    cluster.group_expire_members("spill-app");
    let mut app = KafkaStreamsApp::new(cluster.clone(), counting_topology(), cfg, "i1");
    app.start().unwrap();
    for _ in 0..200 {
        app.step().unwrap();
        clock.advance(10);
        if app.dump_stores().len() >= 2 {
            break;
        }
    }
    let dump = app.dump_stores();
    assert_eq!(dump.len(), 2, "successor must adopt both partitions' tasks");
    let replayed = app.metrics().restore_records;
    app.close().unwrap();
    (dump, replayed)
}

/// With `disk`, each broker keeps its logs in segment files and dies with
/// the app: `restore_broker` must rebuild every partition log from disk
/// before the successor recovers.
fn crash_recovery_matches_and_bounds_replay(disk: bool) {
    let dir = temp_state_dir();
    let storage = |broker: &str| {
        if disk {
            StorageMode::Disk(DiskConfig::at(dir.join(broker)))
        } else {
            StorageMode::Memory
        }
    };
    let crash = |app: KafkaStreamsApp, cluster: &Cluster| {
        app.crash();
        if disk {
            cluster.kill_broker(0);
            cluster.restore_broker(0).unwrap();
        }
    };
    let state_dir = dir.join("state");
    let (app, cluster, clock) = run_to_quiescence(storage("broker"), Some(&state_dir), 200, 7);
    let before = app.dump_stores();
    assert!(!before.is_empty(), "stateful topology must have stores");
    crash(app, &cluster);

    // Control: same workload on a cluster *without* spills — the successor
    // must rebuild purely by changelog replay.
    let (ctrl_app, ctrl_cluster, ctrl_clock) = run_to_quiescence(storage("control"), None, 200, 7);
    let ctrl_before = ctrl_app.dump_stores();
    crash(ctrl_app, &ctrl_cluster);
    let (ctrl_dump, ctrl_replayed) = recover(&ctrl_cluster, &ctrl_clock, None);
    assert_eq!(ctrl_dump, ctrl_before, "cold changelog replay must rebuild the store");
    assert!(ctrl_replayed > 0, "control run must actually replay the changelog");

    // Spill path: byte-identical stores, but (almost) nothing replayed —
    // the spill watermark bounds restoration to the post-commit suffix,
    // which is empty after a clean quiescent commit.
    let (dump, replayed) = recover(&cluster, &clock, Some(&state_dir));
    assert_eq!(dump, before, "spill-warmed recovery must rebuild identical stores");
    assert_eq!(dump, ctrl_dump, "spill and replay recoveries must agree");
    assert!(
        replayed < ctrl_replayed,
        "spill must bound replay: replayed {replayed} vs cold {ctrl_replayed}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_recovery_from_spills_matches_and_bounds_replay() {
    crash_recovery_matches_and_bounds_replay(false);
}

#[test]
fn disk_broker_and_app_crash_recovery_matches_and_bounds_replay() {
    crash_recovery_matches_and_bounds_replay(true);
}

#[test]
fn corrupt_spill_falls_back_to_full_replay() {
    let dir = temp_state_dir();
    let (app, cluster, clock) = run_to_quiescence(StorageMode::Memory, Some(&dir), 120, 5);
    let before = app.dump_stores();
    app.crash();

    // Corrupt every spill file: recovery must silently fall back to full
    // changelog replay and still converge to the same bytes.
    let mut corrupted = 0;
    let mut stack = vec![dir.clone()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "spill") {
                let mut buf = std::fs::read(&path).unwrap();
                let mid = buf.len() / 2;
                buf[mid] ^= 0xFF;
                std::fs::write(&path, &buf).unwrap();
                corrupted += 1;
            }
        }
    }
    assert!(corrupted > 0, "quiescent committed run must have spilled");

    let (dump, replayed) = recover(&cluster, &clock, Some(&dir));
    assert_eq!(dump, before, "corrupt spills must not corrupt recovery");
    assert!(replayed > 0, "corrupt spills force changelog replay");
    let _ = std::fs::remove_dir_all(&dir);
}
