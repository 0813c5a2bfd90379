//! Recovery-path bench — what does a crash actually cost with the durable
//! backend?
//!
//! Setup: a counting aggregation builds N keys of store state on a
//! single-broker cluster running the disk backend (segment files +
//! producer snapshots). The app then hard-crashes (drop without close),
//! the broker is killed and restored — discarding *all* in-memory broker
//! state, so the restore must rebuild the partition logs from segment
//! files — and a successor instance rebuilds the stores. Two recovery
//! modes are swept across state sizes:
//!
//! * **replay** — no state directory: the successor cold-replays each
//!   store's changelog from the recovered broker logs.
//! * **spill**  — post-commit spills enabled: the successor seeds each
//!   store from its spill file and replays only the changelog suffix past
//!   the spill watermark (normally empty after a quiescent commit).
//!
//! Expected shape: broker segment recovery scales with log size in both
//! modes (same segment files), while store restoration collapses from
//! "every changelog record" to ~0 with spills. Correctness never depends
//! on the spill — `--quick` (the CI smoke) asserts both modes rebuild the
//! exact pre-crash store bytes and that spills strictly reduce replay.
//!
//! `--json` emits one machine-readable object (committed as
//! `results/BENCH_recovery.json`).

use bytes::Bytes;
use kbroker::{
    Cluster, DiskConfig, Producer, ProducerConfig, StorageMode, TopicConfig, TopicPartition,
};
use kobs::json::{num, obj, str as jstr, Value};
use kstreams::{KSerde, KafkaStreamsApp, StreamsBuilder, StreamsConfig};
use simkit::ManualClock;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

const APP_ID: &str = "recoverybench";
const PARTITIONS: u32 = 2;

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

fn temp_root() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("recoverybench-{}-{n}", std::process::id()))
}

fn app_config(state_dir: Option<&PathBuf>) -> StreamsConfig {
    let mut cfg = StreamsConfig::new(APP_ID).exactly_once().with_commit_interval_ms(10);
    if let Some(dir) = state_dir {
        cfg = cfg.with_state_dir(dir.clone());
    }
    cfg
}

type StoreDump = BTreeMap<(kstreams::topology::TaskId, String), Vec<(Bytes, Bytes)>>;

/// One measured crash-recovery cycle.
struct Outcome {
    records: u64,
    keys: usize,
    store_pairs: u64,
    broker_recovered_batches: u64,
    broker_recovery_ms: f64,
    restore_records: u64,
    restore_ms: f64,
    dump_ok: bool,
}

/// Build state, crash everything, recover, and measure both layers.
fn run_cycle(records: u64, keys: usize, spills: bool) -> Outcome {
    let root = temp_root();
    let state_dir = spills.then(|| root.join("state"));

    let clock = ManualClock::new();
    let cluster = Cluster::builder()
        .brokers(1)
        .replication(1)
        .clock(clock.shared())
        .storage(StorageMode::Disk(DiskConfig::at(root.join("broker"))))
        .build();
    cluster.create_topic("events", TopicConfig::new(PARTITIONS)).unwrap();
    cluster.create_topic("out", TopicConfig::new(PARTITIONS)).unwrap();
    let mut p = Producer::new(cluster.clone(), ProducerConfig::default());
    for i in 0..records {
        p.send(
            "events",
            Some(format!("k{}", i as usize % keys).to_bytes()),
            Some(Bytes::from_static(b"x")),
            i as i64,
        )
        .unwrap();
    }
    p.flush().unwrap();

    let mut app = KafkaStreamsApp::new(
        cluster.clone(),
        counting_topology(),
        app_config(state_dir.as_ref()),
        "i0",
    );
    app.start().unwrap();
    let targets: Vec<(TopicPartition, i64)> = cluster
        .partitions_of("events")
        .unwrap()
        .into_iter()
        .map(|tp| {
            let end = cluster.latest_offset(&tp).unwrap();
            (tp, end)
        })
        .collect();
    let mut done = false;
    for _ in 0..200_000 {
        app.step().unwrap();
        clock.advance(10);
        done = targets.iter().all(|(tp, end)| {
            cluster.group_committed_offset(APP_ID, tp).ok().flatten().unwrap_or(0) >= *end
        });
        if done {
            break;
        }
    }
    assert!(done, "state build did not converge");
    let before = app.dump_stores();
    let store_pairs = before.values().map(|v| v.len() as u64).sum();
    app.crash();

    // Honest broker crash: kill discards every in-memory replica, restore
    // rebuilds them from segment files + producer snapshots.
    kobs::reset();
    let t = Instant::now();
    cluster.kill_broker(0);
    cluster.restore_broker(0).unwrap();
    let broker_recovery_ms = t.elapsed().as_secs_f64() * 1e3;
    let broker_recovered_batches =
        kobs::snapshot().counter("klog.disk.recovered_batches").unwrap_or(0);

    // Successor instance: evict the dead member first so the first
    // rebalance hands it every task, then time store restoration.
    clock.advance(kbroker::group::SESSION_TIMEOUT_MS + 1);
    cluster.group_expire_members(APP_ID);
    let t = Instant::now();
    let mut app = KafkaStreamsApp::new(
        cluster.clone(),
        counting_topology(),
        app_config(state_dir.as_ref()),
        "i1",
    );
    app.start().unwrap();
    for _ in 0..10_000 {
        app.step().unwrap();
        clock.advance(10);
        if app.dump_stores().len() >= before.len() {
            break;
        }
    }
    let restore_ms = t.elapsed().as_secs_f64() * 1e3;
    let after: StoreDump = app.dump_stores();
    let restore_records = app.metrics().restore_records;
    app.close().unwrap();

    let _ = std::fs::remove_dir_all(&root);
    Outcome {
        records,
        keys,
        store_pairs,
        broker_recovered_batches,
        broker_recovery_ms,
        restore_records,
        restore_ms,
        dump_ok: after == before,
    }
}

fn row(mode: &str, o: &Outcome) -> String {
    format!(
        "{mode:<8} {:>9} {:>7} {:>9} {:>12} {:>12.1} {:>12} {:>11.1} {:>7}",
        o.records,
        o.keys,
        o.store_pairs,
        o.broker_recovered_batches,
        o.broker_recovery_ms,
        o.restore_records,
        o.restore_ms,
        if o.dump_ok { "ok" } else { "FAIL" },
    )
}

fn json_row(mode: &str, o: &Outcome) -> Value {
    obj(vec![
        ("mode", jstr(mode.to_string())),
        ("records", num(o.records as f64)),
        ("keys", num(o.keys as f64)),
        ("store_pairs", num(o.store_pairs as f64)),
        ("broker_recovered_batches", num(o.broker_recovered_batches as f64)),
        ("broker_recovery_ms", num(o.broker_recovery_ms)),
        ("restore_records", num(o.restore_records as f64)),
        ("restore_ms", num(o.restore_ms)),
        ("dump_ok", Value::Bool(o.dump_ok)),
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let json = std::env::args().any(|a| a == "--json");
    let sizes: &[u64] = if quick { &[2_000] } else { &[2_000, 10_000, 40_000] };
    let mut rows: Vec<Value> = Vec::new();
    if !json {
        println!(
            "# Recovery-path sweep — counting aggregation, 1 broker (disk backend), hard crash"
        );
        println!("# broker columns: segment-file recovery; restore columns: store rebuild");
        println!(
            "{:<8} {:>9} {:>7} {:>9} {:>12} {:>12} {:>12} {:>11} {:>7}",
            "mode",
            "records",
            "keys",
            "pairs",
            "rec-batches",
            "broker-ms",
            "replayed",
            "restore-ms",
            "dump"
        );
    }
    for &records in sizes {
        let keys = (records / 8).max(1) as usize;
        let replay = run_cycle(records, keys, false);
        let spill = run_cycle(records, keys, true);
        assert!(replay.dump_ok, "replay recovery diverged at {records} records");
        assert!(spill.dump_ok, "spill recovery diverged at {records} records");
        assert!(
            spill.restore_records < replay.restore_records,
            "spills must bound replay: spill={} replay={}",
            spill.restore_records,
            replay.restore_records
        );
        if json {
            rows.push(json_row("replay", &replay));
            rows.push(json_row("spill", &spill));
        } else {
            println!("{}", row("replay", &replay));
            println!("{}", row("spill", &spill));
        }
    }
    if json {
        println!(
            "{}",
            obj(vec![("figure", jstr("recoverybench".to_string())), ("rows", Value::Arr(rows))])
        );
        return;
    }
    println!();
    println!("# Paper check (§3.3/§4): changelogs make stores disposable — cold replay");
    println!("# rebuilds every store byte-for-byte from the recovered broker logs; the");
    println!("# spill watermark turns that into a warm start (suffix-only replay), the");
    println!("# same contract a standby replica provides, but surviving full crashes.");
}
