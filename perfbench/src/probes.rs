//! Isolated probes: the workload's own records replayed through one
//! layer's public API at a time, at the batch sizes the traced run observed.
//!
//! A probe answers "what does this call cost on these records when nothing
//! else runs between calls"; the ledger in `report` multiplies the answers
//! by how often the end-to-end run makes each call. Every probe runs
//! [`ROUNDS`] times on fresh state and reports the median round.

use crate::drive::{self, BoxError, ScratchDir};
use crate::gen::Input;
use crate::stats;
use crate::workload::{
    Workload, APP_ID, INPUT_PARTITIONS, INPUT_TOPIC, MAX_POLL_RECORDS, WINDOW_SIZE_MS,
};
use bytes::Bytes;
use kbroker::{Cluster, IsolationLevel, Producer, ProducerConfig, TopicConfig, TopicPartition};
use klog::{BatchMeta, DiskConfig, DiskLog, PartitionLog, Record};
use kstreams::state::{KvStore, RecordCache, WindowStore};
use kstreams::task::StreamTask;
use kstreams::topology::TaskId;
use kstreams::KSerde;
use std::hint::black_box;
use std::time::Instant;

const ROUNDS: usize = 3;
/// Records a probe replays (the head of the workload's input).
const SAMPLE: usize = 100_000;
/// The disk probe writes real files; a smaller sample keeps it in step.
const DISK_SAMPLE: usize = 20_000;
const TXN_COMMIT_ROUNDS: usize = 200;
const OFFSET_COMMIT_ROUNDS: usize = 1000;
/// Data partitions one probe transaction touches; with the offsets
/// partition that makes the 9 a `reduce_eos` commit touches (4 output, 4
/// changelog, 1 offsets).
const TXN_DATA_PARTITIONS: u32 = 8;
const PROBE_TOPIC: &str = "probe";
const PROBE_GROUP: &str = "probe-group";
/// The cache probe uses the capacity of the one workload that enables it.
const CACHE_PROBE_ENTRIES: usize = 4096;

/// Batch sizes the traced run observed, which the probes replay at.
#[derive(Debug, Clone, Copy)]
pub struct ObservedSizes {
    pub records_per_produce_batch: usize,
    pub records_per_fetch_request: usize,
}

fn median_of_rounds(mut round: impl FnMut() -> Result<f64, BoxError>) -> Result<f64, BoxError> {
    let mut values = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        values.push(round()?);
    }
    Ok(stats::median(values).expect("at least one round"))
}

fn per_record(started: Instant, records: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / records.max(1) as f64
}

pub fn run(
    w: &Workload,
    inputs: &[Input],
    keys: &[Bytes],
    sizes: ObservedSizes,
) -> Result<Vec<(&'static str, f64)>, BoxError> {
    let sample = &inputs[..inputs.len().min(SAMPLE)];
    let records: Vec<Record> = sample
        .iter()
        .map(|r| Record::new(keys[r.key as usize].clone(), r.value.to_bytes(), r.ts))
        .collect();
    let batch = sizes.records_per_produce_batch.max(1);
    let fetch = sizes.records_per_fetch_request.max(1);
    let isolation = if w.exactly_once {
        IsolationLevel::ReadCommitted
    } else {
        IsolationLevel::ReadUncommitted
    };

    let mut out = Vec::new();
    let mut push = |name, ns| out.push((name, ns));

    push(
        "klog.append_ns_per_record.plain",
        median_of_rounds(|| klog_append(&records, batch, |_| BatchMeta::plain()).map(|r| r.0))?,
    );
    push(
        "klog.append_ns_per_record.idempotent",
        median_of_rounds(|| {
            klog_append(&records, batch, |seq| BatchMeta::idempotent(1, 0, seq)).map(|r| r.0)
        })?,
    );
    push(
        "klog.append_ns_per_record.txn",
        median_of_rounds(|| {
            klog_append(&records, batch, |seq| BatchMeta::transactional(1, 0, seq)).map(|r| r.0)
        })?,
    );
    push("klog.fetch_ns_per_record", median_of_rounds(|| klog_fetch(&records, batch, fetch))?);
    push(
        "klog.disk.append_ns_per_record",
        median_of_rounds(|| klog_disk_append(&records[..records.len().min(DISK_SAMPLE)], batch))?,
    );
    push(
        "kbroker.produce_ns_per_record.plain",
        median_of_rounds(|| broker_produce(&records, batch, false).map(|r| r.0))?,
    );
    push(
        "kbroker.produce_ns_per_record.txn",
        median_of_rounds(|| broker_produce(&records, batch, true).map(|r| r.0))?,
    );
    push(
        "kbroker.fetch_ns_per_record.read_committed",
        median_of_rounds(|| broker_fetch(&records, batch, fetch, IsolationLevel::ReadCommitted))?,
    );
    push(
        "kbroker.fetch_ns_per_record.read_uncommitted",
        median_of_rounds(|| broker_fetch(&records, batch, fetch, IsolationLevel::ReadUncommitted))?,
    );
    push("kbroker.txn.commit_ns", txn_commit()?);
    push("kbroker.offsets.commit_ns", offsets_commit()?);
    push("kstreams.serde_ns_per_record", median_of_rounds(|| Ok(serde_round_trip(&records)))?);
    push("kstreams.store.kv_ns_per_op", median_of_rounds(|| Ok(kv_store(&records)))?);
    push("kstreams.store.window_ns_per_op", median_of_rounds(|| Ok(window_store(&records)))?);
    push("kstreams.cache_ns_per_op", median_of_rounds(|| Ok(record_cache(&records)))?);
    push(
        "kstreams.task.process_ns_per_record",
        median_of_rounds(|| task_process(w, sample, keys, isolation))?,
    );
    Ok(out)
}

/// `PartitionLog::append` of the sample in batches of `batch`. The batches
/// are cloned before the clock starts: `append` takes them by value.
fn klog_append(
    records: &[Record],
    batch: usize,
    meta: impl Fn(i64) -> BatchMeta,
) -> Result<(f64, PartitionLog), BoxError> {
    let batches: Vec<Vec<Record>> = records.chunks(batch).map(<[Record]>::to_vec).collect();
    let mut log = PartitionLog::new();
    let mut sequence = 0i64;
    let started = Instant::now();
    for records in batches {
        let len = records.len() as i64;
        black_box(log.append(meta(sequence), records)?);
        sequence += len;
    }
    Ok((per_record(started, records.len()), log))
}

fn klog_fetch(records: &[Record], batch: usize, fetch: usize) -> Result<f64, BoxError> {
    let (_, log) = klog_append(records, batch, |_| BatchMeta::plain())?;
    let mut from = 0;
    let started = Instant::now();
    while from < log.log_end() {
        let result = log.fetch(from, fetch, IsolationLevel::ReadUncommitted)?;
        from = result.next_offset;
        black_box(result);
    }
    Ok(per_record(started, records.len()))
}

fn klog_disk_append(records: &[Record], batch: usize) -> Result<f64, BoxError> {
    let scratch = ScratchDir::create("probe-disk")?;
    let batches: Vec<Vec<Record>> = records.chunks(batch).map(<[Record]>::to_vec).collect();
    let mut log = PartitionLog::new();
    log.attach_disk(DiskLog::open_clean(DiskConfig::at(scratch.path()))?);
    let started = Instant::now();
    for records in batches {
        black_box(log.append(BatchMeta::plain(), records)?);
    }
    Ok(per_record(started, records.len()))
}

fn probe_cluster(partitions: u32) -> Result<Cluster, BoxError> {
    let cluster = drive::build_cluster(None, None);
    cluster.create_topic(PROBE_TOPIC, TopicConfig::new(partitions))?;
    Ok(cluster)
}

/// `Producer::send` + `flush` of the sample against the 3-replica cluster;
/// the transactional variant times begin-to-flush and commits untimed.
fn broker_produce(
    records: &[Record],
    batch: usize,
    transactional: bool,
) -> Result<(f64, Cluster), BoxError> {
    let cluster = probe_cluster(INPUT_PARTITIONS)?;
    let config = if transactional {
        ProducerConfig::transactional("probe-txn")
    } else {
        ProducerConfig::at_least_once()
    };
    let mut producer = Producer::new(cluster.clone(), config.with_batch_size(batch));
    if transactional {
        producer.init_transactions()?;
    }
    let started = Instant::now();
    if transactional {
        producer.begin_transaction()?;
    }
    for rec in records {
        producer.send(PROBE_TOPIC, rec.key.clone(), rec.value.clone(), rec.timestamp)?;
    }
    producer.flush()?;
    let ns = per_record(started, records.len());
    if transactional {
        producer.commit_transaction()?;
    }
    Ok((ns, cluster))
}

/// `Cluster::fetch` over what a transactional producer committed, so the
/// read-committed path has markers and a last stable offset to honour.
fn broker_fetch(
    records: &[Record],
    batch: usize,
    fetch: usize,
    isolation: IsolationLevel,
) -> Result<f64, BoxError> {
    let (_, cluster) = broker_produce(records, batch, true)?;
    let started = Instant::now();
    for tp in cluster.partitions_of(PROBE_TOPIC)? {
        let end = cluster.latest_offset(&tp)?;
        let mut from = 0;
        while from < end {
            let result = cluster.fetch(&tp, from, fetch, isolation)?;
            if result.next_offset == from {
                break;
            }
            from = result.next_offset;
            black_box(result);
        }
    }
    Ok(per_record(started, records.len()))
}

fn probe_offsets() -> Vec<(TopicPartition, i64)> {
    (0..INPUT_PARTITIONS).map(|p| (TopicPartition::new(INPUT_TOPIC, p), 1)).collect()
}

/// One whole small transaction: begin, a record on each data partition,
/// the input offsets, two-phase commit. Median of the rounds.
fn txn_commit() -> Result<f64, BoxError> {
    let cluster = probe_cluster(TXN_DATA_PARTITIONS)?;
    let mut producer = Producer::new(cluster.clone(), ProducerConfig::transactional("probe-txn"));
    producer.init_transactions()?;
    let offsets = probe_offsets();
    let payload = Bytes::from_static(b"probe");
    let mut rounds = Vec::with_capacity(TXN_COMMIT_ROUNDS);
    for round in 0..TXN_COMMIT_ROUNDS {
        let started = Instant::now();
        producer.begin_transaction()?;
        for partition in 0..TXN_DATA_PARTITIONS {
            producer.send_to_partition(
                &TopicPartition::new(PROBE_TOPIC, partition),
                Record::new(payload.clone(), payload.clone(), round as i64),
            )?;
        }
        producer.send_offsets_to_transaction(PROBE_GROUP, &offsets, None)?;
        producer.commit_transaction()?;
        rounds.push(started.elapsed().as_nanos() as f64);
    }
    Ok(stats::median(rounds).expect("at least one round"))
}

/// The at-least-once counterpart: one generation-fenced offset commit.
fn offsets_commit() -> Result<f64, BoxError> {
    let cluster = probe_cluster(INPUT_PARTITIONS)?;
    let view = cluster.group_join(PROBE_GROUP, "probe-member", &[PROBE_TOPIC.to_string()])?;
    let offsets = probe_offsets();
    let mut rounds = Vec::with_capacity(OFFSET_COMMIT_ROUNDS);
    for _ in 0..OFFSET_COMMIT_ROUNDS {
        let started = Instant::now();
        cluster.group_commit_offsets(PROBE_GROUP, "probe-member", view.generation, &offsets)?;
        rounds.push(started.elapsed().as_nanos() as f64);
    }
    Ok(stats::median(rounds).expect("at least one round"))
}

/// Decode key and value as the DSL does at an operator's edge, encode them
/// again as it does when forwarding.
fn serde_round_trip(records: &[Record]) -> f64 {
    let started = Instant::now();
    for rec in records {
        let key = String::from_bytes(rec.key.as_deref().unwrap_or(&[])).expect("generated key");
        let value = i64::from_bytes(rec.value.as_deref().unwrap_or(&[])).expect("generated value");
        black_box((key.to_bytes(), value.to_bytes()));
    }
    per_record(started, records.len())
}

fn kv_store(records: &[Record]) -> f64 {
    let mut store = KvStore::new();
    let started = Instant::now();
    for rec in records {
        let key = rec.key.clone().expect("generated key");
        black_box(store.get(&key));
        black_box(store.put(key, rec.value.clone()));
    }
    per_record(started, records.len() * 2)
}

fn window_store(records: &[Record]) -> f64 {
    let mut store = WindowStore::new();
    let started = Instant::now();
    for rec in records {
        let key = rec.key.clone().expect("generated key");
        let window = rec.timestamp / WINDOW_SIZE_MS * WINDOW_SIZE_MS;
        black_box(store.fetch(&key, window));
        black_box(store.put(key, window, rec.value.clone()));
    }
    per_record(started, records.len() * 2)
}

fn record_cache(records: &[Record]) -> f64 {
    let mut cache = RecordCache::new(CACHE_PROBE_ENTRIES);
    let started = Instant::now();
    for rec in records {
        let key = rec.key.clone().expect("generated key");
        black_box(cache.put(key, None, rec.value.clone(), rec.timestamp, true));
    }
    per_record(started, records.len())
}

/// The task's whole read-process cycle — fetch, deserialize, operators,
/// store, cache, buffered outputs and changelog — with nothing produced.
fn task_process(
    w: &Workload,
    sample: &[Input],
    keys: &[Bytes],
    isolation: IsolationLevel,
) -> Result<f64, BoxError> {
    let cluster = drive::build_cluster(None, None);
    cluster.create_topic(INPUT_TOPIC, TopicConfig::new(INPUT_PARTITIONS))?;
    let mut generator = drive::generator(&cluster);
    for rec in sample {
        drive::send_input(&mut generator, keys, rec)?;
    }
    generator.flush()?;
    let topology = w.topology();
    let mut tasks = Vec::new();
    for partition in 0..INPUT_PARTITIONS {
        let id = TaskId { subtopology: 0, partition };
        let mut task = StreamTask::with_cache(&topology, id, APP_ID, w.cache_max_entries)?;
        task.set_position(&TopicPartition::new(INPUT_TOPIC, partition), 0);
        tasks.push(task);
    }
    let started = Instant::now();
    let mut processed = 0;
    loop {
        let before = processed;
        for task in &mut tasks {
            processed += task.poll_and_process(&cluster, MAX_POLL_RECORDS, isolation)?;
            black_box((task.take_outputs(), task.take_changelog()));
        }
        if processed == before {
            break;
        }
    }
    Ok(per_record(started, processed))
}
