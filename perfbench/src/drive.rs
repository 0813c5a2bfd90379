//! One repetition of one workload: set up a fresh cluster and instance,
//! run the timed section, check the outputs.
//!
//! The same code runs untraced (end-to-end metrics) and traced (per-layer
//! metrics); the traced run differs only in recording spans and in
//! committing from the driver, so `step()` and `commit()` get separate
//! spans. Both commit on the same steps, which `report` verifies through
//! the program's own counters.

use crate::gen::{self, Input};
use crate::reference::{Check, Checker, Reference};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{
    Mode, Scale, Workload, BROKERS, DRAIN_STEP_MS, INPUT_PARTITIONS, INPUT_TOPIC,
    OUTPUT_PARTITIONS, OUTPUT_TOPIC, PRODUCER_BATCH, REPLICATION,
};
use bytes::Bytes;
use kbroker::{
    Cluster, Consumer, ConsumerConfig, DiskConfig, Producer, ProducerConfig, StorageMode,
    TopicConfig,
};
use kstreams::{KSerde, KafkaStreamsApp, StreamsMetrics};
use simkit::ManualClock;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A commit interval no run reaches: the traced run commits from the driver.
const NEVER_MS: i64 = i64::MAX / 4;
/// Records a verification poll may return; large, so a drain's outputs come
/// back in a few dozen polls.
const VERIFY_POLL_RECORDS: usize = 100_000;
/// Consecutive steps without progress after which a drain is declared
/// stalled (the output check then reports what is missing).
const STALL_STEPS: usize = 1000;
/// A paced repetition gives up this many schedule lengths after its start;
/// what has not been delivered by then counts as failed.
const PACED_DEADLINE_FACTOR: u32 = 3;
/// Steps run after a traced timed section to sample the cost of a step that
/// finds nothing to do.
const IDLE_STEPS: usize = 32;

pub type BoxError = Box<dyn std::error::Error>;

/// Directory for the disk workload's segment files, inside the benchmark's
/// own directory; removed on drop, so also when a repetition panics.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(tag: &str) -> std::io::Result<Self> {
        let dir = bench_dir().join("tmp").join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failure here, and Drop must
        // not panic.
        let _ = std::fs::remove_dir_all(&self.0);
        // `tmp/` itself goes too once no other run is using it (removing a
        // non-empty directory fails, which is the check).
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The benchmark's own directory (`perfbench/` of the checkout it was
/// built in): results and scratch files stay inside it.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn build_cluster(clock: Option<&ManualClock>, scratch: Option<&ScratchDir>) -> Cluster {
    let mut builder = Cluster::builder().brokers(BROKERS).replication(REPLICATION);
    if let Some(clock) = clock {
        builder = builder.clock(clock.shared());
    }
    if let Some(dir) = scratch {
        builder = builder.storage(StorageMode::Disk(DiskConfig::at(dir.path())));
    }
    builder.build()
}

/// The load generator's producer: plain appends, as an upstream system
/// that is not part of the measured application would write them.
pub fn generator(cluster: &Cluster) -> Producer {
    Producer::new(
        cluster.clone(),
        ProducerConfig {
            idempotent: false,
            batch_size: PRODUCER_BATCH,
            ..ProducerConfig::default()
        },
    )
}

pub fn send_input(
    producer: &mut Producer,
    keys: &[Bytes],
    rec: &Input,
) -> Result<(), kbroker::BrokerError> {
    producer.send(INPUT_TOPIC, keys[rec.key as usize].clone(), rec.value.to_bytes(), rec.ts)
}

/// A read-committed consumer over every output partition: what a
/// downstream user of the application's results sees.
fn output_consumer(cluster: &Cluster) -> Result<Consumer, BoxError> {
    let mut consumer = Consumer::new(
        cluster.clone(),
        "perfbench-verify",
        ConsumerConfig::default().read_committed().with_max_poll_records(VERIFY_POLL_RECORDS),
    );
    consumer.assign(cluster.partitions_of(OUTPUT_TOPIC)?)?;
    Ok(consumer)
}

/// Counters of the program's own registry, as a name -> value map.
pub type Counters = BTreeMap<String, u64>;

fn counters_now() -> Counters {
    let snapshot = kobs::snapshot();
    snapshot
        .names()
        .into_iter()
        .filter_map(|name| Some((name.to_string(), snapshot.counter(name)?)))
        .collect()
}

fn counters_since(before: &Counters) -> Counters {
    counters_now()
        .into_iter()
        .map(|(name, after)| {
            let delta = after - before.get(&name).copied().unwrap_or(0);
            (name, delta)
        })
        .collect()
}

/// What the timed section of one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// First `step()` until the final commit returned (drain) or the last
    /// output was seen (paced).
    pub wall_s: f64,
    pub throughput_rps: f64,
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    pub latency_p99_ms: f64,
    /// Paced only: the most the generator ran behind its schedule.
    pub gen_late_max_ms: f64,
    /// Paced only: what the generator and the probe consumer added to the
    /// program's produce/fetch counters during the timed section.
    pub driver_produce_batches: u64,
    pub driver_produce_records: u64,
    pub driver_fetch_requests: u64,
    pub driver_fetch_records: u64,
}

/// One finished repetition.
#[derive(Debug, Clone)]
pub struct Repetition {
    pub records: usize,
    pub setup_s: f64,
    pub timed: Timed,
    pub check: Check,
    /// Protocol-invariant violations recorded by `klog::checks`.
    pub violations: usize,
    /// Deltas of the program's counters over the timed section.
    pub counters: Counters,
    pub streams: StreamsMetrics,
}

struct Rig {
    cluster: Cluster,
    clock: Option<ManualClock>,
    app: KafkaStreamsApp,
    generator: Producer,
    probe: Consumer,
    commit_interval_ms: i64,
    /// Kept last: the segment files must outlive the cluster using them.
    _scratch: Option<ScratchDir>,
}

/// Run one repetition. `tracer` decides whether this is a traced one.
pub fn repetition(
    w: &Workload,
    scale: Scale,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Repetition, BoxError> {
    kobs::reset();
    klog::checks::take_violations();
    let whole = tracer.begin("repetition");

    // Set-up: everything before the timed section, input generation and the
    // reference fold included.
    let setup_started = Instant::now();
    let setup = tracer.begin("setup");
    let n = w.records(scale);
    let inputs = gen::generate(w.shape, n, seed);
    let keys = gen::key_table(w.key_space());
    let reference = Reference::of(w.topo, &inputs, w.key_space());
    let mut rig = build_rig(w, tracer.enabled())?;
    if matches!(w.mode, Mode::Drain { .. }) {
        let produce = tracer.begin("driver.produce");
        for rec in &inputs {
            send_input(&mut rig.generator, &keys, rec)?;
        }
        rig.generator.flush()?;
        tracer.end(produce, n as u64);
    }
    tracer.end(setup, 0);
    let setup_s = setup_started.elapsed().as_secs_f64();

    let mut checker = Checker::new(&reference);
    let before = counters_now();
    let timed_span = tracer.begin("timed");
    let timed = match w.mode {
        Mode::Drain { .. } => drain(&mut rig, n, tracer)?,
        Mode::Paced { .. } => paced(&mut rig, &inputs, &keys, &mut checker, tracer)?,
    };
    tracer.end(timed_span, n as u64);
    let counters = counters_since(&before);
    let streams = rig.app.metrics();

    if tracer.enabled() {
        idle_steps(&mut rig, tracer)?;
    }
    if matches!(w.mode, Mode::Drain { .. }) {
        verify_outputs(&mut rig.probe, &mut checker, tracer)?;
    }
    let mut check = checker.finish();
    if let Reference::Windows { late_drops, .. } = &reference {
        check.failures.wrong += late_drops.abs_diff(streams.late_dropped);
    }
    tracer.end(whole, n as u64);
    Ok(Repetition {
        records: n,
        setup_s,
        timed,
        check,
        violations: klog::checks::take_violations().len(),
        counters,
        streams,
    })
}

fn build_rig(w: &Workload, traced: bool) -> Result<Rig, BoxError> {
    let scratch = if w.disk { Some(ScratchDir::create(w.name)?) } else { None };
    let clock = matches!(w.mode, Mode::Drain { .. }).then(ManualClock::new);
    let cluster = build_cluster(clock.as_ref(), scratch.as_ref());
    cluster.create_topic(INPUT_TOPIC, TopicConfig::new(INPUT_PARTITIONS))?;
    cluster.create_topic(OUTPUT_TOPIC, TopicConfig::new(OUTPUT_PARTITIONS))?;
    let interval = if traced { NEVER_MS } else { w.commit_interval_ms };
    let mut app = KafkaStreamsApp::new(
        cluster.clone(),
        w.topology(),
        w.streams_config(interval),
        "instance-0",
    );
    app.start()?;
    // Adopt the assignment now, so the first timed step already processes.
    app.step()?;
    Ok(Rig {
        generator: generator(&cluster),
        probe: output_consumer(&cluster)?,
        cluster,
        clock,
        app,
        commit_interval_ms: w.commit_interval_ms,
        _scratch: scratch,
    })
}

/// The driver's copy of the instance's commit rule, for traced runs: commit
/// when the interval has passed since the last commit returned.
struct CommitSchedule {
    traced: bool,
    interval_ms: i64,
    last_commit_ms: i64,
}

impl CommitSchedule {
    fn new(rig: &Rig, traced: bool) -> Self {
        // `start()` stamped the instance's last commit with the clock as it
        // was then; no time has passed on a ManualClock since, and on the
        // wall clock the difference is the set-up's last few milliseconds.
        Self { traced, interval_ms: rig.commit_interval_ms, last_commit_ms: rig.cluster.now_ms() }
    }

    /// After a step: commit if the traced run is due one. Returns whether a
    /// commit covered this step, in either kind of run.
    fn after_step(
        &mut self,
        rig: &mut Rig,
        step_committed: bool,
        tracer: &mut Tracer,
    ) -> Result<bool, BoxError> {
        if !self.traced || rig.cluster.now_ms() - self.last_commit_ms < self.interval_ms {
            return Ok(step_committed);
        }
        self.commit(rig, tracer)?;
        Ok(true)
    }

    fn commit(&mut self, rig: &mut Rig, tracer: &mut Tracer) -> Result<(), BoxError> {
        let span = tracer.begin("kstreams.commit");
        rig.app.commit()?;
        tracer.end(span, 0);
        self.last_commit_ms = rig.cluster.now_ms();
        Ok(())
    }
}

/// Process the preloaded backlog as fast as the program goes.
///
/// The whole backlog is due when the timed section starts, and a result is
/// visible to a read-committed consumer once the commit covering it has
/// returned: that pair of instants is a drain's latency.
fn drain(rig: &mut Rig, n: usize, tracer: &mut Tracer) -> Result<Timed, BoxError> {
    let clock = rig.clock.clone().expect("drains run on a manual clock");
    let mut schedule = CommitSchedule::new(rig, tracer.enabled());
    let mut processed = 0usize;
    let mut stalled = 0usize;
    // (ms since start, records processed so far) at each commit's return.
    let mut commits: Vec<(f64, usize)> = Vec::new();
    let started = Instant::now();
    loop {
        clock.advance(DRAIN_STEP_MS);
        let span = tracer.begin("kstreams.step");
        let summary = rig.app.step()?;
        tracer.end(span, summary.processed as u64);
        processed += summary.processed;
        let mut committed = schedule.after_step(rig, summary.committed, tracer)?;
        let done = processed >= n;
        if done && !committed {
            schedule.commit(rig, tracer)?;
            committed = true;
        }
        if committed {
            commits.push((started.elapsed().as_secs_f64() * 1e3, processed));
        }
        stalled = if summary.processed == 0 { stalled + 1 } else { 0 };
        if done || stalled >= STALL_STEPS {
            break;
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let at_share = |q: f64| {
        let rank = (q * processed as f64).ceil() as usize;
        commits.iter().find(|(_, covered)| *covered >= rank).map_or(wall_s * 1e3, |(ms, _)| *ms)
    };
    Ok(Timed {
        wall_s,
        throughput_rps: processed as f64 / wall_s,
        latency_p50_ms: at_share(0.50),
        latency_p95_ms: at_share(0.95),
        latency_p99_ms: at_share(0.99),
        ..Timed::default()
    })
}

/// Open loop: emit whatever the schedule says is due, step the instance,
/// hand the probe consumer's records to the checker. One thread, so a slow
/// step delays the generator — which is timed from the due time, not the
/// send time, and reported as `gen_late_max_ms`.
fn paced(
    rig: &mut Rig,
    inputs: &[Input],
    keys: &[Bytes],
    checker: &mut Checker<'_>,
    tracer: &mut Tracer,
) -> Result<Timed, BoxError> {
    let n = inputs.len();
    let schedule_ns = inputs.last().map_or(0, |r| r.value).max(1) as u64;
    let deadline_ns = schedule_ns * u64::from(PACED_DEADLINE_FACTOR);
    let mut schedule = CommitSchedule::new(rig, tracer.enabled());
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(n);
    let mut next = 0usize;
    let mut timed = Timed::default();
    let mut last_seen_ns = 0u64;
    let mut late_max_ns = 0i64;
    let started = Instant::now();
    while (checker.seen() as usize) < n {
        let now_ns = started.elapsed().as_nanos() as u64;
        if now_ns > deadline_ns {
            break;
        }
        let first = next;
        while next < n && inputs[next].value as u64 <= now_ns {
            next += 1;
        }
        if next > first {
            let span = tracer.begin("driver.produce");
            late_max_ns = late_max_ns.max(now_ns as i64 - inputs[first].value);
            for rec in &inputs[first..next] {
                send_input(&mut rig.generator, keys, rec)?;
            }
            rig.generator.flush()?;
            tracer.end(span, (next - first) as u64);
        }

        let span = tracer.begin("kstreams.step");
        let summary = rig.app.step()?;
        tracer.end(span, summary.processed as u64);
        schedule.after_step(rig, summary.committed, tracer)?;

        let span = tracer.begin("driver.verify_fetch");
        let records = rig.probe.poll()?;
        tracer.end(span, records.len() as u64);
        timed.driver_fetch_requests += u64::from(OUTPUT_PARTITIONS);
        if records.is_empty() {
            continue;
        }
        last_seen_ns = started.elapsed().as_nanos() as u64;
        for rec in &records {
            let (key, value) =
                (rec.key.as_deref().unwrap_or(&[]), rec.value.as_deref().unwrap_or(&[]));
            checker.observe(key, value);
            // The value is the due time of the output's last contributor.
            if let Ok(due_ns) = i64::from_bytes(value) {
                latencies_ms.push((last_seen_ns as i64 - due_ns) as f64 / 1e6);
            }
        }
    }
    timed.wall_s = last_seen_ns.max(1) as f64 / 1e9;
    timed.throughput_rps = checker.seen() as f64 / timed.wall_s;
    stats::sort(&mut latencies_ms);
    if !latencies_ms.is_empty() {
        timed.latency_p50_ms = stats::percentile_sorted(&latencies_ms, 0.50);
        timed.latency_p95_ms = stats::percentile_sorted(&latencies_ms, 0.95);
        timed.latency_p99_ms = stats::percentile_sorted(&latencies_ms, 0.99);
    }
    timed.gen_late_max_ms = late_max_ns as f64 / 1e6;
    let generated = rig.generator.stats();
    timed.driver_produce_batches = generated.batches_appended;
    timed.driver_produce_records = generated.records_sent;
    timed.driver_fetch_records = checker.seen();
    Ok(timed)
}

/// Steps with nothing to fetch, after the timed section of a traced run.
fn idle_steps(rig: &mut Rig, tracer: &mut Tracer) -> Result<(), BoxError> {
    for _ in 0..IDLE_STEPS {
        if let Some(clock) = &rig.clock {
            clock.advance(DRAIN_STEP_MS);
        }
        let span = tracer.begin("kstreams.step.idle");
        let summary = rig.app.step()?;
        tracer.end(span, summary.processed as u64);
    }
    Ok(())
}

/// Read the whole output topic back and hand it to the checker.
fn verify_outputs(
    probe: &mut Consumer,
    checker: &mut Checker<'_>,
    tracer: &mut Tracer,
) -> Result<(), BoxError> {
    // Polls rotate over the partitions, so two empty polls in a row mean
    // every partition has been read to its last stable offset.
    let mut empty_polls = 0;
    while empty_polls < 2 {
        let span = tracer.begin("driver.verify_fetch");
        let records = probe.poll()?;
        tracer.end(span, records.len() as u64);
        empty_polls = if records.is_empty() { empty_polls + 1 } else { 0 };
        for rec in &records {
            checker.observe(rec.key.as_deref().unwrap_or(&[]), rec.value.as_deref().unwrap_or(&[]));
        }
    }
    Ok(())
}
