//! # bench — figure-reproduction harness for the paper's evaluation (§4.3, §6)
//!
//! The binaries in `src/bin/` regenerate every measured figure/number:
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Figure 5.a (EOS vs ALOS over #partitions) | `fig5a` |
//! | Figure 5.b (commit interval sweep, Streams EOS) | `fig5b` |
//! | §6.1 Bloomberg EOS overhead at 10–25 k msg/s | `bloomberg` |
//! | §6.2 Expedia commit-interval / suppression configs | `expedia` |
//!
//! ## Methodology
//!
//! The cluster runs on a **virtual clock**: the driver advances time in
//! 1 ms ticks, generating load, stepping the application, and draining a
//! read-committed verification consumer each tick.
//!
//! * **End-to-end latency** is measured in *virtual* time — record create
//!   tick → read-committed receive tick — so it reflects commit intervals.
//!   Broker work, marker writes included, takes no virtual time: its cost
//!   shows in the wall-clock throughput.
//! * **Throughput** is *real work per wall-clock second*: the broker-side
//!   protocol costs (sequence checks, coordinator round-trips, txn-log
//!   appends, marker fan-out) are all real computation here, so the
//!   EOS-vs-ALOS gap emerges rather than being scripted. Absolute numbers
//!   are machine-dependent; the paper's *shape* (who wins, by what factor)
//!   is the reproduction target.

use kbroker::{Cluster, Consumer, ConsumerConfig, Producer, ProducerConfig, TopicConfig};
use kstreams::{KSerde, KafkaStreamsApp, StreamsBuilder, StreamsConfig};
use simkit::{Clock, ManualClock};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The kobs registry is process-global; runs reset it and snapshot it into
/// their [`RunReport`], so concurrent runs (test threads) must serialize.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// The §4.3 benchmark application: a stateful reduce from `input` to
/// `output` ("reads from the input topic, does a stateful reduce operation
/// that reads from and writes to its local state store, and finally emits
/// results to the output topic").
pub fn stateful_reduce_topology(
    input: &str,
    output: &str,
    store: &str,
) -> Arc<kstreams::topology::Topology> {
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, i64>(input)
        .group_by_key()
        .reduce(store, |a, b| a.wrapping_add(*b))
        .to_stream()
        .to(output);
    Arc::new(builder.build().expect("valid topology"))
}

/// Workload generator: keyed records at a fixed rate per virtual
/// millisecond, with record timestamps equal to the virtual create time.
pub struct LoadGenerator {
    producer: Producer,
    topic: String,
    key_space: usize,
    seq: u64,
}

impl LoadGenerator {
    pub fn new(cluster: &Cluster, topic: &str, key_space: usize) -> Self {
        Self {
            producer: Producer::new(
                cluster.clone(),
                ProducerConfig { idempotent: false, batch_size: 64, ..ProducerConfig::default() },
            ),
            topic: topic.to_string(),
            key_space,
            seq: 0,
        }
    }

    /// Emit `n` records (i64 payloads) stamped with `now_ms` as create time.
    pub fn emit(&mut self, n: usize, now_ms: i64) {
        for _ in 0..n {
            let key = format!("key-{}", self.seq as usize % self.key_space);
            self.producer
                .send(&self.topic, Some(key.to_bytes()), Some((self.seq as i64).to_bytes()), now_ms)
                .expect("generator send");
            self.seq += 1;
        }
        self.producer.flush().expect("generator flush");
    }

    /// Emit `n` records with UTF-8 string payloads (for String-typed
    /// topologies).
    pub fn emit_str(&mut self, n: usize, now_ms: i64) {
        for _ in 0..n {
            let key = format!("key-{}", self.seq as usize % self.key_space);
            let value = format!("message-{}", self.seq);
            self.producer
                .send(&self.topic, Some(key.to_bytes()), Some(value.to_bytes()), now_ms)
                .expect("generator send");
            self.seq += 1;
        }
        self.producer.flush().expect("generator flush");
    }

    pub fn produced(&self) -> u64 {
        self.seq
    }
}

/// Create→receive latencies in virtual milliseconds, one sample per
/// record received. Percentiles follow the nearest-rank rule, as
/// perfbench's do: each is a latency some record actually had.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    samples: Vec<i64>,
}

impl Latencies {
    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean latency (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<i64>() as f64 / self.samples.len() as f64
    }

    /// The `q`-quantile (`0.0..=1.0`): the smallest sample with at least
    /// `q` of the samples at or below it (0 when empty).
    pub fn percentile_ms(&self, q: f64) -> i64 {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted.get(rank - 1).copied().unwrap_or(0)
    }

    /// Largest latency (0 when empty).
    pub fn max_ms(&self) -> i64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }
}

/// Read-committed verification consumer measuring create→receive latency
/// in virtual time (the paper's per-record end-to-end latency, §4.3).
pub struct LatencyProbe {
    consumer: Consumer,
    pub latencies: Latencies,
}

impl LatencyProbe {
    pub fn new(cluster: &Cluster, topic: &str) -> Self {
        let mut consumer = Consumer::new(
            cluster.clone(),
            "latency-probe",
            ConsumerConfig::default().read_committed().with_max_poll_records(100_000),
        );
        consumer.assign(cluster.partitions_of(topic).expect("topic")).expect("assign");
        Self { consumer, latencies: Latencies::default() }
    }

    /// Drain available committed records, recording latencies.
    pub fn drain(&mut self, now_ms: i64) {
        loop {
            let batch = self.consumer.poll().expect("probe poll");
            if batch.is_empty() {
                return;
            }
            // A record stamped ahead of the clock counts as received at once.
            let latencies = batch.into_iter().map(|rec| (now_ms - rec.timestamp).max(0));
            self.latencies.samples.extend(latencies);
        }
    }

    pub fn received(&self) -> u64 {
        self.latencies.count() as u64
    }
}

/// Parameters of one driver run.
#[derive(Clone)]
pub struct RunSpec {
    pub input_partitions: u32,
    pub output_partitions: u32,
    pub commit_interval_ms: i64,
    pub exactly_once: bool,
    /// Records generated per virtual millisecond.
    pub rate_per_ms: usize,
    /// Virtual duration of the measured run.
    pub duration_ms: i64,
    pub key_space: usize,
    /// Number of application instances ("threads", §6.1).
    pub instances: usize,
}

impl Default for RunSpec {
    fn default() -> Self {
        Self {
            input_partitions: 4,
            output_partitions: 10,
            commit_interval_ms: 100,
            exactly_once: true,
            rate_per_ms: 5,
            duration_ms: 3_000,
            key_space: 1024,
            instances: 1,
        }
    }
}

/// Result of one run.
pub struct RunReport {
    pub spec: RunSpec,
    /// Records fully processed by the app per wall-clock second.
    pub throughput_msg_per_sec: f64,
    /// Virtual-time end-to-end latency.
    pub latency: Latencies,
    pub records_generated: u64,
    pub records_processed: u64,
    pub transactions: u64,
    /// kobs registry snapshot taken at the end of this run (the registry is
    /// reset at run start): the commit and txn-log counts behind Figure 5's
    /// end-to-end numbers.
    pub obs: kobs::Snapshot,
    /// Commit-cycle critical-path breakdown from the ktrace span store
    /// (`None` when no commit cycle completed or tracing is compiled out).
    pub critical_path: Option<kobs::CriticalPathSummary>,
}

/// Execute one benchmark run on a fresh virtual-clock cluster
/// (3 brokers, replication 3 — the paper's setup).
pub fn run(spec: RunSpec) -> RunReport {
    let _serial = OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    kobs::reset();
    let clock = ManualClock::new();
    let cluster = Cluster::builder().brokers(3).replication(3).clock(clock.shared()).build();
    cluster.create_topic("bench-in", TopicConfig::new(spec.input_partitions)).unwrap();
    cluster.create_topic("bench-out", TopicConfig::new(spec.output_partitions)).unwrap();

    let topology = stateful_reduce_topology("bench-in", "bench-out", "bench-state");
    let mut config = StreamsConfig::new("bench-app")
        .with_commit_interval_ms(spec.commit_interval_ms)
        .with_max_poll_records(100_000)
        .with_producer_batch_size(64);
    if spec.exactly_once {
        config = config.exactly_once();
    }
    let mut apps: Vec<KafkaStreamsApp> = (0..spec.instances)
        .map(|i| {
            KafkaStreamsApp::new(
                cluster.clone(),
                topology.clone(),
                config.clone(),
                format!("instance-{i}"),
            )
        })
        .collect();
    for app in &mut apps {
        app.start().expect("app start");
    }
    // Let every instance observe the final membership before measuring.
    for app in &mut apps {
        app.step().expect("warmup step");
    }

    let mut generator = LoadGenerator::new(&cluster, "bench-in", spec.key_space);
    let mut probe = LatencyProbe::new(&cluster, "bench-out");

    // Throughput clock: time spent inside the application (broker protocol
    // work included), excluding the generator and probe.
    //
    // The loop runs a fixed number of 1 ms generator ticks so every
    // configuration processes the same record count.
    let mut app_wall = std::time::Duration::ZERO;
    for _tick in 0..spec.duration_ms {
        generator.emit(spec.rate_per_ms, clock.now_ms());
        let t = Instant::now();
        for app in &mut apps {
            app.step().expect("app step");
        }
        app_wall += t.elapsed();
        probe.drain(clock.now_ms());
        clock.advance(1);
    }
    // Drain the tail: run until every generated record is processed and
    // committed (bounded — the main loop may end with records still waiting
    // for their commit). Each pass steps and drains before it advances the
    // clock, so a record due at the next commit is not held an interval more.
    for _ in 0..200 {
        let t = Instant::now();
        for app in &mut apps {
            app.step().expect("drain step");
        }
        app_wall += t.elapsed();
        probe.drain(clock.now_ms());
        let processed: u64 = apps.iter().map(|a| a.metrics().records_processed).sum();
        if processed >= generator.produced() && probe.received() >= generator.produced() {
            break;
        }
        clock.advance(spec.commit_interval_ms.max(1));
    }
    let wall = app_wall.as_secs_f64();
    let mut streams = kstreams::StreamsMetrics::default();
    for app in &mut apps {
        streams.merge(&app.metrics());
        app.close().expect("close");
    }
    RunReport {
        spec,
        throughput_msg_per_sec: streams.records_processed as f64 / wall,
        latency: probe.latencies,
        records_generated: generator.produced(),
        records_processed: streams.records_processed,
        transactions: streams.transactions,
        obs: kobs::snapshot(),
        critical_path: kobs::ktrace::critical_path_summary(),
    }
}

/// Run `spec` several times and return the run with median throughput —
/// wall-clock throughput on a shared machine is noisy, and the figures care
/// about ratios between configurations.
pub fn run_median(spec: RunSpec, repeats: usize) -> RunReport {
    assert!(repeats >= 1);
    let mut reports: Vec<RunReport> = (0..repeats).map(|_| run(spec.clone())).collect();
    reports.sort_by(|a, b| a.throughput_msg_per_sec.total_cmp(&b.throughput_msg_per_sec));
    reports.remove(reports.len() / 2)
}

/// Pretty row formatting used by the figure binaries.
pub fn report_row(label: &str, r: &RunReport) -> String {
    format!(
        "{label:<28} {:>12.0} {:>10.0} {:>10} {:>10}",
        r.throughput_msg_per_sec,
        r.latency.mean_ms(),
        r.latency.percentile_ms(0.99),
        r.records_processed,
    )
}

/// Header matching [`report_row`].
pub fn report_header() -> String {
    format!(
        "{:<28} {:>12} {:>10} {:>10} {:>10}",
        "configuration", "msg/s(wall)", "mean-ms", "p99-ms", "records"
    )
}

/// The transaction log's cost for one run (comment-prefixed so figure
/// output stays copy-paste friendly): records and key-plus-value bytes the
/// coordinator wrote. Empty when the run wrote none (ALOS runs, or
/// `kobs-off` builds).
pub fn txn_log_summary(r: &RunReport) -> String {
    let mut out = String::new();
    for name in ["kbroker.txn.log_records", "kbroker.txn.log_bytes"] {
        if let Some(n) = r.obs.counter(name) {
            out.push_str(&format!("#   {name:<34} {n}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_completes_and_measures() {
        let report = run(RunSpec {
            input_partitions: 2,
            output_partitions: 2,
            commit_interval_ms: 20,
            rate_per_ms: 2,
            duration_ms: 200,
            key_space: 16,
            ..RunSpec::default()
        });
        assert_eq!(
            report.records_processed, report.records_generated,
            "every generated record processed"
        );
        assert!(report.records_processed >= 200, "a solid batch of work ran");
        assert!(report.latency.count() > 0, "probe saw committed outputs");
        assert!(report.throughput_msg_per_sec > 0.0);
        assert!(report.transactions > 0);
        if kobs::ENABLED {
            // The run's own snapshot (not the live global registry, which a
            // later run may have reset) carries the txn-log counts, and the
            // critical path the commit phases.
            assert!(report.obs.counter("kbroker.txn.log_bytes").is_some_and(|n| n > 0));
            assert!(!txn_log_summary(&report).is_empty());
            let cp = report.critical_path.as_ref().expect("commit cycles were traced");
            assert!(cp.phases.iter().any(|(name, _)| *name == "markers"), "{:?}", cp.phases);
        }
    }

    #[test]
    fn latency_percentiles_are_nearest_rank_samples() {
        let empty = Latencies::default();
        assert_eq!((empty.mean_ms(), empty.percentile_ms(0.99), empty.max_ms()), (0.0, 0, 0));
        let l = Latencies { samples: (1..=1000).rev().collect() };
        assert_eq!(l.count(), 1000);
        assert_eq!(l.mean_ms(), 500.5);
        assert_eq!(l.percentile_ms(0.5), 500);
        // p99 leaves exactly ten samples beyond it.
        assert_eq!(l.percentile_ms(0.99), 990);
        assert_eq!((l.percentile_ms(0.0), l.percentile_ms(1.0), l.max_ms()), (1, 1000, 1000));
    }

    #[test]
    fn alos_run_has_no_transactions() {
        let report = run(RunSpec {
            input_partitions: 1,
            output_partitions: 1,
            exactly_once: false,
            commit_interval_ms: 20,
            rate_per_ms: 1,
            duration_ms: 100,
            key_space: 4,
            ..RunSpec::default()
        });
        assert_eq!(report.transactions, 0);
        assert_eq!(report.records_processed, report.records_generated);
    }

    #[test]
    fn latency_tracks_commit_interval_for_eos() {
        // The core Figure 5.b relationship: longer commit interval ⇒ higher
        // end-to-end latency (outputs wait for the transaction commit), and
        // no record waits longer than one interval, the run's tail included.
        let lat = |interval| {
            let latency = run(RunSpec {
                input_partitions: 1,
                output_partitions: 1,
                commit_interval_ms: interval,
                rate_per_ms: 1,
                duration_ms: 400,
                key_space: 8,
                ..RunSpec::default()
            })
            .latency;
            assert!(
                latency.max_ms() <= interval,
                "{interval}ms interval: a record waited {}ms",
                latency.max_ms()
            );
            latency.mean_ms()
        };
        let fast = lat(10);
        let slow = lat(200);
        assert!(
            slow > fast * 2.0,
            "10ms interval gave {fast:.1}ms, 200ms interval gave {slow:.1}ms"
        );
    }

    #[test]
    fn multi_instance_run_splits_tasks() {
        let report = run(RunSpec {
            input_partitions: 4,
            output_partitions: 4,
            commit_interval_ms: 20,
            rate_per_ms: 2,
            duration_ms: 200,
            key_space: 64,
            instances: 2,
            ..RunSpec::default()
        });
        assert_eq!(report.records_processed, report.records_generated);
    }
}
