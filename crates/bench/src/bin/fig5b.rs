//! Figure 5.b — exactly-once impact vs commit/checkpoint interval,
//! Kafka Streams vs the Flink-style aligned-checkpoint baseline.
//!
//! Paper setup: same stateful-reduce app, 10 output partitions, commit
//! interval swept 10 ms → 10 s; Flink 1.12 configured with incremental
//! checkpoints to S3 and a matching checkpoint interval.
//!
//! Expected shape (paper): both systems gain throughput and lose latency as
//! the interval grows; the baseline's latency is *much* worse at small
//! intervals (per-file snapshot upload gates the transaction commit) and
//! the gap narrows as the interval grows.

//! With `--json`, emits a single machine-readable object instead of the
//! table (used by the CI observability smoke): one row per configuration
//! with the run's kobs metrics snapshot embedded.

use bench::{
    phase_breakdown, report_header, report_row, run_checkpoint_baseline, run_median, RunReport,
    RunSpec,
};
use kobs::json::{num, obj, str as jstr, Value};

fn json_row(label: &str, interval: i64, r: &RunReport) -> Value {
    obj(vec![
        ("label", jstr(label.to_string())),
        ("commit_interval_ms", num(interval as f64)),
        ("throughput_msg_per_sec", num(r.throughput_msg_per_sec)),
        ("latency_mean_ms", num(r.latency.mean_ms())),
        ("latency_p99_ms", num(r.latency.percentile_ms(0.99) as f64)),
        ("records_processed", num(r.records_processed as f64)),
        ("metrics", r.obs.to_json()),
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let json = std::env::args().any(|a| a == "--json");
    let repeats = if quick { 1 } else { 3 };
    let intervals: &[i64] = if quick { &[10, 100, 1000] } else { &[10, 100, 1000, 10_000] };
    let _ = run_median(RunSpec { duration_ms: 200, ..RunSpec::default() }, 1);
    let mut rows: Vec<Value> = Vec::new();
    if !json {
        println!("# Figure 5.b — commit/checkpoint interval sweep (10 output partitions)");
        println!("{}", report_header());
    }
    for &interval in intervals {
        let spec = RunSpec {
            input_partitions: 4,
            output_partitions: 10,
            commit_interval_ms: interval,
            exactly_once: true,
            rate_per_ms: if quick { 3 } else { 10 },
            // Long enough to see several commits even at 10 s intervals.
            duration_ms: (interval * 4).max(if quick { 1_000 } else { 3_000 }),
            key_space: 4096,
            instances: 1,
        };
        let streams = run_median(spec.clone(), repeats);
        let flink = run_checkpoint_baseline(spec);
        if json {
            rows.push(json_row("streams-eos", interval, &streams));
            rows.push(json_row("ckpt-baseline", interval, &flink));
        } else {
            println!("{}", report_row(&format!("Streams EOS  iv={interval}ms"), &streams));
            // Phase breakdown: txn phase counts per interval; no broker
            // phase advances the virtual clock.
            print!("{}", phase_breakdown(&streams));
            println!("{}", report_row(&format!("Ckpt(Flink)  iv={interval}ms"), &flink));
        }
    }
    if json {
        println!("{}", obj(vec![("figure", jstr("5b".to_string())), ("rows", Value::Arr(rows))]));
        return;
    }
    println!();
    println!("# Paper check: throughput grows / latency grows with the interval for both;");
    println!("# the checkpoint baseline pays the per-file snapshot upload before each");
    println!("# commit, so its latency exceeds Streams' at small intervals and the gap");
    println!("# narrows as the interval grows.");
}
