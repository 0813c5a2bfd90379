//! Figure 5.b — exactly-once impact vs commit interval, Kafka Streams EOS.
//!
//! Paper setup: same stateful-reduce app, 10 output partitions, commit
//! interval swept 10 ms → 10 s. The paper also runs Flink 1.12 with
//! incremental checkpoints to S3; that arm is not reproduced here, since
//! its cost is the object store's, which this repository does not have.
//!
//! Expected shape (paper): throughput grows and latency grows with the
//! interval. Here latency is virtual time, so an EOS record waits at most
//! one interval for its commit: mean about half the interval, max the
//! interval.
//!
//! With `--json`, emits a single machine-readable object instead of the
//! table (used by the CI observability smoke): one row per configuration
//! with the run's kobs metrics snapshot and commit-cycle critical path
//! embedded.

use bench::{report_header, report_row, run_median, txn_log_summary, RunReport, RunSpec};
use kobs::json::{num, obj, str as jstr, Value};

fn json_row(label: &str, interval: i64, r: &RunReport) -> Value {
    let mut row = vec![
        ("label", jstr(label.to_string())),
        ("commit_interval_ms", num(interval as f64)),
        ("throughput_msg_per_sec", num(r.throughput_msg_per_sec)),
        ("latency_mean_ms", num(r.latency.mean_ms())),
        ("latency_p99_ms", num(r.latency.percentile_ms(0.99) as f64)),
        ("records_processed", num(r.records_processed as f64)),
        ("metrics", r.obs.to_json()),
    ];
    if let Some(cp) = &r.critical_path {
        row.push(("critical_path", cp.to_json()));
    }
    obj(row)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let json = std::env::args().any(|a| a == "--json");
    let repeats = if quick { 1 } else { 3 };
    let intervals: &[i64] = if quick { &[10, 100, 1000] } else { &[10, 100, 1000, 10_000] };
    let _ = run_median(RunSpec { duration_ms: 200, ..RunSpec::default() }, 1);
    let mut rows: Vec<Value> = Vec::new();
    if !json {
        println!("# Figure 5.b — Streams EOS commit interval sweep (10 output partitions)");
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
        let streams = run_median(spec, repeats);
        if json {
            rows.push(json_row("streams-eos", interval, &streams));
        } else {
            println!("{}", report_row(&format!("Streams EOS  iv={interval}ms"), &streams));
            // The transaction log's records and bytes per interval.
            print!("{}", txn_log_summary(&streams));
        }
    }
    if json {
        println!("{}", obj(vec![("figure", jstr("5b".to_string())), ("rows", Value::Arr(rows))]));
        return;
    }
    println!();
    println!("# Paper check: latency grows with the interval; an EOS record waits at");
    println!("# most one interval for its commit, half of one on average. Read the");
    println!("# paper's throughput gain against the msg/s column. The paper's Flink");
    println!("# arm (per-file S3 checkpoints) is not reproduced.");
}
