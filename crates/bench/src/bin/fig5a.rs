//! Figure 5.a — exactly-once impact vs number of output partitions.
//!
//! Paper setup: 3-broker cluster, single-instance stateful-reduce app,
//! commit interval 100 ms, output partitions swept 1 → 1000, end-to-end
//! latency measured at a read-committed consumer.
//!
//! Expected shape (paper): EOS throughput 10–20 % below ALOS, roughly flat
//! in partition count; EOS latency grows with partition count (one commit
//! marker per partition per transaction), ALOS latency flat and low.
//!
//! Here no broker work advances the virtual clock, so the virtual-time EOS
//! latency is the commit interval plus real work; the marker fan-out's cost
//! shows only in the wall-clock throughput column.

use bench::{report_header, report_row, run_median, txn_log_summary, RunSpec};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let repeats = if quick { 1 } else { 3 };
    let partitions: &[u32] = if quick { &[1, 10, 100] } else { &[1, 10, 100, 1000] };
    // Warm up allocator/caches so the first measured configuration is not
    // penalized.
    let _ = run_median(RunSpec { duration_ms: 200, ..RunSpec::default() }, 1);
    println!("# Figure 5.a — EOS vs ALOS over output partition count");
    println!("# commit interval = 100 ms, stateful reduce, read-committed probe");
    println!("{}", report_header());
    for &parts in partitions {
        for eos in [false, true] {
            let spec = RunSpec {
                input_partitions: 4,
                output_partitions: parts,
                commit_interval_ms: 100,
                exactly_once: eos,
                rate_per_ms: if quick { 3 } else { 10 },
                duration_ms: if quick { 1_000 } else { 3_000 },
                key_space: 4096,
                instances: 1,
            };
            let label = format!("{} partitions={parts}", if eos { "EOS " } else { "ALOS" });
            let report = run_median(spec, repeats);
            println!("{}", report_row(&label, &report));
            // What the coordinator wrote to the transaction log: one record
            // per init fence, AddPartitions request, prepare and complete.
            print!("{}", txn_log_summary(&report));
        }
    }
    println!();
    println!("# Paper check: EOS throughput within ~10-20% of ALOS at every point;");
    println!("# virtual-time EOS latency = commit interval + real work; ALOS latency flat.");
}
