//! Record-cache dedup sweep — §6.2's output-suppression caching measured on
//! a hot-key aggregation.
//!
//! Setup: the §4.3 stateful-reduce app over a deliberately tiny key space,
//! so every key is updated many times per commit interval (the default
//! configuration lands at ≥100 updates/key/commit). The cache capacity is
//! swept from 0 (write-through, one changelog append per update) upward;
//! with any capacity that holds the working set, the cache absorbs the
//! repeated puts and flushes one append per dirty key per commit.
//!
//! Expected shape: changelog appends collapse from ~1 per input record to
//! ~(keys × commits), i.e. orders of magnitude fewer on hot keys, while the
//! final store contents and committed outputs are unchanged (the simkit
//! sweep and the cache permutation proptests pin that part). Undersized
//! caches land in between: evictions re-introduce mid-interval appends.
//!
//! With `--quick` the sweep shrinks to {0, default} and asserts the ≥5×
//! append reduction (the CI smoke). With `--json` it emits one
//! machine-readable object with each run's kobs snapshot embedded (used by
//! the CI observability gate to validate the cache counter exports).

use bench::{run_median, RunReport, RunSpec};
use kobs::json::{num, obj, str as jstr, Value};

/// Cache capacity exercised by the smoke assertion: comfortably holds the
/// whole hot-key working set, so every mid-interval re-put coalesces.
const DEFAULT_CACHE: usize = 1024;

fn hot_key_spec(cache_max_entries: usize, quick: bool) -> RunSpec {
    RunSpec {
        input_partitions: 4,
        output_partitions: 4,
        commit_interval_ms: 100,
        exactly_once: true,
        // 8 keys at 10 rec/ms over a 100 ms interval = 125 updates/key/commit.
        rate_per_ms: 10,
        duration_ms: if quick { 1_000 } else { 3_000 },
        key_space: 8,
        instances: 1,
        cache_max_entries,
    }
}

fn appends_per_1k(r: &RunReport) -> u64 {
    r.streams.changelog_appends.saturating_mul(1000) / r.streams.records_processed.max(1)
}

fn row(label: &str, r: &RunReport) -> String {
    format!(
        "{label:<24} {:>12.0} {:>10.0} {:>10} {:>12} {:>10} {:>10} {:>10}",
        r.throughput_msg_per_sec,
        r.latency.mean_ms(),
        r.records_processed,
        r.streams.changelog_appends,
        appends_per_1k(r),
        r.streams.cache_hits,
        r.streams.cache_evictions,
    )
}

fn json_row(label: &str, cache: usize, r: &RunReport) -> Value {
    obj(vec![
        ("label", jstr(label.to_string())),
        ("cache_max_entries", num(cache as f64)),
        ("throughput_msg_per_sec", num(r.throughput_msg_per_sec)),
        ("records_processed", num(r.records_processed as f64)),
        ("changelog_appends", num(r.streams.changelog_appends as f64)),
        ("appends_per_1k_inputs", num(appends_per_1k(r) as f64)),
        ("cache_hits", num(r.streams.cache_hits as f64)),
        ("cache_evictions", num(r.streams.cache_evictions as f64)),
        ("metrics", r.obs.to_json()),
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let json = std::env::args().any(|a| a == "--json");
    let repeats = if quick { 1 } else { 3 };
    // cache=1 is undersized (each task sees ~2 hot keys across the 4 input
    // partitions), so its eviction churn shows in the table.
    let caches: &[usize] = if quick { &[0, DEFAULT_CACHE] } else { &[0, 1, 8, 64, DEFAULT_CACHE] };
    let _ = run_median(RunSpec { duration_ms: 200, ..RunSpec::default() }, 1);
    let mut rows: Vec<Value> = Vec::new();
    let mut uncached_appends = 0u64;
    if !json {
        println!("# Record-cache sweep — hot-key stateful reduce, 8 keys, 100 ms commits");
        println!("# (~125 updates/key/commit; cache=0 is the write-through baseline)");
        println!(
            "{:<24} {:>12} {:>10} {:>10} {:>12} {:>10} {:>10} {:>10}",
            "configuration",
            "msg/s(wall)",
            "mean-ms",
            "records",
            "cl-appends",
            "per-1k-in",
            "hits",
            "evictions"
        );
    }
    for &cache in caches {
        let report = run_median(hot_key_spec(cache, quick), repeats);
        let label = format!("cache={cache}");
        if cache == 0 {
            uncached_appends = report.streams.changelog_appends;
        } else if quick {
            // The CI smoke: a cache that holds the working set must cut the
            // changelog traffic of this workload by at least 5×.
            let cached = report.streams.changelog_appends.max(1);
            let ratio = uncached_appends as f64 / cached as f64;
            assert!(
                ratio >= 5.0,
                "cache={cache} dedup ratio {ratio:.1}x below the 5x floor \
                 (uncached {uncached_appends} appends vs cached {cached})"
            );
            assert!(report.streams.cache_hits > 0, "hot keys must coalesce in the cache");
            if !json {
                println!("# quick-mode gate: {ratio:.1}x fewer changelog appends (floor 5x)");
            }
        }
        if json {
            rows.push(json_row(&label, cache, &report));
        } else {
            println!("{}", row(&label, &report));
        }
    }
    if json {
        println!(
            "{}",
            obj(vec![("figure", jstr("cachebench".to_string())), ("rows", Value::Arr(rows))])
        );
        return;
    }
    println!();
    println!("# Paper check (§6.2): caching consolidates repeated per-key updates into");
    println!("# one changelog append + one downstream revision per commit interval;");
    println!("# undersized caches fall in between (evictions reopen the append stream).");
}
