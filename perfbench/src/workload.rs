//! The seven workloads: what each feeds the program, which topology it
//! runs, and why it exists.

use crate::gen::Shape;
use kstreams::topology::Topology;
use kstreams::{StreamsBuilder, StreamsConfig, TimeWindows};
use std::sync::Arc;

// One deployment for every workload: the paper's 3-broker, replication-3
// cluster and a single instance in its default one-worker scheduler mode.
pub const BROKERS: usize = 3;
pub const REPLICATION: usize = 3;
pub const INPUT_PARTITIONS: u32 = 4;
pub const OUTPUT_PARTITIONS: u32 = 4;
pub const MAX_POLL_RECORDS: usize = 1000;
pub const PRODUCER_BATCH: usize = 64;

pub const INPUT_TOPIC: &str = "bench-in";
pub const OUTPUT_TOPIC: &str = "bench-out";
pub const STORE: &str = "bench-store";
pub const APP_ID: &str = "perfbench";

/// Fresh in-process repetitions per run; every end-to-end metric is the
/// median repetition.
pub const REPETITIONS: usize = 5;
/// The `--seconds` the workload sizes below are calibrated for (the
/// `run_seconds` of `BENCHMARK.json`): five repetitions of a drain measure
/// about this long in total on the 2-core reference box, and five paced
/// repetitions measure exactly this long. Other `--seconds` scale N and the
/// paced schedule linearly.
pub const RUN_SECONDS: u64 = 10;
/// `--quick` divides N and the paced schedule by this.
pub const QUICK_DIVISOR: usize = 20;

/// Virtual time a drain advances per `step()`, and its commit interval:
/// a commit on every 10th step, the same steps on every run.
pub const DRAIN_STEP_MS: i64 = 10;
pub const DRAIN_COMMIT_INTERVAL_MS: i64 = 100;
/// Fig. 5b's low end.
pub const PACED_COMMIT_INTERVAL_MS: i64 = 10;
pub const PACED_RATE_PER_S: u64 = 100_000;

pub const WINDOW_SIZE_MS: i64 = 1000;
pub const WINDOW_GRACE_MS: i64 = 2000;

/// The operator graph a workload runs, which is also the fold its
/// reference computation applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topo {
    /// `filter(v % 16 != 0) -> map_values(2v + 1) -> to`.
    Passthrough,
    /// `group_by_key().reduce(sum)`, one output per input.
    ReduceSum,
    /// `group_by_key().reduce(max)`, one output per input.
    ReduceMax,
    /// 1 s tumbling `count` with 2 s grace.
    WindowCount,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// N records preloaded, then processed as fast as the program goes, on a
    /// `ManualClock`.
    Drain { n: usize },
    /// Open loop on the cluster's `WallClock`: `rate_per_s` records per
    /// second whether or not the program keeps up.
    Paced { rate_per_s: u64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub topo: Topo,
    pub exactly_once: bool,
    pub disk: bool,
    pub cache_max_entries: usize,
    pub commit_interval_ms: i64,
    pub mode: Mode,
    /// Whether `BENCHMARK.json` lists the workload, i.e. whether a later
    /// change is rejected for making it worse.
    pub gated: bool,
}

const UNIFORM: Shape = Shape::Uniform { keys: 65_536 };

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "passthrough_eos",
        why: "No store, cache or changelog: klog append/fetch and kbroker produce/fetch/txn do all the work; bypasses every kstreams::state optimisation.",
        shape: UNIFORM,
        topo: Topo::Passthrough,
        exactly_once: true,
        disk: false,
        cache_max_entries: 0,
        commit_interval_ms: DRAIN_COMMIT_INTERVAL_MS,
        mode: Mode::Drain { n: 800_000 },
        gated: true,
    },
    Workload {
        name: "reduce_eos",
        why: "The paper's 4.3 app: store + changelog, 2 produced records per input, cache off; the workload a batch-first hot path must move.",
        shape: UNIFORM,
        topo: Topo::ReduceSum,
        exactly_once: true,
        disk: false,
        cache_max_entries: 0,
        commit_interval_ms: DRAIN_COMMIT_INTERVAL_MS,
        mode: Mode::Drain { n: 400_000 },
        gated: true,
    },
    Workload {
        name: "reduce_alos",
        why: "Same input and topology at-least-once (offset commits, read-uncommitted fetch): a gain for EOS that costs ALOS shows here; reduce_eos / reduce_alos is Fig. 5a's overhead.",
        shape: UNIFORM,
        topo: Topo::ReduceSum,
        exactly_once: false,
        disk: false,
        cache_max_entries: 0,
        commit_interval_ms: DRAIN_COMMIT_INTERVAL_MS,
        mode: Mode::Drain { n: 400_000 },
        gated: true,
    },
    Workload {
        name: "window_disorder_eos",
        why: "Completeness path: window store, revisions, late drops beyond grace, and a 4096-entry record cache absorbing most changelog/produce work; the opposite regime to reduce_eos.",
        shape: Shape::ZipfDisorder { keys: 1024, late_share: 0.10, max_late_ms: 3000 },
        topo: Topo::WindowCount,
        exactly_once: true,
        disk: false,
        cache_max_entries: 4096,
        commit_interval_ms: DRAIN_COMMIT_INTERVAL_MS,
        mode: Mode::Drain { n: 600_000 },
        gated: true,
    },
    Workload {
        name: "reduce_eos_disk",
        why: "reduce_eos on StorageMode::Disk: the only workload where klog::storage works; guards storage unification and group-commit changes.",
        shape: UNIFORM,
        topo: Topo::ReduceSum,
        exactly_once: true,
        disk: true,
        cache_max_entries: 0,
        commit_interval_ms: DRAIN_COMMIT_INTERVAL_MS,
        mode: Mode::Drain { n: 60_000 },
        // Every produce batch costs this workload one device write and one
        // discard per replica (the checkpoint's write-and-rename), so it
        // times the host's disk: back-to-back runs ranged 14k-70k rec/s on
        // the reference box, depending on how much I/O came before.
        gated: false,
    },
    Workload {
        name: "paced_reduce_eos",
        why: "Open loop at 100k rec/s, 10 ms commits: small batches per cycle, so per-cycle fixed costs and the commit path set latency (floor: interval/2 and interval).",
        shape: Shape::Paced { keys: 65_536, rate_per_s: PACED_RATE_PER_S },
        topo: Topo::ReduceMax,
        exactly_once: true,
        disk: false,
        cache_max_entries: 0,
        commit_interval_ms: PACED_COMMIT_INTERVAL_MS,
        mode: Mode::Paced { rate_per_s: PACED_RATE_PER_S },
        gated: true,
    },
    Workload {
        name: "paced_reduce_alos",
        why: "Same schedule at-least-once: latency is the bare fetch-process-produce-replicate path, where a linger/batching change that trades latency for throughput is caught.",
        shape: Shape::Paced { keys: 65_536, rate_per_s: PACED_RATE_PER_S },
        topo: Topo::ReduceMax,
        exactly_once: false,
        disk: false,
        cache_max_entries: 0,
        commit_interval_ms: PACED_COMMIT_INTERVAL_MS,
        mode: Mode::Paced { rate_per_s: PACED_RATE_PER_S },
        gated: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How much of a workload one run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub seconds: u64,
    pub quick: bool,
}

impl Scale {
    pub fn repetitions(self) -> usize {
        if self.quick {
            1
        } else {
            REPETITIONS
        }
    }
}

impl Workload {
    pub fn key_space(&self) -> u32 {
        match self.shape {
            Shape::Uniform { keys }
            | Shape::ZipfDisorder { keys, .. }
            | Shape::Paced { keys, .. } => keys,
        }
    }

    /// Input records per repetition at `scale`.
    pub fn records(&self, scale: Scale) -> usize {
        let full = match self.mode {
            Mode::Drain { n } => n as u64 * scale.seconds / RUN_SECONDS,
            Mode::Paced { rate_per_s } => rate_per_s * scale.seconds / REPETITIONS as u64,
        } as usize;
        let n = if scale.quick { full / QUICK_DIVISOR } else { full };
        n.max(1000)
    }

    pub fn topology(&self) -> Arc<Topology> {
        let builder = StreamsBuilder::new();
        let input = builder.stream::<String, i64>(INPUT_TOPIC);
        match self.topo {
            Topo::Passthrough => input
                .filter(|_, v| passthrough_keeps(*v))
                .map_values(|_, v| passthrough_maps(*v))
                .to(OUTPUT_TOPIC),
            Topo::ReduceSum => input
                .group_by_key()
                .reduce(STORE, |a, b| a.wrapping_add(*b))
                .to_stream()
                .to(OUTPUT_TOPIC),
            Topo::ReduceMax => {
                input.group_by_key().reduce(STORE, |a, b| *a.max(b)).to_stream().to(OUTPUT_TOPIC);
            }
            Topo::WindowCount => input
                .group_by_key()
                .windowed_by(TimeWindows::of(WINDOW_SIZE_MS).grace(WINDOW_GRACE_MS))
                .count(STORE)
                .to_stream()
                .to(OUTPUT_TOPIC),
        }
        Arc::new(builder.build().expect("workload topologies are valid"))
    }

    /// The instance configuration; `commit_interval_ms` is a parameter
    /// because the traced run commits from the driver instead.
    pub fn streams_config(&self, commit_interval_ms: i64) -> StreamsConfig {
        let config = StreamsConfig::new(APP_ID)
            .with_commit_interval_ms(commit_interval_ms)
            .with_max_poll_records(MAX_POLL_RECORDS)
            .with_producer_batch_size(PRODUCER_BATCH)
            .with_cache_max_entries(self.cache_max_entries);
        if self.exactly_once {
            config.exactly_once()
        } else {
            config
        }
    }
}

pub fn passthrough_keeps(v: i64) -> bool {
    v % 16 != 0
}

pub fn passthrough_maps(v: i64) -> i64 {
    v * 2 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_every_topology_builds() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name), "{} twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
            w.topology();
        }
    }

    #[test]
    fn scale_sizes_drains_and_schedules() {
        let full = Scale { seconds: RUN_SECONDS, quick: false };
        let quick = Scale { seconds: RUN_SECONDS, quick: true };
        let reduce = find("reduce_eos").unwrap();
        assert_eq!(reduce.records(full), 400_000);
        assert_eq!(reduce.records(quick), 20_000);
        assert_eq!(reduce.records(Scale { seconds: 2 * RUN_SECONDS, quick: false }), 800_000);
        let paced = find("paced_reduce_alos").unwrap();
        assert_eq!(paced.records(full), 200_000, "2 s at 100k rec/s per repetition");
        assert_eq!((full.repetitions(), quick.repetitions()), (REPETITIONS, 1));
    }
}
