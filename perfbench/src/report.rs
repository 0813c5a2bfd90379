//! Turning repetitions into named metrics, and metrics into output: the
//! table and JSON line on stdout and the stamped result file.

use crate::drive::{self, BoxError, Counters, Repetition};
use crate::gen;
use crate::probes::{self, ObservedSizes};
use crate::reference::Check;
use crate::stats::{self, Spread};
use crate::trace::Tracer;
use crate::workload::{self, Mode, Scale, Workload};
use kobs::json::{num, obj, str as jstr, Value};
use std::path::PathBuf;
use std::process::Command;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Higher => "higher",
            Self::Lower => "lower",
        }
    }
}

pub struct EndToEndSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The end-to-end metrics, defined on every workload (see README.md).
/// `failed_share` is not among them because it must be 0: it is reported
/// as `failed` / `attempted` and gated absolutely through `correct`.
///
/// The three time-based bounds are the contract's maximum because that is
/// what this class of host supports: on the shared 2-vCPU reference box the
/// medians of back-to-back runs of one binary range over 10-15 % (README.md,
/// "How steady the numbers are"). A finer claim needs `compare` on
/// interleaved pairs, not a tighter gate.
pub const END_TO_END: [EndToEndSpec; 5] = [
    EndToEndSpec { name: "throughput_rps", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEndSpec { name: "latency_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEndSpec { name: "latency_p95_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEndSpec { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.10 },
    EndToEndSpec { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerSpec {
    LayerSpec { name, unit, better }
}

/// The per-layer metrics of the traced run, in the order they are printed.
pub const PER_LAYER: [LayerSpec; 42] = [
    // The tail beyond the gated p95, from the untraced baseline repetition:
    // a diagnostic, because on `paced_reduce_alos` it is set by rare stalls
    // of the host and does not repeat within any bound the contract allows.
    layer("driver.latency_p99_ms", "ms", Better::Lower),
    // Driver spans around the pipeline's own calls.
    layer("driver.produce_ns_per_record", "ns", Better::Lower),
    layer("kstreams.step_ns_per_record", "ns", Better::Lower),
    layer("kstreams.step_ns_per_record_q1", "ns", Better::Lower),
    layer("kstreams.step_ns_per_record_q4", "ns", Better::Lower),
    layer("kstreams.step_empty_ns", "ns", Better::Lower),
    layer("kstreams.commit_ns", "ns", Better::Lower),
    layer("kstreams.commit_count", "count", Better::Lower),
    layer("driver.verify_fetch_ns_per_record", "ns", Better::Lower),
    layer("driver.records_per_step_p50", "count", Better::Higher),
    // Counts and ratios from the program's own counters.
    layer("kbroker.fetch.records_per_request", "count", Better::Higher),
    layer("kbroker.produce.records_per_batch", "count", Better::Higher),
    layer("kbroker.produce.records_per_input", "count", Better::Lower),
    layer("kbroker.txn.commits", "count", Better::Lower),
    layer("klog.dedup_hits", "count", Better::Lower),
    layer("kstreams.changelog.appends_per_1k_inputs", "count", Better::Lower),
    layer("kstreams.cache.hit_ratio", "ratio", Better::Higher),
    layer("kstreams.outputs_per_input", "count", Better::Lower),
    layer("kstreams.late_drops", "count", Better::Lower),
    layer("klog.disk.append_bytes_per_record", "bytes", Better::Lower),
    layer("klog.disk.fsyncs", "count", Better::Lower),
    layer("klog.disk.segment_rolls", "count", Better::Lower),
    // Isolated probes.
    layer("klog.append_ns_per_record.plain", "ns", Better::Lower),
    layer("klog.append_ns_per_record.idempotent", "ns", Better::Lower),
    layer("klog.append_ns_per_record.txn", "ns", Better::Lower),
    layer("klog.fetch_ns_per_record", "ns", Better::Lower),
    layer("klog.disk.append_ns_per_record", "ns", Better::Lower),
    layer("kbroker.produce_ns_per_record.plain", "ns", Better::Lower),
    layer("kbroker.produce_ns_per_record.txn", "ns", Better::Lower),
    layer("kbroker.fetch_ns_per_record.read_committed", "ns", Better::Lower),
    layer("kbroker.fetch_ns_per_record.read_uncommitted", "ns", Better::Lower),
    layer("kbroker.txn.commit_ns", "ns", Better::Lower),
    layer("kbroker.offsets.commit_ns", "ns", Better::Lower),
    layer("kstreams.serde_ns_per_record", "ns", Better::Lower),
    layer("kstreams.store.kv_ns_per_op", "ns", Better::Lower),
    layer("kstreams.store.window_ns_per_op", "ns", Better::Lower),
    layer("kstreams.cache_ns_per_op", "ns", Better::Lower),
    layer("kstreams.task.process_ns_per_record", "ns", Better::Lower),
    // Ledger.
    layer("ledger.e2e_ns_per_record", "ns", Better::Lower),
    layer("ledger.attributed_ns_per_record", "ns", Better::Lower),
    layer("ledger.residual_share", "ratio", Better::Lower),
    layer("trace.overhead_share", "ratio", Better::Lower),
];

/// Counters that must repeat exactly between same-seed drain repetitions,
/// traced or not: the work is the same, only its timing may differ.
const EXACT_COUNTERS: [&str; 6] = [
    "kbroker.fetch.requests",
    "kbroker.fetch.records",
    "kbroker.produce.batches",
    "kbroker.produce.records",
    "kbroker.txn.commits",
    "kstreams.commit_cycles",
];

/// One metric as measured: the median repetition, and every repetition's
/// value (in run order) when the metric is taken once per repetition.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub repetitions: Vec<f64>,
}

impl Metric {
    fn once(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value, repetitions: Vec::new() }
    }

    fn range(&self) -> Option<Spread> {
        (!self.repetitions.is_empty()).then(|| Spread::of(&self.repetitions))
    }
}

/// Everything one invocation measured for one workload.
pub struct WorkloadResult {
    pub workload: &'static Workload,
    pub traced: bool,
    pub records: usize,
    pub repetitions: usize,
    pub metrics: Vec<Metric>,
    /// Results expected and failed, summed over the repetitions.
    pub check: Check,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
    /// Paced runs: the most the generator ran behind its schedule.
    pub gen_late_max_ms: Option<f64>,
    pub counters: Counters,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn over<'a>(reps: impl IntoIterator<Item = &'a Repetition>) -> Check {
        let mut sum = Check::default();
        for rep in reps {
            sum.add(&rep.check);
        }
        sum
    }
}

fn check_repetition(w: &Workload, rep: &Repetition, problems: &mut Vec<String>) {
    let f = rep.check.failures;
    if f.total() > 0 {
        problems.push(format!(
            "{}: {} of {} results failed (missing {}, duplicated {}, wrong {})",
            w.name,
            f.total(),
            rep.check.expected,
            f.missing,
            f.duplicated,
            f.wrong
        ));
    }
    if rep.violations > 0 {
        problems.push(format!("{}: {} protocol invariant violations", w.name, rep.violations));
    }
}

/// Same seed, same drain: the program's work counters must agree exactly.
fn check_same_work(w: &Workload, a: &Repetition, b: &Repetition, problems: &mut Vec<String>) {
    if !matches!(w.mode, Mode::Drain { .. }) {
        return;
    }
    for name in EXACT_COUNTERS {
        let (x, y) = (counter(&a.counters, name), counter(&b.counters, name));
        if x != y {
            problems.push(format!("{}: {name} differs between repetitions ({x} vs {y})", w.name));
        }
    }
}

fn counter(counters: &Counters, name: &str) -> u64 {
    counters.get(name).copied().unwrap_or(0)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run: `scale.repetitions()` fresh repetitions, every
/// end-to-end metric the median one.
pub fn run_end_to_end(
    w: &'static Workload,
    scale: Scale,
    seed: u64,
) -> Result<WorkloadResult, BoxError> {
    let mut reps = Vec::new();
    let mut problems = Vec::new();
    for _ in 0..scale.repetitions() {
        let rep = drive::repetition(w, scale, seed, &mut Tracer::off())?;
        check_repetition(w, &rep, &mut problems);
        if let Some(first) = reps.first() {
            check_same_work(w, first, &rep, &mut problems);
        }
        reps.push(rep);
    }
    let over_reps = |name, unit, value: fn(&Repetition) -> f64| {
        let repetitions: Vec<f64> = reps.iter().map(value).collect();
        Metric { name, unit, value: Spread::of(&repetitions).median, repetitions }
    };
    let metrics = vec![
        over_reps("throughput_rps", "1/s", |r| r.timed.throughput_rps),
        over_reps("latency_p50_ms", "ms", |r| r.timed.latency_p50_ms),
        over_reps("latency_p95_ms", "ms", |r| r.timed.latency_p95_ms),
        Metric::once("peak_rss_mb", "MB", peak_rss_mb()),
        over_reps("setup_s", "s", |r| r.setup_s),
    ];
    let paced = matches!(w.mode, Mode::Paced { .. });
    Ok(WorkloadResult {
        workload: w,
        traced: false,
        records: reps[0].records,
        repetitions: reps.len(),
        metrics,
        check: WorkloadResult::over(&reps),
        problems,
        gen_late_max_ms: paced
            .then(|| reps.iter().map(|r| r.timed.gen_late_max_ms).fold(0.0, f64::max)),
        counters: reps[0].counters.clone(),
    })
}

/// The traced run: one untraced repetition as the baseline, one traced
/// repetition for spans and counts, then the isolated probes.
///
/// A discarded repetition comes first: the first repetition of a process
/// pays for touching fresh memory (at N = 4M it costs 1.7x the later ones),
/// which would otherwise be billed to whichever of the two runs first.
pub fn run_per_layer(
    w: &'static Workload,
    scale: Scale,
    seed: u64,
) -> Result<(WorkloadResult, Tracer), BoxError> {
    let mut problems = Vec::new();
    let warm_up = drive::repetition(w, scale, seed, &mut Tracer::off())?;
    check_repetition(w, &warm_up, &mut problems);
    let baseline = drive::repetition(w, scale, seed, &mut Tracer::off())?;
    check_repetition(w, &baseline, &mut problems);
    check_same_work(w, &warm_up, &baseline, &mut problems);
    let mut tracer = Tracer::on();
    let traced = drive::repetition(w, scale, seed, &mut tracer)?;
    check_repetition(w, &traced, &mut problems);
    check_same_work(w, &baseline, &traced, &mut problems);

    let n = traced.records as f64;
    let mut values = vec![("driver.latency_p99_ms", baseline.timed.latency_p99_ms)];
    span_metrics(&tracer, n, &mut values);
    let sizes = count_metrics(&traced, &mut values);

    let inputs = gen::generate(w.shape, traced.records, seed);
    let keys = gen::key_table(w.key_space());
    values.extend(probes::run(w, &inputs, &keys, sizes)?);
    ledger(w, &baseline, &traced, &mut values);

    let metrics = PER_LAYER
        .iter()
        .map(|spec| {
            let value = values
                .iter()
                .find(|(name, _)| *name == spec.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not measured", spec.name))
                .1;
            Metric::once(spec.name, spec.unit, value)
        })
        .collect();
    let paced = matches!(w.mode, Mode::Paced { .. });
    let result = WorkloadResult {
        workload: w,
        traced: true,
        records: traced.records,
        repetitions: 3,
        metrics,
        check: WorkloadResult::over([&warm_up, &baseline, &traced]),
        problems,
        gen_late_max_ms: paced.then_some(traced.timed.gen_late_max_ms),
        counters: traced.counters.clone(),
    };
    Ok((result, tracer))
}

fn lookup(values: &[(&'static str, f64)], name: &str) -> f64 {
    values.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Median of the spans' values; 0 when the run recorded none of the kind.
fn median(values: Vec<f64>) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

/// Metrics computed from the benchmark's own spans.
fn span_metrics(tracer: &Tracer, n: f64, out: &mut Vec<(&'static str, f64)>) {
    let total = |name| {
        let (ns, records) = tracer
            .named(name)
            .fold((0u64, 0u64), |(ns, recs), s| (ns + s.duration_ns(), recs + s.records));
        (ns as f64, records as f64)
    };
    let (produce_ns, produced) = total("driver.produce");
    out.push(("driver.produce_ns_per_record", ratio(produce_ns, produced)));
    let (step_ns, _) = total("kstreams.step");
    out.push(("kstreams.step_ns_per_record", ratio(step_ns, n)));

    // First and last quarter of the input, by records processed before the
    // step began: a cost that grows with the length of the logs shows as
    // q4 > q1.
    let mut before = 0.0;
    let (mut q1, mut q4) = ((0.0, 0.0), (0.0, 0.0));
    for step in tracer.named("kstreams.step") {
        let quarter = if before < n / 4.0 {
            Some(&mut q1)
        } else if before >= n * 3.0 / 4.0 {
            Some(&mut q4)
        } else {
            None
        };
        if let Some((ns, records)) = quarter {
            *ns += step.duration_ns() as f64;
            *records += step.records as f64;
        }
        before += step.records as f64;
    }
    out.push(("kstreams.step_ns_per_record_q1", ratio(q1.0, q1.1)));
    out.push(("kstreams.step_ns_per_record_q4", ratio(q4.0, q4.1)));

    let empty = tracer
        .named("kstreams.step")
        .chain(tracer.named("kstreams.step.idle"))
        .filter(|s| s.records == 0)
        .map(|s| s.duration_ns() as f64);
    out.push(("kstreams.step_empty_ns", median(empty.collect())));
    let commits: Vec<f64> =
        tracer.named("kstreams.commit").map(|s| s.duration_ns() as f64).collect();
    out.push(("kstreams.commit_count", commits.len() as f64));
    out.push(("kstreams.commit_ns", median(commits)));
    let (verify_ns, verified) = total("driver.verify_fetch");
    out.push(("driver.verify_fetch_ns_per_record", ratio(verify_ns, verified)));
    let busy = tracer.named("kstreams.step").filter(|s| s.records > 0).map(|s| s.records as f64);
    out.push(("driver.records_per_step_p50", median(busy.collect())));
}

/// Counts and ratios from the program's counters over the timed section,
/// less what the generator and the probe consumer contributed (paced runs
/// interleave them with the program's own work).
fn count_metrics(rep: &Repetition, out: &mut Vec<(&'static str, f64)>) -> ObservedSizes {
    let n = rep.records as f64;
    let c = |name| counter(&rep.counters, name) as f64;
    let t = &rep.timed;
    let fetch_requests = c("kbroker.fetch.requests") - t.driver_fetch_requests as f64;
    let fetch_records = c("kbroker.fetch.records") - t.driver_fetch_records as f64;
    let produce_batches = c("kbroker.produce.batches") - t.driver_produce_batches as f64;
    let produce_records = c("kbroker.produce.records") - t.driver_produce_records as f64;
    let m = &rep.streams;

    let per_request = ratio(fetch_records, fetch_requests);
    let per_batch = ratio(produce_records, produce_batches);
    out.push(("kbroker.fetch.records_per_request", per_request));
    out.push(("kbroker.produce.records_per_batch", per_batch));
    out.push(("kbroker.produce.records_per_input", ratio(produce_records, n)));
    out.push(("kbroker.txn.commits", c("kbroker.txn.commits")));
    out.push(("klog.dedup_hits", c("klog.dedup_hits")));
    out.push((
        "kstreams.changelog.appends_per_1k_inputs",
        ratio(m.changelog_appends as f64 * 1000.0, n),
    ));
    out.push((
        "kstreams.cache.hit_ratio",
        ratio(m.cache_hits as f64, (m.cache_hits + m.cache_misses) as f64),
    ));
    out.push(("kstreams.outputs_per_input", ratio(m.records_emitted as f64, n)));
    out.push(("kstreams.late_drops", m.late_dropped as f64));
    out.push((
        "klog.disk.append_bytes_per_record",
        ratio(c("klog.disk.append_bytes"), produce_records),
    ));
    out.push(("klog.disk.fsyncs", c("klog.disk.fsyncs")));
    out.push(("klog.disk.segment_rolls", c("klog.disk.segment_rolls")));
    ObservedSizes {
        records_per_produce_batch: per_batch.round() as usize,
        records_per_fetch_request: per_request.round() as usize,
    }
}

/// What the probes, multiplied by how often the run makes each call, add up
/// to against what a record costs end to end. Reported, not gated.
fn ledger(
    w: &Workload,
    baseline: &Repetition,
    traced: &Repetition,
    out: &mut Vec<(&'static str, f64)>,
) {
    let n = traced.records as f64;
    let (e2e, overhead) = match w.mode {
        // A drain does nothing but call into the program: its cost per
        // record is the inverse of its untraced throughput.
        Mode::Drain { .. } => {
            let untraced = 1e9 / baseline.timed.throughput_rps;
            (untraced, 1e9 / traced.timed.throughput_rps / untraced - 1.0)
        }
        // A paced run idles between records; its cost per record is the
        // time spent inside the program's calls, and tracing shows in the
        // median latency.
        Mode::Paced { .. } => (
            lookup(out, "kstreams.step_ns_per_record") + commit_ns_per_record(out, n),
            ratio(traced.timed.latency_p50_ms, baseline.timed.latency_p50_ms) - 1.0,
        ),
    };
    let produce = lookup(
        out,
        if w.exactly_once {
            "kbroker.produce_ns_per_record.txn"
        } else {
            "kbroker.produce_ns_per_record.plain"
        },
    );
    let attributed = lookup(out, "kstreams.task.process_ns_per_record")
        + produce * lookup(out, "kbroker.produce.records_per_input")
        + commit_ns_per_record(out, n);
    out.push(("ledger.e2e_ns_per_record", e2e));
    out.push(("ledger.attributed_ns_per_record", attributed));
    out.push(("ledger.residual_share", ratio(e2e - attributed, e2e)));
    out.push(("trace.overhead_share", overhead));
}

fn commit_ns_per_record(values: &[(&'static str, f64)], n: f64) -> f64 {
    lookup(values, "kstreams.commit_count") * lookup(values, "kstreams.commit_ns") / n
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/// The contract's result line: the last line of stdout.
pub fn result_line(result: &WorkloadResult) -> String {
    let metrics = result
        .metrics
        .iter()
        .map(|m| (m.name, obj(vec![("value", num(m.value)), ("unit", jstr(m.unit))])))
        .collect();
    obj(vec![
        ("correct", Value::Bool(result.correct())),
        ("attempted", num(result.check.expected.max(1) as f64)),
        ("failed", num(result.check.failures.total() as f64)),
        ("metrics", obj(metrics)),
    ])
    .to_string()
}

pub fn print_table(result: &WorkloadResult) {
    let w = result.workload;
    println!(
        "== {} ({}; {} records x {} repetitions) — {}",
        w.name,
        if result.traced { "per-layer, traced" } else { "end to end, untraced" },
        result.records,
        result.repetitions,
        w.why
    );
    for m in &result.metrics {
        match m.range() {
            Some(range) => println!(
                "  {:<46} {:>16.4} {:<6} (min {:.4}, max {:.4})",
                m.name, m.value, m.unit, range.min, range.max
            ),
            None => println!("  {:<46} {:>16.4} {}", m.name, m.value, m.unit),
        }
    }
    println!(
        "  {:<46} {:>16.6} ({} failed of {} expected results)",
        "failed_share",
        result.check.failed_share(),
        result.check.failures.total(),
        result.check.expected
    );
    if let Some(late) = result.gen_late_max_ms {
        println!("  {:<46} {:>16.4} ms", "driver.gen_late_max_ms", late);
    }
    for problem in &result.problems {
        println!("  PROBLEM: {problem}");
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(drive::bench_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where, when configured how, the numbers were taken.
fn stamp(seed: u64, scale: Scale) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    obj(vec![
        ("git_commit", jstr(command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", jstr(command_line("rustc", &["-V"]))),
        ("nproc", num(nproc as f64)),
        ("cpu_model", jstr(cpu_model())),
        ("seed", num(seed as f64)),
        ("seconds", num(scale.seconds as f64)),
        ("quick", Value::Bool(scale.quick)),
        (
            "config",
            obj(vec![
                ("brokers", num(workload::BROKERS as f64)),
                ("replication", num(workload::REPLICATION as f64)),
                ("input_partitions", num(workload::INPUT_PARTITIONS)),
                ("output_partitions", num(workload::OUTPUT_PARTITIONS)),
                ("max_poll_records", num(workload::MAX_POLL_RECORDS as f64)),
                ("producer_batch", num(workload::PRODUCER_BATCH as f64)),
                ("worker_threads", num(1)),
                ("kobs", jstr(if kobs::ENABLED { "on" } else { "off" })),
                ("drain_step_ms", num(workload::DRAIN_STEP_MS as f64)),
                ("drain_commit_interval_ms", num(workload::DRAIN_COMMIT_INTERVAL_MS as f64)),
                ("paced_commit_interval_ms", num(workload::PACED_COMMIT_INTERVAL_MS as f64)),
                ("paced_rate_per_s", num(workload::PACED_RATE_PER_S as f64)),
            ]),
        ),
    ])
}

fn workload_json(result: &WorkloadResult) -> Value {
    let w = result.workload;
    let metrics = result
        .metrics
        .iter()
        .map(|m| {
            let mut fields = vec![("value", num(m.value)), ("unit", jstr(m.unit))];
            if let Some(range) = m.range() {
                fields.push(("min", num(range.min)));
                fields.push(("max", num(range.max)));
                fields.push((
                    "repetitions",
                    Value::Arr(m.repetitions.iter().map(|v| num(*v)).collect()),
                ));
            }
            (m.name, obj(fields))
        })
        .collect();
    let counters = result.counters.iter().map(|(k, v)| (k.as_str(), num(*v as f64))).collect();
    obj(vec![
        ("name", jstr(w.name)),
        ("why", jstr(w.why)),
        ("traced", Value::Bool(result.traced)),
        ("records", num(result.records as f64)),
        ("repetitions", num(result.repetitions as f64)),
        ("exactly_once", Value::Bool(w.exactly_once)),
        ("disk", Value::Bool(w.disk)),
        ("cache_max_entries", num(w.cache_max_entries as f64)),
        ("commit_interval_ms", num(w.commit_interval_ms as f64)),
        ("correct", Value::Bool(result.correct())),
        ("attempted", num(result.check.expected as f64)),
        ("failed", num(result.check.failures.total() as f64)),
        ("failed_share", num(result.check.failed_share())),
        ("problems", Value::Arr(result.problems.iter().map(jstr).collect())),
        ("gen_late_max_ms", result.gen_late_max_ms.map_or(Value::Null, num)),
        ("metrics", obj(metrics)),
        ("counters", obj(counters)),
    ])
}

pub fn results_dir() -> std::io::Result<PathBuf> {
    let dir = drive::bench_dir().join("results");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Write the stamped result file for one invocation; returns its path.
pub fn write_results(
    results: &[WorkloadResult],
    seed: u64,
    scale: Scale,
    file_stem: &str,
) -> std::io::Result<PathBuf> {
    let doc = obj(vec![
        ("stamp", stamp(seed, scale)),
        ("workloads", Value::Arr(results.iter().map(workload_json).collect())),
    ]);
    let path = results_dir()?.join(format!("{file_stem}.json"));
    std::fs::write(&path, format!("{doc}\n"))?;
    Ok(path)
}

pub fn write_trace(tracer: &Tracer, workload: &str) -> std::io::Result<PathBuf> {
    let path = results_dir()?.join(format!("trace-{workload}.json"));
    std::fs::write(&path, format!("{}\n", tracer.to_json()))?;
    Ok(path)
}

/// `BENCHMARK.json` as the code defines it; a test holds the committed file
/// to this.
pub fn benchmark_json() -> String {
    // One compact object per line: people read this file too.
    let section = |rows: Vec<Value>| {
        rows.iter().map(|row| format!("    {row}")).collect::<Vec<_>>().join(",\n")
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
        "run",
    ];
    let workloads = workload::WORKLOADS
        .iter()
        .filter(|w| w.gated)
        .map(|w| obj(vec![("name", jstr(w.name)), ("why", jstr(w.why))]));
    let end_to_end = END_TO_END.iter().map(|m| {
        obj(vec![
            ("name", jstr(m.name)),
            ("unit", jstr(m.unit)),
            ("better", jstr(m.better.as_str())),
            ("bound", num(m.bound)),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        obj(vec![
            ("name", jstr(m.name)),
            ("unit", jstr(m.unit)),
            ("better", jstr(m.better.as_str())),
        ])
    });
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        Value::Arr(command.map(jstr).to_vec()),
        workload::RUN_SECONDS,
        section(workloads.collect()),
        section(end_to_end.collect()),
        section(per_layer.collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_code() {
        let path = drive::bench_dir().join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `cargo run --manifest-path perfbench/Cargo.toml -- spec > BENCHMARK.json`"
        );
        kobs::json::parse(&committed).expect("BENCHMARK.json parses");
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} twice");
            assert!(name.len() <= 64);
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = WorkloadResult {
            workload: &workload::WORKLOADS[0],
            traced: false,
            records: 10,
            repetitions: 1,
            metrics: vec![Metric::once("setup_s", "s", 0.25)],
            check: Check { expected: 10, ..Check::default() },
            problems: Vec::new(),
            gen_late_max_ms: None,
            counters: Counters::new(),
        };
        let parsed = kobs::json::parse(&result_line(&result)).unwrap();
        let keys: Vec<&str> = parsed.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = parsed.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.25));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }
}
