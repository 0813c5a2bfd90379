//! The deterministic run report: everything a human (or a CI log) needs to
//! understand one simulated run, rendered byte-identically for identical
//! seeds.

use crate::FaultPoint;
use std::fmt;

/// Cluster-level event counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    pub broker_kills: u64,
    pub broker_restores: u64,
    pub instance_crashes: u64,
    pub instance_restarts: u64,
    pub forced_rebalances: u64,
    /// Durable crash-restore cycles (`--storage disk` only): a broker or
    /// instance killed and immediately revived from its on-disk state.
    pub durable_crashes: u64,
    /// Rolling restarts (`--churn` only): graceful leave + immediate
    /// rejoin under the same instance id.
    pub rolling_restarts: u64,
    /// Fleet growths (`--churn` or scripted `AddInstance`): brand-new
    /// instances joined under load.
    pub instance_adds: u64,
    /// Fleet shrinks (`--churn` only): live instances gracefully retired.
    pub instance_removes: u64,
}

/// The outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct SimReport {
    pub seed: u64,
    pub steps: u64,
    /// Profile name; suffixed with `!` when forced via `--profile`.
    pub profile: String,
    /// Record-cache capacity per store (`--cache`); 0 means caching off.
    pub cache_max_entries: usize,
    /// Storage backend the brokers ran on: `"memory"` or `"disk"`.
    pub storage: String,
    /// Whether the rebalance-churn fault classes were enabled (`--churn`).
    pub churn: bool,
    pub brokers: usize,
    pub partitions: u32,
    pub n_keys: usize,
    pub instances: usize,
    /// Records handed to the generator producer (excluding sentinels).
    pub records_fed: u64,
    /// Generator flushes that errored out (records possibly not landed —
    /// the oracle folds over the *actual* input topic, so this is
    /// informational).
    pub feed_errors: u64,
    /// Records actually in the input topic at drain (including the
    /// per-partition window-closing sentinels).
    pub input_records: u64,
    /// Committed records read from the output topic.
    pub output_records: u64,
    /// Stable hash (FNV-1a) of the read-committed records of the output
    /// and changelog topics. It must not change with telemetry compiled in
    /// or out.
    pub committed_digest: u64,
    pub events: EventCounts,
    /// `(point, observed, injected)` per fault point, in stable order.
    pub fault_counts: Vec<(FaultPoint, u64, u64)>,
    /// Instance step/start errors observed during the scheduled run (an
    /// erroring instance is treated as crashed).
    pub step_errors: Vec<String>,
    /// Oracle failures; empty means the run passed.
    pub failures: Vec<String>,
    /// kobs metrics snapshot; present when the run was observability
    /// profiled (`--profile` with no topology argument).
    pub obs: Option<kobs::Snapshot>,
    /// Trailing trace-event window (the newest events of the trace ring);
    /// populated when profiled or when an oracle failed (so the repro line
    /// comes with its context).
    pub trace: Vec<kobs::Event>,
    /// Commit-cycle critical-path breakdown (ktrace); present when the run
    /// was observability profiled and at least one commit cycle completed.
    pub critical_path: Option<kobs::CriticalPathSummary>,
    /// Flight-recorder dump: the newest span trees of the trace ring, with
    /// their events inline, rendered as indented text. Populated only when
    /// an oracle failed, so the repro line comes with the causal timeline
    /// leading up to it.
    pub flight: Vec<String>,
    /// Whether this run carried an injected synthetic oracle failure
    /// (`--inject-failure`), used to exercise the flight-recorder dump.
    pub inject_failure: bool,
}

impl SimReport {
    /// Whether every oracle held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The exact command that replays this run.
    pub fn repro(&self) -> String {
        let mut cmd = format!(
            "cargo run -p simkit --bin simtest -- --seed {} --steps {}",
            self.seed, self.steps
        );
        if let Some(forced) = self.profile.strip_suffix('!') {
            cmd.push_str(&format!(" --profile {forced}"));
        }
        if self.cache_max_entries > 0 {
            cmd.push_str(&format!(" --cache {}", self.cache_max_entries));
        }
        if self.storage == "disk" {
            cmd.push_str(" --storage disk");
        }
        if self.churn {
            cmd.push_str(" --churn");
        }
        if self.inject_failure {
            cmd.push_str(" --inject-failure");
        }
        cmd
    }

    /// Total faults injected at `point` during this run.
    pub fn injected(&self, point: FaultPoint) -> u64 {
        self.fault_counts.iter().find(|(p, _, _)| *p == point).map_or(0, |(_, _, i)| *i)
    }

    /// Panic with the full report and replay command unless the run passed.
    pub fn assert_passed(&self) {
        assert!(self.passed(), "simtest oracle failure (reproduce with: {})\n{self}", self.repro());
    }

    /// Machine-readable form of the report (`simtest --json`). Metrics and
    /// trace sections appear only when captured, mirroring [`fmt::Display`].
    pub fn to_json(&self) -> kobs::json::Value {
        use kobs::json::{num, obj, str as jstr, Value};
        let mut fields = vec![
            ("seed", num(self.seed as f64)),
            ("steps", num(self.steps as f64)),
            ("profile", jstr(self.profile.clone())),
            ("cache_max_entries", num(self.cache_max_entries as f64)),
            ("storage", jstr(self.storage.clone())),
            ("churn", Value::Bool(self.churn)),
            ("brokers", num(self.brokers as f64)),
            ("partitions", num(self.partitions as f64)),
            ("instances", num(self.instances as f64)),
            ("records_fed", num(self.records_fed as f64)),
            ("feed_errors", num(self.feed_errors as f64)),
            ("input_records", num(self.input_records as f64)),
            ("output_records", num(self.output_records as f64)),
            ("committed_digest", jstr(format!("{:016x}", self.committed_digest))),
            ("passed", Value::Bool(self.passed())),
            ("failures", Value::Arr(self.failures.iter().map(|e| jstr(e.clone())).collect())),
            ("repro", jstr(self.repro())),
        ];
        if let Some(obs) = &self.obs {
            fields.push(("metrics", obs.to_json()));
        }
        if !self.trace.is_empty() {
            fields
                .push(("trace", Value::Arr(self.trace.iter().map(kobs::Event::to_json).collect())));
        }
        if let Some(cp) = &self.critical_path {
            fields.push((
                "critical_path",
                obj(vec![
                    ("cycles", num(cp.cycles as f64)),
                    ("total_us", num(cp.total_us as f64)),
                    (
                        "phases",
                        obj(cp
                            .phases
                            .iter()
                            .map(|(name, us)| (*name, num(*us as f64)))
                            .collect::<Vec<_>>()),
                    ),
                    (
                        "longest_chain",
                        Value::Arr(cp.longest_chain.iter().map(|n| jstr(n.to_string())).collect()),
                    ),
                    ("longest_cycle_us", num(cp.longest_cycle_us as f64)),
                ]),
            ));
        }
        if !self.flight.is_empty() {
            fields.push((
                "flight_recorder",
                Value::Arr(self.flight.iter().map(|t| jstr(t.clone())).collect()),
            ));
        }
        obj(fields)
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "simtest seed={} steps={} profile={} cache={} storage={} brokers={} partitions={} keys={} instances={}",
            self.seed,
            self.steps,
            self.profile,
            self.cache_max_entries,
            self.storage,
            self.brokers,
            self.partitions,
            self.n_keys,
            self.instances
        )?;
        writeln!(
            f,
            "  fed={} feed_errors={} input_records={} output_records={}",
            self.records_fed, self.feed_errors, self.input_records, self.output_records
        )?;
        writeln!(f, "  committed_digest={:016x}", self.committed_digest)?;
        writeln!(
            f,
            "  events: broker_kills={} broker_restores={} instance_crashes={} instance_restarts={} forced_rebalances={} durable_crashes={} rolling_restarts={} instance_adds={} instance_removes={}",
            self.events.broker_kills,
            self.events.broker_restores,
            self.events.instance_crashes,
            self.events.instance_restarts,
            self.events.forced_rebalances,
            self.events.durable_crashes,
            self.events.rolling_restarts,
            self.events.instance_adds,
            self.events.instance_removes
        )?;
        writeln!(f, "  faults:")?;
        for (point, observed, injected) in &self.fault_counts {
            writeln!(f, "    {:<24} observed={observed} injected={injected}", point.name())?;
        }
        if !self.step_errors.is_empty() {
            writeln!(f, "  step_errors ({}):", self.step_errors.len())?;
            for e in &self.step_errors {
                writeln!(f, "    - {e}")?;
            }
        }
        if let Some(obs) = &self.obs {
            if obs.is_empty() {
                writeln!(f, "  metrics: (empty — instrumentation compiled out?)")?;
            } else {
                writeln!(f, "  metrics:")?;
                for line in obs.to_string().lines() {
                    writeln!(f, "    {line}")?;
                }
            }
        }
        if let Some(cp) = &self.critical_path {
            writeln!(
                f,
                "  critical path: commit_cycles={} total_us={} longest_cycle_us={}",
                cp.cycles, cp.total_us, cp.longest_cycle_us
            )?;
            writeln!(f, "    longest chain: {}", cp.longest_chain.join(" > "))?;
            writeln!(f, "    per-phase self time (sums to total):")?;
            for (name, us) in &cp.phases {
                writeln!(f, "      {name:<16} self_us={us}")?;
            }
        }
        if self.failures.is_empty() {
            writeln!(f, "  oracle: PASS")?;
        } else {
            writeln!(f, "  oracle: FAIL ({} failures)", self.failures.len())?;
            for e in &self.failures {
                writeln!(f, "    - {e}")?;
            }
        }
        if !self.trace.is_empty() {
            writeln!(f, "  trace (last {} events):", self.trace.len())?;
            for e in &self.trace {
                writeln!(f, "    {e}")?;
            }
        }
        if !self.flight.is_empty() {
            writeln!(f, "  flight recorder (last {} span trees):", self.flight.len())?;
            for tree in &self.flight {
                for line in tree.lines() {
                    writeln!(f, "    {line}")?;
                }
            }
        }
        write!(f, "  repro: {}", self.repro())
    }
}
