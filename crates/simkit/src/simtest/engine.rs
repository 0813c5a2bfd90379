//! The scenario engine: seed → workload + fault schedule + interleaved
//! step schedule → drain → oracles.

use crate::simtest::report::{EventCounts, SimReport};
use crate::simtest::script::{Script, ScriptEvent};
use crate::simtest::workload::{Profile, Workload, GRACE_MS, MAX_JITTER_MS, WINDOW_MS};
use crate::{DetRng, FaultPlan, FaultPoint, ManualClock};
use kbroker::group::SESSION_TIMEOUT_MS;
use kbroker::{
    Cluster, Consumer, ConsumerConfig, ConsumerRecord, DiskConfig, Producer, ProducerConfig,
    StorageMode, TopicConfig, TopicPartition,
};
use kstreams::{KSerde, KafkaStreamsApp, StreamsConfig, Windowed};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// Application id of the simulated app (also its consumer group).
const APP_ID: &str = "sim";

/// Key used for the per-partition window-closing records fed at drain
/// time; excluded from every oracle.
const SENTINEL_KEY: &str = "~sentinel";

/// Upper bound on drain iterations before declaring non-convergence.
const MAX_DRAIN_ITERS: u64 = 5_000;

/// Cap on reported oracle failures (the report stays readable; the count
/// of suppressed entries is still printed).
const MAX_FAILURES: usize = 20;

/// Trailing trace-event window attached to profiled or failing reports.
const TRACE_TAIL: usize = 32;

/// Flight-recorder span trees rendered into a failing report (of the
/// newest [`kobs::ktrace::FLIGHT_RECORDER_TREES`]; dumping them all would
/// drown the repro line).
const FLIGHT_DUMP_TREES: usize = 2;

/// Broker-side rebalance debounce window used in `--churn` runs
/// (virtual-clock ms): churn bursts coalesce into one generation bump.
const CHURN_DEBOUNCE_MS: i64 = 25;

/// Cap on instances the churn fleet-resize class may grow beyond the
/// workload's starting fleet.
const CHURN_MAX_EXTRA_INSTANCES: usize = 3;

/// The `klog::checks` violation sink is process-global, so concurrent runs
/// (e.g. `cargo test` threads) would steal each other's violations.
static RUN_LOCK: Mutex<()> = Mutex::new(());

/// Configuration of one simulated run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub seed: u64,
    /// Scheduled actions in the chaos phase (before the healing drain).
    pub steps: u64,
    /// Force a topology profile instead of deriving it from the seed.
    pub profile: Option<Profile>,
    /// Attach a kobs metrics snapshot (and trace tail) to the report.
    pub obs_profile: bool,
    /// Record-cache capacity handed to every app instance
    /// (`StreamsConfig::cache_max_entries`); 0 disables caching.
    pub cache_max_entries: usize,
    /// Scripted fault schedule (the kcheck counterexample bridge). When
    /// set, it replaces the seed-derived probabilistic fault plan.
    pub script: Option<Script>,
    /// Record a synthetic oracle failure after the drain so the
    /// flight-recorder dump path can be exercised on a healthy run.
    pub inject_failure: bool,
    /// Run brokers on the durable disk backend (`--storage disk`) and app
    /// instances with a state directory (post-commit spills). Segment files
    /// and spills live in a per-`(pid, seed)` temp directory that is wiped
    /// before and after the run; I/O is counted, never timed, so a disk run
    /// is still byte-identical per seed. Also unlocks the durable-crash fault class: kill+restore a
    /// broker in one scheduled action (recovery from its segment files), or
    /// crash+respawn an instance in one action (warm-start from spills).
    pub disk_storage: bool,
    /// Rebalance-churn fault classes (`--churn`): rolling restarts
    /// (graceful close + immediate rejoin under the same instance id) and
    /// fleet resizing (instances added to / removed from the group under
    /// load). Apps additionally run with a broker-side rebalance debounce
    /// window, so back-to-back churn coalesces. Off by default so the
    /// no-churn schedule stream stays byte-identical with earlier seeds;
    /// oracles are unchanged — exactly-once and completeness must hold
    /// through every rebalance.
    pub churn: bool,
}

impl SimConfig {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            steps: 300,
            profile: None,
            obs_profile: false,
            cache_max_entries: 0,
            script: None,
            inject_failure: false,
            disk_storage: false,
            churn: false,
        }
    }

    pub fn with_steps(mut self, steps: u64) -> Self {
        self.steps = steps;
        self
    }

    pub fn with_profile(mut self, profile: Profile) -> Self {
        self.profile = Some(profile);
        self
    }

    pub fn with_obs_profile(mut self) -> Self {
        self.obs_profile = true;
        self
    }

    pub fn with_cache(mut self, cache_max_entries: usize) -> Self {
        self.cache_max_entries = cache_max_entries;
        self
    }

    pub fn with_script(mut self, script: Script) -> Self {
        self.script = Some(script);
        self
    }

    /// Inject a synthetic oracle failure after the drain. The run itself is
    /// untouched — this only exercises the failure reporting path, i.e. the
    /// flight-recorder span-tree dump next to the repro line.
    pub fn with_injected_failure(mut self) -> Self {
        self.inject_failure = true;
        self
    }

    /// Run on the durable disk backend (`--storage disk`): broker segment
    /// files, app state-store spills, and the durable-crash fault class.
    pub fn with_disk_storage(mut self) -> Self {
        self.disk_storage = true;
        self
    }

    /// Enable the rebalance-churn fault classes (`--churn`): rolling
    /// restarts and fleet resizing under load, with a broker-side rebalance
    /// debounce window on the group.
    pub fn with_churn(mut self) -> Self {
        self.churn = true;
        self
    }

    /// Temp directory holding this run's segment files and spills.
    fn disk_root(&self) -> PathBuf {
        std::env::temp_dir().join(format!("simtest-disk-{}-{}", std::process::id(), self.seed))
    }
}

/// One app slot: the instance index is the identity (`i{idx}`), the app is
/// present while the instance is "alive".
type Slot = Option<KafkaStreamsApp>;

struct Engine {
    cfg: SimConfig,
    workload: Workload,
    clock: ManualClock,
    cluster: Cluster,
    plan: FaultPlan,
    slots: Vec<Slot>,
    feeder: Producer,
    /// Monotone base for generated timestamps (jitter backdates from it).
    base_ts: i64,
    max_ts: i64,
    records_fed: u64,
    feed_errors: u64,
    events: EventCounts,
    step_errors: Vec<String>,
    failures: Vec<String>,
    /// App state directory (spills); `Some` iff running on disk storage.
    state_dir: Option<PathBuf>,
}

/// Run one simulation to completion and report the oracle outcome.
pub fn run(cfg: &SimConfig) -> SimReport {
    let _serial = RUN_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // Drain stale violations from earlier (non-simtest) activity in this
    // process so the invariant oracle only sees this run.
    let _ = klog::checks::take_violations();
    // Same story for the kobs registry and trace ring: both are
    // process-global, so start every run from a clean slate to keep the
    // attached snapshot deterministic per seed.
    kobs::reset();

    let root = DetRng::new(cfg.seed);
    let workload = Workload::generate(&mut root.derive(1), cfg.profile);
    // A script pins the fault schedule to exactly the counterexample's
    // injections; the seed still drives the workload and step schedule.
    let plan = match &cfg.script {
        Some(script) => script.fault_plan(),
        None => build_fault_plan(&mut root.derive(2), cfg.seed),
    };
    let mut schedule = root.derive(3);

    // Disk mode: segment files and spills live under a per-(pid, seed)
    // temp root, wiped before the run (a stale tree from a killed earlier
    // run must not leak state in) and after it (below).
    let disk_root = cfg.disk_storage.then(|| cfg.disk_root());
    if let Some(root) = &disk_root {
        let _ = std::fs::remove_dir_all(root);
    }
    let storage = match &disk_root {
        Some(root) => StorageMode::Disk(DiskConfig::at(root.join("broker"))),
        None => StorageMode::Memory,
    };

    let clock = ManualClock::new();
    let cluster = Cluster::builder()
        .brokers(workload.brokers)
        .replication(workload.brokers)
        .clock(clock.shared())
        .storage(storage)
        .faults(plan.clone())
        .build();
    cluster.create_topic("events", TopicConfig::new(workload.partitions)).expect("fresh topic");
    cluster.create_topic("out", TopicConfig::new(workload.partitions)).expect("fresh topic");

    let feeder = Producer::new(cluster.clone(), ProducerConfig::default().with_batch_size(1));
    let mut engine = Engine {
        cfg: cfg.clone(),
        workload,
        clock,
        cluster,
        plan,
        slots: Vec::new(),
        feeder,
        base_ts: 0,
        max_ts: 0,
        records_fed: 0,
        feed_errors: 0,
        events: EventCounts::default(),
        step_errors: Vec::new(),
        failures: Vec::new(),
        state_dir: disk_root.as_ref().map(|root| root.join("state")),
    };
    for idx in 0..engine.workload.instances {
        let slot = engine.spawn_instance(idx);
        engine.slots.push(slot);
    }
    for step in 1..=cfg.steps {
        engine.scripted_events(step);
        engine.scheduled_action(&mut schedule);
    }
    let report = engine.drain_and_check();
    if let Some(root) = &disk_root {
        let _ = std::fs::remove_dir_all(root);
    }
    report
}

fn build_fault_plan(rng: &mut DetRng, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::seeded(seed ^ 0x5151_5151);
    for point in FaultPoint::ALL {
        // Per-point: usually faulty, with loss probabilities small enough
        // that client retry budgets (10 retries) are effectively never
        // exhausted, but large enough that every point fires across a
        // modest seed sweep.
        if rng.chance(0.8) {
            plan = plan.with_ack_loss(point, rng.unit() * 0.08);
        }
        if rng.chance(0.8) {
            plan = plan.with_request_loss(point, rng.unit() * 0.08);
        }
    }
    plan
}

impl Engine {
    fn app_config(&self) -> StreamsConfig {
        let mut cfg = StreamsConfig::new(APP_ID)
            .exactly_once()
            .with_commit_interval_ms(10)
            .with_max_poll_records(64)
            .with_cache_max_entries(self.cfg.cache_max_entries);
        if let Some(dir) = &self.state_dir {
            cfg = cfg.with_state_dir(dir.clone());
        }
        if self.cfg.churn {
            // Churn mode exercises the broker-side debounce window too:
            // back-to-back joins/transfer-requests coalesce into one
            // generation bump (virtual clock, so still deterministic).
            cfg = cfg.with_rebalance_debounce_ms(CHURN_DEBOUNCE_MS);
        }
        cfg
    }

    /// Create and start the app for instance `idx`. On a start error (e.g.
    /// restoring through a dead broker) the error is recorded and the slot
    /// stays empty — a later restart event or the drain phase retries.
    fn spawn_instance(&mut self, idx: usize) -> Slot {
        let mut app = KafkaStreamsApp::new(
            self.cluster.clone(),
            self.workload.profile.topology(),
            self.app_config(),
            format!("i{idx}"),
        );
        match app.start() {
            Ok(()) => Some(app),
            Err(e) => {
                self.step_errors.push(format!("start i{idx}: {e}"));
                None
            }
        }
    }

    /// Fire the scripted cluster events scheduled before step `step`.
    fn scripted_events(&mut self, step: u64) {
        let Some(script) = &self.cfg.script else { return };
        let events: Vec<ScriptEvent> = script.events_at(step).collect();
        for event in events {
            match event {
                ScriptEvent::KillBroker => {
                    let alive: Vec<usize> = (0..self.workload.brokers)
                        .filter(|&b| self.cluster.broker_alive(b))
                        .collect();
                    if alive.len() >= 2 {
                        self.cluster.kill_broker(alive[0]);
                        self.events.broker_kills += 1;
                    }
                }
                ScriptEvent::RestoreBroker => {
                    if let Some(dead) =
                        (0..self.workload.brokers).find(|&b| !self.cluster.broker_alive(b))
                    {
                        self.restore_broker(dead);
                        self.events.broker_restores += 1;
                    }
                }
                ScriptEvent::RestartInstance => {
                    // Crash-restart under the same instance id: the restart
                    // fences the stale transactional producer (epoch bump),
                    // which is what the model's `Fence` action stands for.
                    if let Some(idx) = (0..self.slots.len()).find(|&i| self.slots[i].is_some()) {
                        self.slots[idx].take().expect("picked live").crash();
                        self.events.instance_crashes += 1;
                        self.slots[idx] = self.spawn_instance(idx);
                        if self.slots[idx].is_some() {
                            self.events.instance_restarts += 1;
                        }
                    }
                }
                ScriptEvent::AddInstance => {
                    let idx = self.slots.len();
                    let slot = self.spawn_instance(idx);
                    self.slots.push(slot);
                    self.events.instance_adds += 1;
                }
            }
        }
    }

    /// One scheduled action of the chaos phase.
    fn scheduled_action(&mut self, rng: &mut DetRng) {
        match rng.range(0, 100) {
            0..=39 => self.feed(rng),
            40..=74 => self.step_instance(rng),
            75..=89 => self.clock.advance(rng.range_i64(1, 50)),
            _ => self.cluster_event(rng),
        }
    }

    fn feed(&mut self, rng: &mut DetRng) {
        let n = rng.range(1, 6);
        for _ in 0..n {
            let key = &self.workload.keys[rng.index(self.workload.keys.len())];
            self.base_ts += rng.range_i64(0, 400);
            let jitter = rng.range_i64(0, MAX_JITTER_MS + 1);
            let ts = (self.base_ts - jitter).max(0);
            self.max_ts = self.max_ts.max(ts);
            self.records_fed += 1;
            let sent = self.feeder.send(
                "events",
                Some(key.clone().to_bytes()),
                Some("v".to_string().to_bytes()),
                ts,
            );
            if sent.is_err() {
                // The batch may or may not have landed (lost-ack ambiguity);
                // the oracle folds over the actual topic content, so only
                // note it and start a fresh generator.
                self.feed_errors += 1;
                self.feeder = Producer::new(
                    self.cluster.clone(),
                    ProducerConfig::default().with_batch_size(1),
                );
            }
        }
    }

    fn step_instance(&mut self, rng: &mut DetRng) {
        let live: Vec<usize> = (0..self.slots.len()).filter(|&i| self.slots[i].is_some()).collect();
        if live.is_empty() {
            return;
        }
        let idx = live[rng.index(live.len())];
        let app = self.slots[idx].as_mut().expect("picked from live set");
        if let Err(e) = app.step() {
            // A step error is a process death: drop the instance without
            // commit or group leave, exactly like a crash.
            self.step_errors.push(format!("step i{idx}: {e}"));
            self.slots[idx].take().expect("still present").crash();
        }
    }

    fn cluster_event(&mut self, rng: &mut DetRng) {
        // Disk mode adds a sixth event class; churn mode appends two more
        // (rolling restart, fleet resize). The base 5-way draw is untouched
        // when both are off, so historical memory-mode schedules stay
        // byte-identical.
        let mut classes = 5;
        if self.cfg.disk_storage {
            classes += 1;
        }
        if self.cfg.churn {
            classes += 2;
        }
        let draw = rng.range(0, classes);
        // Map the appended classes back to their handler: durable crash
        // occupies the slot right after the base classes (when enabled),
        // churn the last two.
        if self.cfg.churn && draw >= classes - 2 {
            if draw == classes - 2 {
                self.rolling_restart(rng);
            } else {
                self.fleet_resize(rng);
            }
            return;
        }
        match draw {
            0 => {
                // Kill a broker, but never the last one alive: replication
                // equals the broker count, so any survivor can lead every
                // partition and the run stays live.
                let alive: Vec<usize> =
                    (0..self.workload.brokers).filter(|&b| self.cluster.broker_alive(b)).collect();
                if alive.len() >= 2 {
                    self.cluster.kill_broker(alive[rng.index(alive.len())]);
                    self.events.broker_kills += 1;
                }
            }
            1 => {
                let dead: Vec<usize> =
                    (0..self.workload.brokers).filter(|&b| !self.cluster.broker_alive(b)).collect();
                if !dead.is_empty() {
                    self.restore_broker(dead[rng.index(dead.len())]);
                    self.events.broker_restores += 1;
                }
            }
            2 => {
                let live: Vec<usize> =
                    (0..self.slots.len()).filter(|&i| self.slots[i].is_some()).collect();
                if !live.is_empty() {
                    let idx = live[rng.index(live.len())];
                    self.slots[idx].take().expect("picked from live set").crash();
                    self.events.instance_crashes += 1;
                }
            }
            3 => {
                let dead: Vec<usize> =
                    (0..self.slots.len()).filter(|&i| self.slots[i].is_none()).collect();
                if !dead.is_empty() {
                    let idx = dead[rng.index(dead.len())];
                    self.slots[idx] = self.spawn_instance(idx);
                    if self.slots[idx].is_some() {
                        self.events.instance_restarts += 1;
                    }
                }
            }
            4 => {
                self.cluster.group_force_rebalance(APP_ID);
                self.events.forced_rebalances += 1;
            }
            _ => self.durable_crash(rng),
        }
    }

    /// Churn fault class: rolling restart — one live instance leaves
    /// *gracefully* (final commit + group leave) and immediately rejoins
    /// under the same id, the way a rolling deploy cycles a fleet. A close
    /// error is a crash (broker faults can kill the final commit).
    fn rolling_restart(&mut self, rng: &mut DetRng) {
        let live: Vec<usize> = (0..self.slots.len()).filter(|&i| self.slots[i].is_some()).collect();
        if live.is_empty() {
            return;
        }
        let idx = live[rng.index(live.len())];
        let mut app = self.slots[idx].take().expect("picked from live set");
        if let Err(e) = app.close() {
            self.step_errors.push(format!("rolling close i{idx}: {e}"));
            app.crash();
        }
        self.events.rolling_restarts += 1;
        self.slots[idx] = self.spawn_instance(idx);
    }

    /// Churn fault class: fleet resize — grow the group with a brand-new
    /// instance id, or gracefully retire a live one (never the last), under
    /// sustained load.
    fn fleet_resize(&mut self, rng: &mut DetRng) {
        let live: Vec<usize> = (0..self.slots.len()).filter(|&i| self.slots[i].is_some()).collect();
        let can_grow = self.slots.len() < self.workload.instances + CHURN_MAX_EXTRA_INSTANCES;
        let grow = if live.len() <= 1 { true } else { can_grow && rng.chance(0.5) };
        if grow {
            if !can_grow {
                return;
            }
            let idx = self.slots.len();
            let slot = self.spawn_instance(idx);
            self.slots.push(slot);
            self.events.instance_adds += 1;
        } else {
            let idx = live[rng.index(live.len())];
            let mut app = self.slots[idx].take().expect("picked from live set");
            if let Err(e) = app.close() {
                self.step_errors.push(format!("retire close i{idx}: {e}"));
                app.crash();
            }
            self.events.instance_removes += 1;
        }
    }

    /// Disk-only fault class: an *honest* durable crash. A coin flip picks
    /// the layer: kill-and-restore a broker in one action (its in-memory
    /// replica is discarded; the restore must rebuild it from segment
    /// files), or crash-and-respawn an app instance in one action (its
    /// tasks must warm-start from the spill files). Either way the only
    /// surviving state is what was actually on disk.
    fn durable_crash(&mut self, rng: &mut DetRng) {
        if rng.chance(0.5) {
            let alive: Vec<usize> =
                (0..self.workload.brokers).filter(|&b| self.cluster.broker_alive(b)).collect();
            if alive.len() >= 2 {
                let b = alive[rng.index(alive.len())];
                self.cluster.kill_broker(b);
                self.restore_broker(b);
                self.events.durable_crashes += 1;
            }
        } else {
            let live: Vec<usize> =
                (0..self.slots.len()).filter(|&i| self.slots[i].is_some()).collect();
            if !live.is_empty() {
                let idx = live[rng.index(live.len())];
                self.slots[idx].take().expect("picked from live set").crash();
                self.slots[idx] = self.spawn_instance(idx);
                self.events.durable_crashes += 1;
            }
        }
    }

    /// Restore a broker; a storage error restoring it fails the run.
    fn restore_broker(&mut self, broker: usize) {
        if let Err(e) = self.cluster.restore_broker(broker) {
            self.fail(format!("restore broker {broker}: {e}"));
        }
    }

    fn fail(&mut self, msg: String) {
        if self.failures.len() < MAX_FAILURES {
            self.failures.push(msg);
        } else if self.failures.len() == MAX_FAILURES {
            self.failures.push("… further failures suppressed".to_string());
        }
    }

    /// Heal the cluster, restart every instance (fencing all stale
    /// transactions), process to the end of the input, then run the
    /// oracles.
    fn drain_and_check(mut self) -> SimReport {
        self.plan.disable();
        for b in 0..self.workload.brokers {
            if !self.cluster.broker_alive(b) {
                self.restore_broker(b);
            }
        }
        // Drop every live instance abruptly, expire the whole (now silent)
        // membership, and rejoin fresh: restarting under the same instance
        // ids fences every stale transactional producer via its epoch bump.
        for slot in &mut self.slots {
            if let Some(app) = slot.take() {
                app.crash();
            }
        }
        self.clock.advance(SESSION_TIMEOUT_MS + 1);
        let _ = self.cluster.group_expire_members(APP_ID);

        // Close every data window: one high-timestamp sentinel per input
        // partition pushes stream time past `end + grace` everywhere.
        let sentinel_ts = self.max_ts + WINDOW_MS + GRACE_MS + 10_000;
        let mut closer = Producer::new(self.cluster.clone(), ProducerConfig::default());
        for p in 0..self.workload.partitions {
            let sent = closer.send_to_partition(
                &TopicPartition::new("events", p),
                klog::Record {
                    key: Some(SENTINEL_KEY.to_string().to_bytes()),
                    value: Some("v".to_string().to_bytes()),
                    timestamp: sentinel_ts,
                },
            );
            if let Err(e) = sent {
                self.fail(format!("sentinel feed events/{p}: {e}"));
            }
        }
        if let Err(e) = closer.flush() {
            self.fail(format!("sentinel flush: {e}"));
        }

        for idx in 0..self.slots.len() {
            self.slots[idx] = self.spawn_instance(idx);
            if self.slots[idx].is_none() {
                self.fail(format!("instance i{idx} failed to start during drain"));
            }
        }

        let input_tps = self.cluster.partitions_of("events").expect("input topic exists");
        let targets: Vec<(TopicPartition, i64)> = input_tps
            .iter()
            .map(|tp| (tp.clone(), self.cluster.latest_offset(tp).expect("healed cluster")))
            .collect();
        let mut converged = false;
        for _ in 0..MAX_DRAIN_ITERS {
            for idx in 0..self.slots.len() {
                if let Some(app) = self.slots[idx].as_mut() {
                    if let Err(e) = app.step() {
                        self.fail(format!("drain step i{idx}: {e}"));
                        self.slots[idx].take().expect("still present").crash();
                    }
                }
            }
            self.clock.advance(20);
            let done = targets.iter().all(|(tp, target)| {
                self.cluster.group_committed_offset(APP_ID, tp).ok().flatten().unwrap_or(0)
                    >= *target
            });
            if done {
                converged = true;
                break;
            }
        }
        if !converged {
            self.fail(format!(
                "drain did not converge within {MAX_DRAIN_ITERS} iterations (committed input offsets short of log end)"
            ));
        }
        for idx in 0..self.slots.len() {
            if let Some(mut app) = self.slots[idx].take() {
                if let Err(e) = app.close() {
                    self.fail(format!("close i{idx}: {e}"));
                }
            }
        }

        let input = read_topic(&self.cluster, "events");
        let output = read_topic(&self.cluster, "out");
        self.check_oracles(&input, &output);

        let violations = klog::checks::take_violations();
        for v in &violations {
            self.fail(format!("protocol {v}"));
        }
        if self.cfg.inject_failure {
            self.fail("injected failure (--inject-failure)".to_string());
        }

        // Metrics ride along when profiling was requested; the trace tail
        // additionally rides along on any oracle failure so the repro line
        // comes with the events leading up to it.
        let obs = if self.cfg.obs_profile { Some(kobs::snapshot()) } else { None };
        let trace = if self.cfg.obs_profile || !self.failures.is_empty() {
            kobs::trace::tail(TRACE_TAIL)
        } else {
            Vec::new()
        };
        // The commit-cycle critical-path breakdown rides with `--profile`;
        // on any oracle failure the flight recorder's most recent span
        // trees are rendered into the report next to the repro line.
        let critical_path =
            if self.cfg.obs_profile { kobs::ktrace::critical_path_summary() } else { None };
        let flight = if self.failures.is_empty() {
            Vec::new()
        } else {
            // Prefer the newest *multi-span* trees: the close path leaves
            // trivial single-span commit roots at the very end of every
            // run, which carry no timeline worth dumping.
            let all = kobs::ktrace::recent_trees(kobs::ktrace::FLIGHT_RECORDER_TREES);
            let rich: Vec<&kobs::SpanTree> = all.iter().filter(|t| t.len() > 1).collect();
            let pick = if rich.is_empty() { all.iter().collect() } else { rich };
            pick.into_iter()
                .rev()
                .take(FLIGHT_DUMP_TREES)
                .rev()
                .map(kobs::ktrace::render_tree)
                .collect()
        };
        // Read after every kobs view above, so the digest's own topic reads
        // cannot show up in the report's metrics or traces.
        let committed_digest = self.committed_digest();

        SimReport {
            seed: self.cfg.seed,
            steps: self.cfg.steps,
            profile: {
                let mut p = self.workload.profile.name().to_string();
                if self.cfg.profile.is_some() {
                    p.push('!');
                }
                p
            },
            cache_max_entries: self.cfg.cache_max_entries,
            storage: if self.cfg.disk_storage { "disk" } else { "memory" }.to_string(),
            churn: self.cfg.churn,
            brokers: self.workload.brokers,
            partitions: self.workload.partitions,
            n_keys: self.workload.keys.len(),
            instances: self.workload.instances,
            records_fed: self.records_fed,
            feed_errors: self.feed_errors,
            input_records: input.len() as u64,
            output_records: output.len() as u64,
            committed_digest,
            events: self.events,
            fault_counts: self.plan.injection_counts(),
            step_errors: self.step_errors,
            failures: self.failures,
            obs,
            trace,
            critical_path,
            flight,
            inject_failure: self.cfg.inject_failure,
        }
    }

    /// FNV-1a over `(topic, partition, offset, key, value, timestamp)` of
    /// every read-committed record of `out` and of each changelog topic,
    /// each partition in offset order: what the run committed, which
    /// telemetry must not change.
    fn committed_digest(&self) -> u64 {
        let topology = self.workload.profile.topology();
        let changelogs =
            topology.internal_topics.iter().filter(|it| it.name.ends_with("-changelog"));
        let topics = std::iter::once("out".to_string())
            .chain(changelogs.map(|it| format!("{APP_ID}-{}", it.name)));
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for topic in topics.filter(|t| self.cluster.topic_exists(t)) {
            let mut records = read_topic(&self.cluster, &topic);
            records.sort_by_key(|r| (r.partition, r.offset));
            feed(&(topic.len() as u64).to_le_bytes());
            feed(topic.as_bytes());
            for r in &records {
                feed(&r.partition.to_le_bytes());
                feed(&r.offset.to_le_bytes());
                for part in [&r.key, &r.value] {
                    // A length prefix, with u64::MAX for a null, keeps
                    // adjacent fields from running into each other.
                    let len = part.as_ref().map_or(u64::MAX, |b| b.len() as u64);
                    feed(&len.to_le_bytes());
                    feed(part.as_deref().unwrap_or_default());
                }
                feed(&r.timestamp.to_le_bytes());
            }
        }
        hash
    }

    /// The reference model and the three consistency/completeness checks.
    ///
    /// The reference folds over the *actual committed input topic* (not
    /// over what the generator attempted), so generator-side fault
    /// ambiguity cannot skew it. All maps are `BTreeMap` so failure
    /// messages are emitted in a stable order.
    fn check_oracles(&mut self, input: &[ConsumerRecord], output: &[ConsumerRecord]) {
        // Reference input per key and per (key, window).
        let mut per_key: BTreeMap<String, i64> = BTreeMap::new();
        let mut per_window: BTreeMap<(String, i64), i64> = BTreeMap::new();
        for rec in input {
            let key = match String::from_bytes(rec.key.as_deref().unwrap_or_default()) {
                Ok(k) => k,
                Err(e) => {
                    self.fail(format!(
                        "undecodable input key at {}/{}: {e}",
                        rec.partition, rec.offset
                    ));
                    continue;
                }
            };
            if key == SENTINEL_KEY {
                continue;
            }
            *per_key.entry(key.clone()).or_insert(0) += 1;
            let window = (rec.timestamp / WINDOW_MS) * WINDOW_MS;
            *per_window.entry((key, window)).or_insert(0) += 1;
        }

        // Observed committed output sequences. All outputs for one logical
        // key land on one output partition (hash partitioning on the key
        // bytes), and records of one partition arrive in offset order, so
        // each sequence below is the true commit order.
        match self.workload.profile {
            Profile::Count => {
                let mut seqs: BTreeMap<String, Vec<i64>> = BTreeMap::new();
                for rec in output {
                    let (key, value) = match decode_plain(rec) {
                        Ok(kv) => kv,
                        Err(e) => {
                            self.fail(e);
                            continue;
                        }
                    };
                    if key == SENTINEL_KEY {
                        continue;
                    }
                    seqs.entry(key).or_default().push(value);
                }
                self.check_sequences(&per_key, seqs, "key");
            }
            Profile::Windowed => {
                let Some(seqs) = self.windowed_sequences(output) else { return };
                let reference: BTreeMap<String, i64> =
                    per_window.iter().map(|((k, w), n)| (format!("{k}@{w}"), *n)).collect();
                self.check_sequences(&reference, seqs, "window");
            }
            Profile::Suppressed => {
                let Some(seqs) = self.windowed_sequences(output) else { return };
                // Exactly one final result per closed window (§5): the
                // sentinel closed every data window, so every reference
                // window must emit once, with the complete count.
                for ((key, window), expected) in &per_window {
                    let label = format!("{key}@{window}");
                    match seqs.get(&label) {
                        Some(seq) if seq.as_slice() == [*expected] => {}
                        Some(seq) => self.fail(format!(
                            "suppressed window {label}: expected single final [{expected}], got {seq:?}"
                        )),
                        None => self.fail(format!(
                            "suppressed window {label}: no final result emitted (expected {expected})"
                        )),
                    }
                }
                for label in seqs.keys() {
                    let known = per_window.iter().any(|((k, w), _)| format!("{k}@{w}") == *label);
                    if !known {
                        self.fail(format!("suppressed window {label}: output for unknown window"));
                    }
                }
            }
        }
    }

    /// Decode windowed outputs into per-`key@window` value sequences,
    /// excluding the sentinel key.
    fn windowed_sequences(
        &mut self,
        output: &[ConsumerRecord],
    ) -> Option<BTreeMap<String, Vec<i64>>> {
        let mut seqs: BTreeMap<String, Vec<i64>> = BTreeMap::new();
        for rec in output {
            let wk = match Windowed::<String>::from_bytes(rec.key.as_deref().unwrap_or_default()) {
                Ok(wk) => wk,
                Err(e) => {
                    self.fail(format!(
                        "undecodable windowed output key at {}/{}: {e}",
                        rec.partition, rec.offset
                    ));
                    return None;
                }
            };
            if wk.key == SENTINEL_KEY {
                continue;
            }
            let value = match i64::from_bytes(rec.value.as_deref().unwrap_or_default()) {
                Ok(v) => v,
                Err(e) => {
                    self.fail(format!(
                        "undecodable output value at {}/{}: {e}",
                        rec.partition, rec.offset
                    ));
                    return None;
                }
            };
            seqs.entry(format!("{}@{}", wk.key, wk.window_start)).or_default().push(value);
        }
        Some(seqs)
    }

    /// Exactly-once + completeness for revision streams.
    ///
    /// Without record caches the committed sequence per entity must be
    /// exactly `1..=n` (duplicates repeat, losses gap, reorders step
    /// backwards) and therefore end at the in-order reference total `n`.
    ///
    /// With record caches enabled, same-key revisions within a commit
    /// interval collapse to the last one, so the committed sequence is some
    /// *strictly increasing subsequence of `1..=n`* that still ends at `n`:
    /// duplicates and reorders still step backwards (caught), losses past
    /// the last commit still gap at the tail (caught), and the final
    /// revision — the consistency/completeness claim — is unchanged.
    fn check_sequences(
        &mut self,
        reference: &BTreeMap<String, i64>,
        observed: BTreeMap<String, Vec<i64>>,
        entity: &str,
    ) {
        let cached = self.cfg.cache_max_entries > 0;
        for (label, &n) in reference {
            match observed.get(label) {
                Some(seq) if !cached => {
                    let expected: Vec<i64> = (1..=n).collect();
                    if seq != &expected {
                        self.fail(format!(
                            "{entity} {label}: exactly-once violated — expected 1..={n}, got {seq:?}"
                        ));
                    }
                }
                Some(seq) => {
                    let increasing = seq.windows(2).all(|w| w[0] < w[1]);
                    let in_range = seq.iter().all(|&v| (1..=n).contains(&v));
                    if !increasing || !in_range || seq.last() != Some(&n) {
                        self.fail(format!(
                            "{entity} {label}: cached exactly-once violated — expected a strictly \
                             increasing subsequence of 1..={n} ending at {n}, got {seq:?}"
                        ));
                    }
                }
                None => self.fail(format!(
                    "{entity} {label}: completeness violated — no output (expected final {n})"
                )),
            }
        }
        for label in observed.keys() {
            if !reference.contains_key(label) {
                self.fail(format!("{entity} {label}: output for unknown {entity}"));
            }
        }
    }
}

/// Read a whole topic with a fault-free, read-committed consumer. Records
/// of one partition appear in offset order.
fn read_topic(cluster: &Cluster, topic: &str) -> Vec<ConsumerRecord> {
    let mut consumer =
        Consumer::new(cluster.clone(), "sim-oracle", ConsumerConfig::default().read_committed());
    consumer.assign(cluster.partitions_of(topic).expect("topic exists")).expect("healed cluster");
    let mut out = Vec::new();
    loop {
        let batch = consumer.poll().expect("healed cluster");
        if batch.is_empty() {
            break;
        }
        out.extend(batch);
    }
    out
}

fn decode_plain(rec: &ConsumerRecord) -> Result<(String, i64), String> {
    let key = String::from_bytes(rec.key.as_deref().unwrap_or_default())
        .map_err(|e| format!("undecodable output key at {}/{}: {e}", rec.partition, rec.offset))?;
    let value = i64::from_bytes(rec.value.as_deref().unwrap_or_default()).map_err(|e| {
        format!("undecodable output value at {}/{}: {e}", rec.partition, rec.offset)
    })?;
    Ok((key, value))
}
