//! One application instance: group membership, task ownership, and the
//! commit loop (§3.3, §4.3).
//!
//! In **exactly-once** mode the instance owns one transactional producer
//! (EOS-v2, Kafka 2.6: "the number of transactional producers … only
//! increases with the total number of Kafka Streams threads", §6.1). Every
//! commit interval it atomically commits, in one Kafka transaction:
//! 1. all sink-topic records its tasks produced,
//! 2. all state-store changelog appends,
//! 3. all consumed input offsets (`send_offsets_to_transaction`).
//!
//! In **at-least-once** mode outputs are flushed first and offsets are then
//! committed non-transactionally — a crash between the two replays input
//! (§3.3's duplicate scenario), which tests demonstrate.
//!
//! Rebalances are detected at poll time via the group generation; revoked
//! tasks are dropped (their state is disposable) and newly assigned tasks
//! are rebuilt by changelog replay. A *zombie* instance — one that lost its
//! membership or whose transactional producer was fenced — gets a
//! [`StreamsError::Fenced`] / `IllegalGeneration` error and must stop,
//! never corrupting committed results (§2.1, §4.2.1).

use crate::assignment::{
    decode_group_metadata, encode_member_metadata, plan_assignment, AssignmentPlan,
};
use crate::config::{ProcessingGuarantee, StreamsConfig};
use crate::error::StreamsError;
use crate::metrics::StreamsMetrics;
use crate::standby::{assign_standbys, StandbyTask};
use crate::task::StreamTask;
use crate::topology::{TaskId, Topology};
use bytes::Bytes;
use kbroker::group::GroupView;
use kbroker::producer::{Producer, ProducerConfig};
use kbroker::{Cluster, IsolationLevel, TopicConfig};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// What one [`KafkaStreamsApp::step`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepSummary {
    /// Input records processed this step.
    pub processed: usize,
    /// Whether a commit happened this step.
    pub committed: bool,
}

/// One instance of a streams application (one "thread" in the paper's
/// terms; deploy several with the same `app_id` for §3.3's distributed
/// execution).
pub struct KafkaStreamsApp {
    cluster: Cluster,
    topology: Arc<Topology>,
    config: StreamsConfig,
    /// Shared, so a trace field clones it without allocating.
    instance_id: Arc<str>,
    producer: Producer,
    generation: i32,
    /// Every task of the topology, in id order. Resolved once by `start`:
    /// the cluster cannot add partitions to a topic.
    task_set: Vec<TaskId>,
    /// What this instance hosts, one role per task id. A BTreeMap, not a
    /// HashMap: task iteration order feeds processing, flush, and commit
    /// order, all of which must replay byte-identically.
    tasks: BTreeMap<TaskId, Hosted>,
    /// A rebalance this instance wants (released a task, or a warm-up
    /// became ready). Fired at the end of the step, *after* the step's
    /// commit — a mid-cycle generation bump would abort our own in-flight
    /// work.
    pending_rebalance_request: bool,
    last_commit_ms: i64,
    txn_open: bool,
    started: bool,
    /// Metrics of tasks that were revoked (so totals are cumulative).
    retired_metrics: StreamsMetrics,
    /// [`Self::metrics`] as of the last commit: how much of this
    /// instance's counts the registry's `kstreams.*` counters have heard.
    published: StreamsMetrics,
    commit_cycles: u64,
    transactions: u64,
    /// Process cycles run so far (the cycle span's `n`).
    cycles: u64,
}

/// An instance's one role for one task.
enum Hosted {
    /// Processing, and contributing its offsets to every commit.
    Active(StreamTask),
    /// Owned, but its changelog replay could not reach the log end — a
    /// zombie producer's open transaction pins the last-stable offset below
    /// committed records. Parked (no processing, no offsets contributed)
    /// and retried every step until the replay catches up.
    Restoring(StreamTask),
    /// A replica tailing the task's changelogs: a configured standby
    /// (`warmup: None`), or a warm-up for a deferred cooperative transfer
    /// this instance is the target of, holding whether it was last reported
    /// warm to the group coordinator.
    Replica { task: StandbyTask, warmup: Option<bool> },
}

impl Hosted {
    fn active(&self) -> Option<&StreamTask> {
        match self {
            Hosted::Active(task) => Some(task),
            _ => None,
        }
    }

    fn active_mut(&mut self) -> Option<&mut StreamTask> {
        match self {
            Hosted::Active(task) => Some(task),
            _ => None,
        }
    }

    /// The task, if this instance owns it (active or parked).
    fn owned(&self) -> Option<&StreamTask> {
        match self {
            Hosted::Active(task) | Hosted::Restoring(task) => Some(task),
            Hosted::Replica { .. } => None,
        }
    }
}

/// The role a plan gives this instance for a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Active,
    Warmup,
    Standby,
}

impl KafkaStreamsApp {
    pub fn new(
        cluster: Cluster,
        topology: Arc<Topology>,
        config: StreamsConfig,
        instance_id: impl Into<String>,
    ) -> Self {
        let instance_id: Arc<str> = instance_id.into().into();
        let producer_config = match config.guarantee {
            ProcessingGuarantee::ExactlyOnce => {
                // One transactional id per instance (EOS-v2). Includes the
                // app id so epochs fence *incarnations of this instance*.
                ProducerConfig::transactional(format!("{}-{}", config.application_id, instance_id))
                    .with_batch_size(config.producer_batch_size)
            }
            ProcessingGuarantee::AtLeastOnce => ProducerConfig {
                idempotent: false,
                transactional_id: None,
                batch_size: config.producer_batch_size,
                ..ProducerConfig::default()
            },
        };
        let producer = Producer::new(cluster.clone(), producer_config);
        Self {
            cluster,
            topology,
            config,
            instance_id,
            producer,
            generation: 0,
            task_set: Vec::new(),
            tasks: BTreeMap::new(),
            pending_rebalance_request: false,
            last_commit_ms: 0,
            txn_open: false,
            started: false,
            retired_metrics: StreamsMetrics::default(),
            published: StreamsMetrics::default(),
            commit_cycles: 0,
            transactions: 0,
            cycles: 0,
        }
    }

    fn app_id(&self) -> &str {
        &self.config.application_id
    }

    /// The instance id (group member id).
    pub fn instance_id(&self) -> &str {
        &self.instance_id
    }

    /// Task ids currently owned.
    pub fn task_ids(&self) -> Vec<TaskId> {
        self.ids(|h| matches!(h, Hosted::Active(_)))
    }

    /// Ids of the hosted tasks whose entry satisfies `f`, in id order.
    fn ids(&self, f: impl Fn(&Hosted) -> bool) -> Vec<TaskId> {
        self.tasks.iter().filter(|(_, h)| f(h)).map(|(id, _)| *id).collect()
    }

    fn consume_isolation(&self) -> IsolationLevel {
        match self.config.guarantee {
            // EOS tasks read only committed data from (possibly
            // transactional) upstream topics (§4.2.3).
            ProcessingGuarantee::ExactlyOnce => IsolationLevel::ReadCommitted,
            ProcessingGuarantee::AtLeastOnce => IsolationLevel::ReadUncommitted,
        }
    }

    /// Every task of the topology in id order — one per partition of each
    /// sub-topology's sources — creating internal topics in the process
    /// (§3.3).
    fn plan_tasks(&self) -> Result<Vec<TaskId>, StreamsError> {
        // Default partition count for repartition topics: the max partition
        // count among external source topics.
        let mut default_parts = 1;
        let sources = self.topology.subtopologies.iter().flat_map(|st| &st.source_topics);
        for t in sources.filter(|t| !t.internal) {
            default_parts = default_parts.max(self.cluster.partition_count(&t.name)?);
        }
        // Create repartition topics first (they are sub-topology sources).
        for it in &self.topology.internal_topics {
            if it.name.ends_with("-changelog") {
                continue;
            }
            let physical = format!("{}-{}", self.app_id(), it.name);
            let parts = it.partitions.unwrap_or(default_parts);
            let mut cfg = TopicConfig::new(parts);
            cfg.compacted = it.compacted;
            self.cluster.create_topic(&physical, cfg)?;
        }
        // Task count per sub-topology = partitions of its source topics
        // (which must agree).
        let mut counts = BTreeMap::new();
        for (si, st) in self.topology.subtopologies.iter().enumerate() {
            let mut count: Option<u32> = None;
            for t in &st.source_topics {
                let parts = self.cluster.partition_count(&t.resolve(self.app_id()))?;
                if let Some(c) = count.replace(parts).filter(|&c| c != parts) {
                    return Err(StreamsError::InvalidTopology(format!(
                        "sub-topology {si} reads co-partitioned topics with \
                         mismatched partition counts ({c} vs {parts})"
                    )));
                }
            }
            counts.insert(si, count.expect("sub-topologies have sources"));
        }
        // Changelog topics: one partition per task of the owning
        // sub-topology.
        for (store, (spec, si)) in &self.topology.stores {
            if spec.changelog {
                let physical = format!("{}-{}", self.app_id(), Topology::changelog_topic(store));
                self.cluster.create_topic(&physical, TopicConfig::new(counts[si]).compacted())?;
            }
        }
        let task = |(subtopology, parts)| {
            (0..parts).map(move |partition| TaskId { subtopology, partition })
        };
        Ok(counts.into_iter().flat_map(task).collect())
    }

    /// Join the group, create internal topics, build and restore assigned
    /// tasks, and (in exactly-once mode) register the transactional
    /// producer — fencing any previous incarnation of this instance
    /// (§4.2.1).
    pub fn start(&mut self) -> Result<(), StreamsError> {
        // Static verification gate: refuse to run a topology with
        // error-severity diagnostics (definite defects — see
        // `crate::analyze`).
        let errors: Vec<String> = self
            .topology
            .verify_with(&self.config)
            .into_iter()
            .filter(|d| d.severity == crate::analyze::Severity::Error)
            .map(|d| d.to_string())
            .collect();
        if !errors.is_empty() {
            return Err(StreamsError::InvalidTopology(format!(
                "topology failed static verification:\n{}",
                errors.join("\n")
            )));
        }
        if self.config.guarantee == ProcessingGuarantee::ExactlyOnce {
            self.producer.init_transactions()?;
        }
        if self.config.rebalance_debounce_ms > 0 {
            self.cluster
                .group_set_rebalance_debounce_ms(self.app_id(), self.config.rebalance_debounce_ms);
        }
        self.task_set = self.plan_tasks()?;
        let view = self.cluster.group_join(self.app_id(), &self.instance_id, &[])?;
        self.generation = view.generation;
        let plan = self.compute_plan(&view);
        self.reconcile(&plan)?;
        self.last_commit_ms = self.cluster.now_ms();
        self.started = true;
        Ok(())
    }

    /// Compute this generation's cooperative plan from the frozen group
    /// view (identical on every member — no leader election).
    fn compute_plan(&self, view: &GroupView) -> AssignmentPlan {
        let (previous, warm) = decode_group_metadata(&view.member_metadata);
        plan_assignment(&self.task_set, &view.members, &previous, &warm)
    }

    /// Apply this instance's share of the plan to the task table. An id's
    /// target role is active (unless *released*: its destination is warm),
    /// else warm-up, else standby. Owned tasks without an active target
    /// retire first; then, in id order, new actives activate and replicas
    /// keep their stores (creating one has no effect outside the table).
    /// Publishes the resulting ownership for the next generation's view.
    fn reconcile(&mut self, plan: &AssignmentPlan) -> Result<(), StreamsError> {
        let me = &*self.instance_id;
        let mine = |by_member: &BTreeMap<String, Vec<TaskId>>| by_member.get(me).cloned();
        let releases = mine(&plan.releases).unwrap_or_default();
        if !releases.is_empty() {
            kobs::count("kstreams.rebalance.tasks_released", releases.len() as u64);
            // The handover rebalance fires at the end of this step, after
            // the step's own commit — never mid-cycle.
            self.pending_rebalance_request = true;
        }
        let standbys = assign_standbys(&plan.active, self.config.num_standby_replicas);
        let mut target = BTreeMap::new();
        target.extend(mine(&standbys).into_iter().flatten().map(|id| (id, Role::Standby)));
        target.extend(mine(&plan.warmups).into_iter().flatten().map(|id| (id, Role::Warmup)));
        let active = mine(&plan.active).into_iter().flatten().filter(|id| !releases.contains(id));
        target.extend(active.map(|id| (id, Role::Active)));
        for id in self.ids(|h| h.owned().is_some()) {
            if target.get(&id) != Some(&Role::Active) {
                self.retire(id, "kstreams.rebalance.tasks_revoked");
            }
        }
        self.tasks.retain(|id, _| target.contains_key(id));
        let mut kept = 0;
        for (id, role) in target {
            let hosted = match (role, self.tasks.remove(&id)) {
                (Role::Active, Some(sticky)) if sticky.owned().is_some() => {
                    kept += 1; // keep state and positions
                    sticky
                }
                (Role::Active, held) => {
                    kobs::count("kstreams.rebalance.tasks_moved_in", 1);
                    self.activate(id, held)?
                }
                (Role::Warmup, Some(warmup @ Hosted::Replica { warmup: Some(_), .. })) => warmup,
                (role, held) => {
                    let task = match held {
                        Some(Hosted::Replica { task, .. }) => task, // kept: a replica is warm
                        _ => StandbyTask::new(&self.topology, id, self.app_id())?,
                    };
                    if role == Role::Warmup {
                        kobs::count("kstreams.rebalance.warmups_started", 1);
                    }
                    Hosted::Replica { task, warmup: (role == Role::Warmup).then_some(false) }
                }
            };
            self.tasks.insert(id, hosted);
        }
        if kept > 0 {
            kobs::count("kstreams.rebalance.tasks_kept", kept);
        }
        self.publish_metadata()
    }

    /// Report current task ownership (and warm-up readiness) to the group
    /// coordinator. No generation bump: the metadata is frozen into the
    /// view at the next rebalance, as the assignor's `previous`/`warm`
    /// inputs.
    fn publish_metadata(&self) -> Result<(), StreamsError> {
        // Restoring tasks are owned too — they are assigned to us, merely
        // not yet caught up; the assignor must keep them sticky.
        let owned = self.ids(|h| h.owned().is_some());
        let warm = self.ids(|h| matches!(h, Hosted::Replica { warmup: Some(true), .. }));
        let metadata = encode_member_metadata(&owned, &warm);
        Ok(self.cluster.group_update_metadata(self.app_id(), &self.instance_id, &metadata)?)
    }

    /// The one activation path: load spills → committed starts → restore →
    /// `Active`, or `Restoring` while the replay cannot reach the log end.
    /// A parked restore (`held`) retries as it is — replay is an idempotent
    /// upsert. Otherwise a new task adopts a held replica's warm stores, so
    /// only the changelog suffix past its positions replays (§3.3).
    fn activate(&self, id: TaskId, held: Option<Hosted>) -> Result<Hosted, StreamsError> {
        let (mut task, parked) = match held {
            Some(Hosted::Restoring(task)) => (task, true),
            held => {
                let cache = self.config.cache_max_entries;
                let mut task = StreamTask::with_cache(&self.topology, id, self.app_id(), cache)?;
                if let Some(Hosted::Replica { task: replica, .. }) = held {
                    let (stores, positions) = replica.into_parts();
                    task.adopt_warm_stores(stores, positions);
                }
                // Durable warm start: load post-commit spills (if
                // configured) so restore replays only the changelog suffix
                // above each spill's watermark.
                if let Some(dir) = &self.config.state_dir {
                    task.load_spills(dir);
                }
                (task, false)
            }
        };
        // Committed input offsets drive both the starting positions and
        // the restore bound of source-as-changelog stores.
        let mut starts = HashMap::new();
        for tp in task.input_partitions() {
            let committed = self.cluster.group_committed_offset(self.app_id(), &tp)?;
            let start = committed.unwrap_or_else(|| self.cluster.earliest_offset(&tp).unwrap_or(0));
            starts.insert(tp, start);
        }
        if !task.restore(&self.cluster, self.consume_isolation(), &starts)? {
            // The changelog has committed records the replay could not
            // reach (LSO pinned by a zombie transaction). Activating now
            // would process new input against stale state — park the task
            // and retry once the pending transaction resolves.
            if !parked {
                kobs::count("kstreams.restore.stalled", 1);
            }
            return Ok(Hosted::Restoring(task));
        }
        for (tp, start) in &starts {
            task.set_position(tp, *start);
        }
        if parked {
            kobs::count("kstreams.restore.resumed", 1);
        }
        Ok(Hosted::Active(task))
    }

    /// Drop an owned task, active or parked, keeping its metrics in the
    /// instance's cumulative totals and counting the event under `counter`.
    fn retire(&mut self, id: TaskId, counter: &str) {
        if let Some(Hosted::Active(task) | Hosted::Restoring(task)) = self.tasks.remove(&id) {
            self.retired_metrics.merge(task.metrics());
            kobs::count(counter, 1);
        }
    }

    /// Detect and apply a rebalance; returns true if membership changed.
    fn check_rebalance(&mut self) -> Result<bool, StreamsError> {
        let view = self.cluster.group_view(self.app_id(), &self.instance_id)?;
        if view.generation == self.generation {
            return Ok(false);
        }
        let rebalance_start = self.cluster.now_ms();
        let from_generation = self.generation;
        let plan = self.compute_plan(&view);
        // Commit what we have before adopting the new assignment. Two
        // cases:
        //
        // * Every dirty task is one the new plan *retains* on this
        //   instance (the common case — only released/expired tasks ever
        //   leave a live owner). Then the in-flight work is safe to keep:
        //   no other member can own those tasks in the new generation, so
        //   we *rejoin first* (adopt the new generation number) and commit
        //   under it. Unaffected tasks never lose work to a rebalance.
        //   Tasks that are leaving but clean — parked ones included — retire
        //   before the commit so their (possibly stale) offsets are not
        //   re-committed over a new owner's progress.
        //
        // * Some dirty task is leaving us (we were expelled and
        //   re-admitted). Its work cannot be committed — the commit
        //   carries our stale generation, the broker fences it, and every
        //   dirty task closes, rebuilding from committed changelogs and
        //   offsets so nothing half-processed leaks through.
        let active = plan.active.get(&*self.instance_id).cloned().unwrap_or_default();
        let dirty = self.ids(|h| h.owned().is_some_and(StreamTask::is_dirty));
        for id in self.ids(|h| h.owned().is_some()) {
            if !active.contains(&id) && !dirty.contains(&id) {
                self.retire(id, "kstreams.rebalance.tasks_revoked");
            }
        }
        if dirty.iter().all(|id| active.contains(id)) {
            self.generation = view.generation;
        }
        self.commit_or_dirty_close()?;
        kobs::event!(
            rebalance_start,
            "kstreams",
            "rebalance_applied",
            instance = self.instance_id.clone(),
            from_generation = from_generation,
            to_generation = view.generation,
        );
        kobs::gauge_max("kstreams.rebalance_generation", view.generation as i64);
        self.generation = view.generation;
        let span = kobs::span!(
            rebalance_start,
            "kstreams",
            "rebalance",
            instance = self.instance_id.clone(),
            to_generation = view.generation,
        );
        let entered = kobs::ktrace::enter(span);
        let applied = self.reconcile(&plan);
        drop(entered);
        kobs::ktrace::finish_span(span, self.cluster.now_ms() * 1000);
        applied?;
        // Pause time this instance spent applying the rebalance (commit/
        // abort + restore of moved-in tasks); unaffected tasks resume in the
        // same step, so under cooperative rebalancing this stays near the
        // plain commit cost.
        kobs::observe("kstreams.rebalance.pause_ms", self.cluster.now_ms() - rebalance_start);
        Ok(true)
    }

    /// One poll-process-(maybe commit) round. Returns what happened.
    pub fn step(&mut self) -> Result<StepSummary, StreamsError> {
        if !self.started {
            return Err(StreamsError::InvalidOperation("call start() first".into()));
        }
        self.check_rebalance()?;
        // Root ktrace span: one causal tree per process cycle. Everything
        // this step triggers — task cycles, the commit phases, the broker
        // txn coordinator, klog appends — parents under it, which is what
        // the critical-path analyzer and the flight recorder consume.
        let cycle_span = kobs::span!(
            self.cluster.now_ms(),
            "kstreams",
            "cycle",
            instance = self.instance_id.clone(),
            n = self.cycles,
        );
        let entered = kobs::ktrace::enter(cycle_span);
        let result = self.step_inner();
        drop(entered);
        // A cycle that recorded nothing under its root leaves no tree.
        kobs::ktrace::finish_or_discard(cycle_span, self.cluster.now_ms() * 1000);
        result
    }

    fn step_inner(&mut self) -> Result<StepSummary, StreamsError> {
        // Parked restores retry first, so one that catches up runs now.
        for id in self.ids(|h| matches!(h, Hosted::Restoring(_))) {
            let parked = self.tasks.remove(&id);
            self.tasks.insert(id, self.activate(id, parked)?);
        }
        let isolation = self.consume_isolation();
        // Tasks run one after another in task-id order. A task's cycle
        // (fetch, process, punctuate) mutates only the task; if it
        // succeeded, its writes are drained into the instance's single
        // EOS-v2 producer at once, before the next task runs. A task that
        // failed is not drained, the others still run and drain, and the
        // step fails with the first error in task-id order.
        let Self { tasks, producer, txn_open, config, cluster, .. } = self;
        let wall_ms = cluster.now_ms();
        let mut processed = 0;
        let mut first_error = None;
        for task in tasks.values_mut().filter_map(Hosted::active_mut) {
            let cycled = task
                .run_cycle(cluster, config.max_poll_records, isolation, wall_ms)
                .and_then(|n| {
                    Self::send_task_writes(producer, txn_open, config, cluster, task)?;
                    Ok(n)
                });
            match cycled {
                Ok(n) => processed += n,
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        self.cycles += 1;
        // Replicas tail their changelogs (pure replay; no output, no
        // commit, no effect on semantics). Once a warm-up catches up to
        // within `MAX_WARMUP_LAG`, readiness is reported and the transfer
        // generation requested.
        for hosted in self.tasks.values_mut() {
            if let Hosted::Replica { task, .. } = hosted {
                let applied = task.poll(&self.cluster, isolation)?;
                self.retired_metrics.standby_records_applied += applied;
            }
        }
        // Even an all-filtered cycle advances input offsets, which must be
        // committed through the transaction.
        if processed > 0 {
            Self::begin_txn_if_needed(&mut self.producer, &mut self.txn_open, &self.config)?;
        }
        // Send eagerly every cycle (linger = 0) in both modes, so batching
        // behaviour is identical and the EOS/ALOS comparison isolates the
        // transactional protocol cost. At-least-once outputs become visible
        // as soon as they replicate — flat latency in Figure 5; exactly-once
        // outputs stay invisible until the commit marker regardless.
        self.producer.flush()?;
        let now = self.cluster.now_ms();
        let committed = if now - self.last_commit_ms >= self.config.commit_interval_ms {
            // A concurrent member join can bump the generation between this
            // step's rebalance check and the commit; treat it like any
            // overtaken commit (abort + dirty close; the next step adopts
            // the new assignment).
            self.commit_or_dirty_close()?;
            true
        } else {
            false
        };
        // Warm-up readiness and release handovers trigger rebalances only
        // here, after the step's commit: a mid-cycle generation bump would
        // abort the very work this step just processed.
        self.maybe_report_warmth()?;
        if self.pending_rebalance_request {
            self.pending_rebalance_request = false;
            self.cluster.group_request_rebalance(self.app_id(), &self.instance_id)?;
        }
        Ok(StepSummary { processed, committed })
    }

    /// Maximum changelog replay lag (records) at which a warming standby is
    /// reported *warm* and its deferred task transfer may proceed — the
    /// KIP-441-style `acceptable.recovery.lag` analog. Until then the task
    /// stays with its previous owner, which keeps processing and committing
    /// it (cooperative rebalancing).
    const MAX_WARMUP_LAG: i64 = 10_000;

    /// If the set of warm-enough warm-ups changed, publish it and — when
    /// something *became* warm — ask the coordinator for the transfer
    /// rebalance. The assignor recomputes the same sticky target on every
    /// member; with the destination now warm, the deferred move applies.
    fn maybe_report_warmth(&mut self) -> Result<(), StreamsError> {
        let (mut changed, mut newly_ready) = (false, 0);
        for hosted in self.tasks.values_mut() {
            if let Hosted::Replica { task, warmup: Some(reported) } = hosted {
                let ready = task.replay_lag(&self.cluster) <= Self::MAX_WARMUP_LAG;
                changed |= ready != *reported;
                newly_ready += u64::from(ready && !*reported);
                *reported = ready;
            }
        }
        if changed {
            self.publish_metadata()?;
        }
        if newly_ready > 0 {
            kobs::count("kstreams.rebalance.warmups_ready", newly_ready);
            self.cluster.group_request_rebalance(self.app_id(), &self.instance_id)?;
        }
        Ok(())
    }

    fn begin_txn_if_needed(
        producer: &mut Producer,
        txn_open: &mut bool,
        config: &StreamsConfig,
    ) -> Result<(), StreamsError> {
        if config.guarantee == ProcessingGuarantee::ExactlyOnce && !*txn_open {
            producer.begin_transaction()?;
            *txn_open = true;
        }
        Ok(())
    }

    /// Drain one task's buffered sink outputs and changelog appends into the
    /// producer, opening a transaction first if anything is pending. Takes
    /// the instance's fields one by one so it can run while the task map is
    /// borrowed.
    fn send_task_writes(
        producer: &mut Producer,
        txn_open: &mut bool,
        config: &StreamsConfig,
        cluster: &Cluster,
        task: &mut StreamTask,
    ) -> Result<(), StreamsError> {
        let outputs = task.take_outputs();
        let changelog = task.take_changelog();
        if outputs.is_empty() && changelog.is_empty() {
            return Ok(());
        }
        Self::begin_txn_if_needed(producer, txn_open, config)?;
        for out in outputs {
            let tp = task.sink_partition(cluster, out.sink, out.key.as_deref())?;
            producer.send_to_partition(
                tp,
                klog::Record { key: out.key, value: out.value, timestamp: out.ts },
            )?;
        }
        let now_ms = cluster.now_ms();
        for (tp, key, value) in changelog {
            producer.send_to_partition(
                &tp,
                klog::Record { key: Some(key), value, timestamp: now_ms },
            )?;
        }
        Ok(())
    }

    /// Commit the current cycle: the read-process-write atomicity point
    /// (§4.2).
    pub fn commit(&mut self) -> Result<(), StreamsError> {
        let commit_start = self.cluster.now_ms();
        // Child of the cycle span when called from `step` (the causal link
        // from commit cycle to the broker txn spans below); its own root
        // on the close/rebalance paths.
        let commit_span = kobs::child_span!(commit_start, "kstreams", "commit");
        let entered = kobs::ktrace::enter(commit_span);
        let result = self.commit_inner();
        drop(entered);
        kobs::ktrace::finish_span(commit_span, self.cluster.now_ms() * 1000);
        result
    }

    fn commit_inner(&mut self) -> Result<(), StreamsError> {
        let commit_start = self.cluster.now_ms();
        // Write back record caches first: the flushed changelog appends,
        // coalesced revisions, and any sink outputs they produce must enter
        // the transaction *before* its offsets are sent, so they commit
        // atomically with the inputs that produced them (§4.2 atomicity of
        // the §6.2 caching layer).
        let now_ms = self.cluster.now_ms();
        let Self { tasks, producer, txn_open, config, cluster, .. } = self;
        for task in tasks.values_mut().filter_map(Hosted::active_mut) {
            task.flush_caches(now_ms)?;
            Self::send_task_writes(producer, txn_open, config, cluster, task)?;
        }
        let active = self.tasks.values().filter_map(Hosted::active);
        let mut offsets: Vec<_> = active.flat_map(StreamTask::committable_offsets).collect();
        offsets.sort_by(|a, b| a.0.cmp(&b.0));
        match self.config.guarantee {
            ProcessingGuarantee::ExactlyOnce => {
                if self.txn_open {
                    let off_span = kobs::child_span!(
                        self.cluster.now_ms(),
                        "kstreams",
                        "offset_commit",
                        partitions = offsets.len(),
                    );
                    let entered = kobs::ktrace::enter(off_span);
                    let sent = self.producer.send_offsets_to_transaction(
                        &self.config.application_id,
                        &offsets,
                        Some((&self.instance_id, self.generation)),
                    );
                    drop(entered);
                    kobs::ktrace::finish_span(off_span, self.cluster.now_ms() * 1000);
                    sent?;
                    // The two-phase commit itself: prepare/markers/complete
                    // spans emitted broker-side parent under the commit span.
                    self.producer.commit_transaction()?;
                    self.txn_open = false;
                    self.transactions += 1;
                }
            }
            ProcessingGuarantee::AtLeastOnce => {
                // Flush outputs and state first, then commit progress —
                // the ordering whose failure window yields at-least-once
                // duplicates (§3.3).
                self.producer.flush()?;
                if !offsets.is_empty() {
                    self.cluster.group_commit_offsets(
                        self.app_id(),
                        &self.instance_id,
                        self.generation,
                        &offsets,
                    )?;
                }
            }
        }
        // Spill store contents now that the commit is durable: the spill
        // and its changelog watermark describe exactly the committed state,
        // so a crash between here and the next commit warm-starts from this
        // point instead of replaying the changelog from the beginning.
        if let Some(dir) = self.config.state_dir.clone() {
            for task in self.tasks.values().filter_map(Hosted::active) {
                task.spill_stores(&dir, &self.cluster)?;
            }
        }
        // Everything buffered is now durable: each task's in-memory state
        // equals its committed state, so a later aborted generation can keep
        // these tasks alive (see `commit_or_dirty_close`).
        for task in self.tasks.values_mut().filter_map(Hosted::active_mut) {
            task.mark_clean();
        }
        self.commit_cycles += 1;
        self.last_commit_ms = self.cluster.now_ms();
        // The commit cycle's duration on the cluster clock: real time on a
        // wall clock; 0 on a virtual clock, which nothing in the cycle
        // advances.
        kobs::observe("kstreams.commit_cycle_ms", self.last_commit_ms - commit_start);
        let m = self.metrics();
        m.count_since(&self.published, kobs::global());
        self.published = m;
        Ok(())
    }

    /// Run until no task makes progress for `idle_rounds` consecutive steps
    /// (test/demo convenience; commits on exit).
    pub fn run_until_idle(&mut self, idle_rounds: usize) -> Result<(), StreamsError> {
        let mut idle = 0;
        while idle < idle_rounds {
            if self.step()?.processed == 0 {
                idle += 1;
            } else {
                idle = 0;
            }
        }
        self.commit()
    }

    /// Commit, tolerating a rebalance that has already overtaken this
    /// instance's generation: in that case the in-flight work cannot be
    /// committed — abort it and close *dirty* tasks (those with uncommitted
    /// processing), so their work is reprocessed from committed
    /// changelogs/offsets by whoever owns them next. Clean tasks — whose
    /// in-memory state equals their last committed state — stay alive; with
    /// cooperative rebalancing they are exactly the unaffected tasks, which
    /// therefore keep state and positions straight through the rebalance.
    /// Nothing half-processed leaks through either way.
    fn commit_or_dirty_close(&mut self) -> Result<(), StreamsError> {
        match self.commit() {
            Ok(()) => Ok(()),
            Err(StreamsError::Broker(kbroker::BrokerError::IllegalGeneration { .. })) => {
                if self.txn_open {
                    self.producer.abort_transaction()?;
                    self.txn_open = false;
                }
                for id in self.ids(|h| h.owned().is_some_and(StreamTask::is_dirty)) {
                    self.retire(id, "kstreams.rebalance.dirty_closed");
                }
                self.last_commit_ms = self.cluster.now_ms();
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Graceful shutdown: final commit and group leave.
    pub fn close(&mut self) -> Result<(), StreamsError> {
        if !self.started {
            return Ok(());
        }
        self.commit_or_dirty_close()?;
        match self.cluster.group_leave(self.app_id(), &self.instance_id) {
            Ok(()) | Err(kbroker::BrokerError::UnknownMember { .. }) => {}
            Err(e) => return Err(e.into()),
        }
        self.started = false;
        Ok(())
    }

    /// Simulate a crash: all in-memory state and uncommitted work vanish;
    /// the group membership lingers until the session times out (exactly
    /// the §2.1 processor-failure scenario). Consumes the instance.
    pub fn crash(self) {
        // Nothing to do: dropping without commit/leave *is* the crash.
    }

    /// Aggregated metrics across owned (active or parked) and retired
    /// tasks.
    pub fn metrics(&self) -> StreamsMetrics {
        let mut m = self.retired_metrics;
        for t in self.tasks.values().filter_map(Hosted::owned) {
            m.merge(t.metrics());
        }
        m.commit_cycles = self.commit_cycles;
        m.transactions = self.transactions;
        m.active_tasks = self.tasks.values().filter_map(Hosted::active).count() as u64;
        m.standby_tasks = self.standby_ids().len() as u64;
        m
    }

    /// Task ids of hosted standby replicas.
    pub fn standby_ids(&self) -> Vec<TaskId> {
        self.ids(|h| matches!(h, Hosted::Replica { warmup: None, .. }))
    }

    /// Task ids currently warming for a deferred cooperative transfer.
    pub fn warmup_ids(&self) -> Vec<TaskId> {
        self.ids(|h| matches!(h, Hosted::Replica { warmup: Some(_), .. }))
    }

    /// Interactive query against a *standby* replica's KV store — the
    /// remote-queryable-replica pattern of the paper's future work (§8).
    pub fn query_standby_kv(&mut self, store: &str, key: &[u8]) -> Option<Bytes> {
        self.tasks.values_mut().find_map(|h| match h {
            Hosted::Replica { task, warmup: None } => task.query_kv(store, key),
            _ => None,
        })
    }

    /// Interactive query: read a key from any owned task's KV store
    /// (the §6.1 state-catalog pattern).
    pub fn query_kv(&mut self, store: &str, key: &[u8]) -> Option<Bytes> {
        self.tasks.values_mut().filter_map(Hosted::active_mut).find_map(|t| t.query_kv(store, key))
    }

    /// Interactive query over a window store.
    pub fn query_window(&mut self, store: &str, key: &[u8], window_start: i64) -> Option<Bytes> {
        let mut active = self.tasks.values_mut().filter_map(Hosted::active_mut);
        active.find_map(|t| t.query_window(store, key, window_start))
    }

    /// Deterministic dump of every owned task's stores, keyed by
    /// `(task, store)` with entries in changelog-key order — the oracle for
    /// serial-vs-parallel equivalence tests.
    pub fn dump_stores(&self) -> BTreeMap<(TaskId, String), Vec<(Bytes, Bytes)>> {
        let mut out = BTreeMap::new();
        for (id, task) in self.tasks.iter().filter_map(|(id, h)| Some((id, h.active()?))) {
            for (store, entries) in task.dump_stores() {
                out.insert((*id, store), entries);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::StreamsBuilder;
    use crate::topology::{TopicRef, ValueMode};
    use kbroker::{TopicConfig, TopicPartition};

    fn cluster() -> Cluster {
        Cluster::builder().brokers(1).replication(1).build()
    }

    fn simple_topology() -> Arc<Topology> {
        let builder = StreamsBuilder::new();
        builder.stream::<String, String>("in").to("out");
        Arc::new(builder.build().unwrap())
    }

    #[test]
    fn step_before_start_is_rejected() {
        let c = cluster();
        c.create_topic("in", TopicConfig::new(1)).unwrap();
        let mut app = KafkaStreamsApp::new(c, simple_topology(), StreamsConfig::new("app"), "i0");
        assert!(matches!(app.step(), Err(StreamsError::InvalidOperation(_))));
    }

    #[test]
    fn start_fails_on_missing_source_topic() {
        let c = cluster();
        let mut app = KafkaStreamsApp::new(c, simple_topology(), StreamsConfig::new("app"), "i0");
        assert!(app.start().is_err(), "source topic does not exist");
    }

    #[test]
    fn copartition_mismatch_is_rejected() {
        // A join forces two sources into one sub-topology; mismatched
        // partition counts must fail fast (§3.3's co-partitioning rule).
        let c = cluster();
        c.create_topic("a", TopicConfig::new(2)).unwrap();
        c.create_topic("b", TopicConfig::new(3)).unwrap();
        let builder = StreamsBuilder::new();
        let left = builder.stream::<String, String>("a");
        let right = builder.table::<String, String>("b", "b-store");
        left.join_table(&right, |l, r| format!("{l}{r}")).to("out");
        let topology = Arc::new(builder.build().unwrap());
        let mut app = KafkaStreamsApp::new(c, topology, StreamsConfig::new("app"), "i0");
        let err = app.start().unwrap_err();
        assert!(
            matches!(&err, StreamsError::InvalidTopology(msg) if msg.contains("co-partitioned")),
            "{err:?}"
        );
    }

    #[test]
    fn close_without_start_is_a_noop() {
        let c = cluster();
        c.create_topic("in", TopicConfig::new(1)).unwrap();
        let mut app = KafkaStreamsApp::new(c, simple_topology(), StreamsConfig::new("app"), "i0");
        app.close().unwrap();
    }

    // The task loop's contract: `step_inner` driven over hand-placed tasks.

    const RECORDS_PER_PARTITION: usize = 3;

    fn send(producer: &mut Producer, partition: u32, value: Bytes) {
        let record =
            klog::Record { key: Some(Bytes::from_static(b"k")), value: Some(value), timestamp: 0 };
        producer.send_to_partition(&TopicPartition::new("in", partition), record).unwrap();
    }

    /// An at-least-once instance of a change-decoding passthrough (`in` →
    /// `out`) with records in each of `in`'s `partitions` partitions,
    /// `corrupt`'s ending in one that does not decode. Its `tasks` tasks are
    /// placed by hand — those beyond `partitions` read a partition that does
    /// not exist — so `step_inner` needs no group, and the manual clock at 0
    /// keeps it from committing. With a producer batch size of 1 every
    /// drained write is on the log at once.
    fn instance_with_tasks(partitions: u32, tasks: u32, corrupt: Option<u32>) -> KafkaStreamsApp {
        let clock = simkit::ManualClock::new();
        let cluster = Cluster::builder().brokers(1).replication(1).clock(clock.shared()).build();
        cluster.create_topic("in", TopicConfig::new(partitions)).unwrap();
        let mut producer = Producer::new(cluster.clone(), ProducerConfig::default());
        let change = crate::kserde::encode_change(&None, &Some(Bytes::from_static(b"v")));
        for partition in 0..partitions {
            for _ in 0..RECORDS_PER_PARTITION {
                send(&mut producer, partition, change.clone());
            }
            if corrupt == Some(partition) {
                send(&mut producer, partition, Bytes::from_static(b"\xff"));
            }
        }
        producer.flush().unwrap();
        let mut builder = crate::topology::builder::InternalBuilder::new();
        let source =
            builder.add_source("s".into(), TopicRef::external("in"), ValueMode::Change).unwrap();
        builder
            .add_sink("k".into(), TopicRef::external("out"), ValueMode::Change, &[source])
            .unwrap();
        let topology = Arc::new(builder.build().unwrap());
        let config = StreamsConfig::new("app").with_producer_batch_size(1);
        let mut app = KafkaStreamsApp::new(cluster, topology.clone(), config, "i0");
        for partition in 0..tasks {
            let id = TaskId { subtopology: 0, partition };
            app.tasks.insert(id, Hosted::Active(StreamTask::new(&topology, id, "app").unwrap()));
        }
        app
    }

    fn buffered_outputs(app: &mut KafkaStreamsApp) -> Vec<usize> {
        app.tasks
            .values_mut()
            .filter_map(Hosted::active_mut)
            .map(|t| t.take_outputs().len())
            .collect()
    }

    #[test]
    fn stream_task_is_send() {
        // An instance moves, tasks and operators included, onto the thread
        // that runs it: `Processor: Send` carries this, and an operator that
        // loses its `Send`-ability fails to compile here.
        fn assert_send<T: Send>() {}
        assert_send::<StreamTask>();
    }

    #[test]
    fn each_task_is_drained_once_and_before_the_next_one_runs() {
        // Two sub-topologies: task 1_0 reads the repartition topic task 0_0
        // writes. At-least-once with one-record batches, 1_0 sees in its own
        // cycle what 0_0's drain sent — only if that drain came first.
        let clock = simkit::ManualClock::new();
        let cluster = Cluster::builder().brokers(1).replication(1).clock(clock.shared()).build();
        cluster.create_topic("in", TopicConfig::new(1)).unwrap();
        cluster.create_topic("out", TopicConfig::new(1)).unwrap();
        let mut producer = Producer::new(cluster.clone(), ProducerConfig::default());
        for _ in 0..RECORDS_PER_PARTITION {
            send(&mut producer, 0, Bytes::from_static(b"v"));
        }
        producer.flush().unwrap();
        let builder = StreamsBuilder::new();
        builder
            .stream::<String, String>("in")
            .group_by(|k, _v| format!("{k}{k}"))
            .count("regrouped")
            .to_stream()
            .to("out");
        let topology = Arc::new(builder.build().unwrap());
        let config = StreamsConfig::new("app").with_producer_batch_size(1);
        let mut app = KafkaStreamsApp::new(cluster.clone(), topology, config, "i0");
        app.start().unwrap();
        assert_eq!(app.step().unwrap().processed, 2 * RECORDS_PER_PARTITION);
        assert_eq!(cluster.topic_record_count("out").unwrap(), RECORDS_PER_PARTITION);
        assert_eq!(app.step().unwrap().processed, 0, "nothing runs twice");
        assert_eq!(cluster.topic_record_count("out").unwrap(), RECORDS_PER_PARTITION);
    }

    #[test]
    fn failed_task_is_not_drained_and_first_error_in_id_order_surfaces() {
        // Task 0_1 fails in its process phase with its well-formed records'
        // outputs buffered; task 0_4 reads a partition the topic does not
        // have.
        let mut app = instance_with_tasks(4, 5, Some(1));
        app.cluster.create_topic("out", TopicConfig::new(4)).unwrap();
        let err = app.step_inner().unwrap_err();
        assert!(matches!(err, StreamsError::Serde(_)), "0_1 precedes 0_4: {err:?}");
        assert_eq!(
            app.cluster.topic_record_count("out").unwrap(),
            3 * RECORDS_PER_PARTITION,
            "the healthy tasks still ran and drained"
        );
        assert_eq!(
            buffered_outputs(&mut app),
            [0, RECORDS_PER_PARTITION, 0, 0, 0],
            "the failed cycle's writes never reached the producer"
        );
    }

    #[test]
    fn drain_error_is_the_steps_error() {
        // No `out` topic: every cycle succeeds and every drain fails.
        let mut app = instance_with_tasks(3, 3, None);
        let err = app.step_inner().unwrap_err();
        assert!(
            matches!(&err, StreamsError::Broker(kbroker::BrokerError::UnknownTopic(t)) if t == "out"),
            "{err:?}"
        );
        assert_eq!(buffered_outputs(&mut app), [0; 3], "each task was handed to the drain");
    }

    /// What an instance holds for `0_0` before a reconcile, by role name.
    fn hosted(app: &KafkaStreamsApp, role: &str) -> Hosted {
        let id = TaskId { subtopology: 0, partition: 0 };
        let task = || StreamTask::new(&app.topology, id, "app").unwrap();
        let mut replica = StandbyTask::new(&app.topology, id, "app").unwrap();
        replica.poll(&app.cluster, IsolationLevel::ReadUncommitted).unwrap();
        match role {
            "active" => Hosted::Active(task()),
            "restoring" => Hosted::Restoring(task()),
            "standby" => Hosted::Replica { task: replica, warmup: None },
            "warmup" => Hosted::Replica { task: replica, warmup: Some(true) },
            _ => unreachable!("{role}"),
        }
    }

    #[test]
    fn reconcile_gives_each_task_its_target_role() {
        // The changelog of `0_0` holds one record. A hand-placed task has
        // replayed none of it and a hand-placed replica has applied it, so
        // whether an entry kept its stores shows in its counters: a task
        // built anew replays the record, a promoted replica does not.
        use Role::{Active, Standby, Warmup};
        let rows = [
            // (held, plan's target, held after, stores kept)
            (None, Some(Active), Some("active"), false),
            (Some("active"), Some(Active), Some("active"), true),
            (Some("restoring"), Some(Active), Some("restoring"), true),
            (Some("standby"), Some(Active), Some("active"), true),
            (Some("warmup"), Some(Active), Some("active"), true),
            (Some("active"), None, None, false),
            (Some("restoring"), None, None, false),
            (Some("active"), Some(Warmup), Some("warmup"), false),
            (None, Some(Warmup), Some("warmup"), false),
            (Some("standby"), Some(Warmup), Some("warmup"), true),
            (Some("warmup"), Some(Warmup), Some("warmup"), true),
            (None, Some(Standby), Some("standby"), false),
            (Some("standby"), Some(Standby), Some("standby"), true),
            (Some("warmup"), Some(Standby), Some("standby"), true),
            (Some("standby"), None, None, false),
            (Some("warmup"), None, None, false),
        ];
        for (held, target, expected, expect_kept) in rows {
            let cluster = cluster();
            cluster.create_topic("in", TopicConfig::new(1)).unwrap();
            let builder = StreamsBuilder::new();
            builder.stream::<String, String>("in").group_by_key().count("counts");
            let topology = Arc::new(builder.build().unwrap());
            let config = StreamsConfig::new("app").with_standby_replicas(1);
            let mut app = KafkaStreamsApp::new(cluster.clone(), topology, config, "i0");
            app.plan_tasks().unwrap();
            cluster.group_join("app", "i0", &[]).unwrap();
            let changelog = format!("app-{}", Topology::changelog_topic("counts"));
            let mut producer = Producer::new(cluster, ProducerConfig::default());
            let record =
                klog::Record { key: Some("k".into()), value: Some("1".into()), timestamp: 0 };
            producer.send_to_partition(&TopicPartition::new(changelog, 0), record).unwrap();
            producer.flush().unwrap();
            let id = TaskId { subtopology: 0, partition: 0 };
            if let Some(role) = held {
                let entry = hosted(&app, role);
                app.tasks.insert(id, entry);
            }
            let mut plan = AssignmentPlan::default();
            let mine = |role| if target == Some(role) { vec![id] } else { vec![] };
            plan.active.insert("i0".into(), mine(Active));
            plan.warmups.insert("i0".into(), mine(Warmup));
            // A standby lands on the member after the task's active owner.
            plan.active.insert("other".into(), mine(Standby));
            app.reconcile(&plan).unwrap();
            let row = format!("{held:?} -> {target:?}");
            let (role, kept) = match app.tasks.get(&id) {
                None => (None, false),
                Some(Hosted::Active(t)) => (Some("active"), t.metrics().restore_records == 0),
                Some(Hosted::Restoring(t)) => (Some("restoring"), t.metrics().restore_records == 0),
                Some(Hosted::Replica { task, warmup }) => {
                    let role = if warmup.is_some() { "warmup" } else { "standby" };
                    (Some(role), task.records_applied() == 1)
                }
            };
            assert_eq!((role, kept), (expected, expect_kept), "{row}");
            assert_eq!(app.tasks.len(), usize::from(expected.is_some()), "{row}");
        }
    }
}
