//! The EOS commit-protocol model: a small, closed configuration of
//! transactional producers, one transaction coordinator, and real
//! [`klog::PartitionLog`] partitions.
//!
//! The model's transition functions are the *shipped* ones: coordinator
//! decisions go through [`kbroker::protocol`] and data/marker appends go
//! through `klog`'s `PartitionLog` (which embeds the real
//! `ProducerStateTable` sequence/epoch rules). The model adds only what the
//! effectful runtime layer adds — the interleaving of durable writes, marker
//! fan-out, acks, crashes, and fencing — expressed as atomic actions a
//! checker can enumerate.
//!
//! Granularity: one action per point where the runtime either performs a
//! single durable effect or crosses a message boundary. A coordinator crash
//! can therefore land between the PrepareCommit barrier and any subset of
//! the marker writes — exactly the window §4.2.2's two-phase design has to
//! survive.

use kbroker::protocol::{self, EndDecision, InitAction, ProducerCheckError, TxnMetadata, TxnState};
use kbroker::TopicPartition;
use klog::batch::{BatchMeta, ControlType};
use klog::{IsolationLevel, PartitionLog, Record};
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

/// Injectable protocol bugs, used to validate that the checker (and the
/// counterexample→`simtest` bridge) actually catch violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bug {
    /// The commit path skips its transaction-log persists: the decision
    /// exists only in coordinator memory, so a crash forgets it after
    /// markers may already be out — the "coordinator crash between
    /// PrepareCommit and marker write" class.
    SkipPrepare,
    /// Markers are written with the pre-bump producer epoch, disabling
    /// KIP-890-style partition fencing — the "fenced-producer late append"
    /// class.
    StaleMarkerEpoch,
}

impl Bug {
    pub fn parse(s: &str) -> Option<Bug> {
        match s {
            "skip-prepare" => Some(Bug::SkipPrepare),
            "stale-marker-epoch" => Some(Bug::StaleMarkerEpoch),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Bug::SkipPrepare => "skip-prepare",
            Bug::StaleMarkerEpoch => "stale-marker-epoch",
        }
    }
}

/// A small model configuration.
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Number of transactional producers (1–2).
    pub producers: usize,
    /// Number of data partitions (1–2).
    pub partitions: usize,
    /// Transactions each producer runs to completion.
    pub txns_per_producer: usize,
    /// Total budget for injected faults (ack loss, request loss, coordinator
    /// crash, producer fencing). Bounds the state space.
    pub fault_budget: u32,
    /// Injected bug, if any.
    pub bug: Option<Bug>,
}

impl ModelConfig {
    /// The named small models: `1x1` and `2x2` (producers × partitions).
    pub fn named(name: &str) -> Option<ModelConfig> {
        match name {
            "1x1" => Some(ModelConfig {
                producers: 1,
                partitions: 1,
                txns_per_producer: 2,
                fault_budget: 3,
                bug: None,
            }),
            "2x2" => Some(ModelConfig {
                producers: 2,
                partitions: 2,
                txns_per_producer: 1,
                fault_budget: 2,
                bug: None,
            }),
            _ => None,
        }
    }
}

/// Where a producer's client loop is.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Step {
    /// Waiting for an InitProducerId response.
    Init,
    /// Registering all partitions with the coordinator.
    AddParts,
    /// Producing one record to partition `k` (then `k + 1`, …).
    Produce(usize),
    /// Choosing commit or abort for the current transaction.
    End,
    /// EndTxn sent; waiting for the completion ack.
    AwaitEnd { commit: bool },
    /// Finished all transactions, or observed fencing and halted.
    Done,
}

/// One producer's client-side state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Client {
    pub step: Step,
    /// Index of the current transaction (0-based).
    pub txn: usize,
    pub pid: i64,
    /// The epoch this client believes it holds (`-1` before init).
    pub epoch: i32,
    /// Next sequence number per partition (resets on epoch adoption).
    pub seq: Vec<i64>,
}

/// The complete model state. Cloned on every transition.
#[derive(Clone)]
pub struct State {
    pub coord_up: bool,
    /// In-memory coordinator metadata per transactional id (volatile:
    /// wiped by a coordinator crash).
    pub mem: Vec<Option<TxnMetadata>>,
    /// Last transaction-log record per id (durable: last-write-wins
    /// recovery, exactly what `txn_recover_all` replays to).
    pub durable: Vec<Option<TxnMetadata>>,
    /// Marker-fanout progress for the current decided transaction
    /// (volatile: a recovered coordinator re-fans-out from scratch).
    pub markers_done: Vec<u32>,
    /// A new (unmodelled) incarnation is mid-init for this id.
    pub fencing: Vec<bool>,
    pub clients: Vec<Client>,
    /// Real partition logs — the shipped append/dedup/LSO code.
    pub logs: Vec<PartitionLog>,
    /// Ground truth per (producer, txn): Some(true)=committed,
    /// Some(false)=aborted, None=never decided.
    pub decided: Vec<Vec<Option<bool>>>,
    pub budget: u32,
}

/// One enumerated action. The full action alphabet for a config is fixed up
/// front so sleep sets can use stable small integer ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// InitProducerId processed and acked.
    Init { p: usize },
    /// InitProducerId processed, ack lost (producer retries → extra bump).
    InitAckLost { p: usize },
    /// AddPartitionsToTxn (all partitions) processed and acked.
    AddParts { p: usize },
    /// AddPartitionsToTxn processed, ack lost (idempotent retry follows).
    AddPartsAckLost { p: usize },
    /// Produce one record to partition `k`, acked.
    Produce { p: usize, k: usize },
    /// Produce appended but the ack is lost (same-sequence retry follows).
    ProduceAckLost { p: usize, k: usize },
    /// Produce request lost before reaching the broker.
    ProduceReqLost { p: usize, k: usize },
    /// EndTxn(commit) request reaches the coordinator: the phase-1 barrier.
    EndCommit { p: usize },
    /// EndTxn(abort) request reaches the coordinator.
    EndAbort { p: usize },
    /// Completion ack delivered (producer adopts the bumped epoch). Also
    /// the producer's retry path after crashes (re-drives the decision).
    EndAck { p: usize },
    /// Completion ack lost (producer re-sends EndTxn, idempotently).
    EndAckLost { p: usize },
    /// Coordinator writes the decided marker to partition `k`.
    Marker { p: usize, k: usize },
    /// All markers acked: coordinator records Complete*.
    Complete { p: usize },
    /// A new producer incarnation starts registering this id (fault).
    Fence { p: usize },
    /// The pending incarnation's init makes one step (abort-ongoing or the
    /// final epoch bump).
    FencerStep { p: usize },
    /// Coordinator process crashes (volatile state lost).
    Crash,
    /// Coordinator restarts and recovers from the transaction log.
    Recover,
}

impl Action {
    /// Stable display form, used in counterexample traces.
    pub fn describe(self) -> String {
        match self {
            Action::Init { p } => format!("init(p{p})"),
            Action::InitAckLost { p } => format!("init(p{p}) [ack lost]"),
            Action::AddParts { p } => format!("add-partitions(p{p})"),
            Action::AddPartsAckLost { p } => format!("add-partitions(p{p}) [ack lost]"),
            Action::Produce { p, k } => format!("produce(p{p} -> t/{k})"),
            Action::ProduceAckLost { p, k } => format!("produce(p{p} -> t/{k}) [ack lost]"),
            Action::ProduceReqLost { p, k } => format!("produce(p{p} -> t/{k}) [request lost]"),
            Action::EndCommit { p } => format!("end-txn(p{p}, commit)"),
            Action::EndAbort { p } => format!("end-txn(p{p}, abort)"),
            Action::EndAck { p } => format!("end-txn-ack(p{p})"),
            Action::EndAckLost { p } => format!("end-txn-ack(p{p}) [ack lost]"),
            Action::Marker { p, k } => format!("write-marker(p{p} -> t/{k})"),
            Action::Complete { p } => format!("complete(p{p})"),
            Action::Fence { p } => format!("fence(p{p}) [new incarnation]"),
            Action::FencerStep { p } => format!("fencer-step(p{p})"),
            Action::Crash => "coordinator-crash".into(),
            Action::Recover => "coordinator-recover".into(),
        }
    }

    /// Does this action consume fault budget?
    pub fn is_fault(self) -> bool {
        matches!(
            self,
            Action::InitAckLost { .. }
                | Action::AddPartsAckLost { .. }
                | Action::ProduceAckLost { .. }
                | Action::ProduceReqLost { .. }
                | Action::EndAckLost { .. }
                | Action::Fence { .. }
                | Action::Crash
        )
    }
}

/// A violated invariant plus what was observed.
#[derive(Debug, Clone)]
pub struct ModelViolation {
    pub invariant: String,
    pub detail: String,
}

/// The fixed producer ids the model's coordinator hands out.
pub fn model_pid(p: usize) -> i64 {
    100 + p as i64
}

fn model_tp(k: usize) -> TopicPartition {
    TopicPartition::new("t", k as u32)
}

/// The unique payload for (producer, txn) — one record per partition.
pub fn payload(p: usize, txn: usize) -> String {
    format!("p{p}.t{txn}")
}

pub struct Model {
    pub cfg: ModelConfig,
    /// The full action alphabet; index = action id (for sleep-set masks).
    pub alphabet: Vec<Action>,
}

impl Model {
    pub fn new(cfg: ModelConfig) -> Model {
        assert!((1..=2).contains(&cfg.producers), "model supports 1-2 producers");
        assert!((1..=2).contains(&cfg.partitions), "model supports 1-2 partitions");
        let mut alphabet = Vec::new();
        for p in 0..cfg.producers {
            alphabet.push(Action::Init { p });
            alphabet.push(Action::InitAckLost { p });
            alphabet.push(Action::AddParts { p });
            alphabet.push(Action::AddPartsAckLost { p });
            for k in 0..cfg.partitions {
                alphabet.push(Action::Produce { p, k });
                alphabet.push(Action::ProduceAckLost { p, k });
                alphabet.push(Action::ProduceReqLost { p, k });
            }
            alphabet.push(Action::EndCommit { p });
            alphabet.push(Action::EndAbort { p });
            alphabet.push(Action::EndAck { p });
            alphabet.push(Action::EndAckLost { p });
            for k in 0..cfg.partitions {
                alphabet.push(Action::Marker { p, k });
            }
            alphabet.push(Action::Complete { p });
            alphabet.push(Action::Fence { p });
            alphabet.push(Action::FencerStep { p });
        }
        alphabet.push(Action::Crash);
        alphabet.push(Action::Recover);
        assert!(alphabet.len() <= 64, "sleep-set masks are u64");
        Model { cfg, alphabet }
    }

    pub fn initial(&self) -> State {
        State {
            coord_up: true,
            mem: vec![None; self.cfg.producers],
            durable: vec![None; self.cfg.producers],
            markers_done: vec![0; self.cfg.producers],
            fencing: vec![false; self.cfg.producers],
            clients: (0..self.cfg.producers)
                .map(|p| Client {
                    step: Step::Init,
                    txn: 0,
                    pid: model_pid(p),
                    epoch: -1,
                    seq: vec![0; self.cfg.partitions],
                })
                .collect(),
            logs: (0..self.cfg.partitions).map(|_| PartitionLog::new()).collect(),
            decided: vec![vec![None; self.cfg.txns_per_producer]; self.cfg.producers],
            budget: self.cfg.fault_budget,
        }
    }

    fn all_partitions(&self) -> BTreeSet<TopicPartition> {
        (0..self.cfg.partitions).map(model_tp).collect()
    }

    /// Is `a` enabled in `s`?
    pub fn enabled(&self, s: &State, a: Action) -> bool {
        if a.is_fault() && s.budget == 0 {
            return false;
        }
        match a {
            Action::Init { p } | Action::InitAckLost { p } => {
                s.coord_up
                    && s.clients[p].step == Step::Init
                    && match &s.mem[p] {
                        None => true,
                        Some(m) => protocol::init_action(m.state) == InitAction::None,
                    }
            }
            Action::AddParts { p } | Action::AddPartsAckLost { p } => {
                s.coord_up && s.clients[p].step == Step::AddParts && s.mem[p].is_some()
            }
            Action::Produce { p, k }
            | Action::ProduceAckLost { p, k }
            | Action::ProduceReqLost { p, k } => s.clients[p].step == Step::Produce(k),
            Action::EndCommit { p } | Action::EndAbort { p } => {
                s.coord_up && s.clients[p].step == Step::End && s.mem[p].is_some()
            }
            Action::EndAck { p } | Action::EndAckLost { p } => {
                if !s.coord_up || !matches!(s.clients[p].step, Step::AwaitEnd { .. }) {
                    return false;
                }
                let Some(meta) = &s.mem[p] else { return false };
                let Step::AwaitEnd { commit } = s.clients[p].step else { return false };
                // The ack (or the retry that re-drives the decision after a
                // crash) is deliverable when the request would be served
                // now; a fenced retry is deliverable as the fencing error.
                matches!(
                    protocol::end_request(meta, s.clients[p].pid, s.clients[p].epoch, commit),
                    Ok(EndDecision::AlreadyDone | EndDecision::Prepare)
                        | Err(ProducerCheckError::Fenced { .. })
                )
            }
            Action::Marker { p, k } => {
                s.coord_up
                    && s.mem[p].as_ref().is_some_and(|m| {
                        protocol::decided_marker(m.state).is_some()
                            && m.partitions.contains(&model_tp(k))
                            && s.markers_done[p] & (1 << k) == 0
                    })
            }
            Action::Complete { p } => {
                s.coord_up
                    && s.mem[p].as_ref().is_some_and(|m| {
                        protocol::decided_marker(m.state).is_some()
                            && m.partitions
                                .iter()
                                .all(|tp| s.markers_done[p] & (1 << tp.partition) != 0)
                    })
            }
            Action::Fence { p } => {
                s.coord_up
                    && !s.fencing[p]
                    && s.clients[p].step != Step::Done
                    && s.mem[p].as_ref().is_some_and(|m| m.epoch == s.clients[p].epoch)
            }
            Action::FencerStep { p } => {
                s.coord_up
                    && s.fencing[p]
                    && s.mem[p].as_ref().is_some_and(|m| {
                        matches!(
                            protocol::init_action(m.state),
                            InitAction::AbortOngoing | InitAction::None
                        )
                    })
            }
            Action::Crash => s.coord_up,
            Action::Recover => !s.coord_up,
        }
    }

    /// Persist coordinator metadata to the (modelled) transaction log.
    fn persist(s: &mut State, p: usize) {
        s.durable[p] = s.mem[p].clone();
    }

    /// Apply `a` to a copy of `s`; returns the successor and any model-level
    /// violations detected during the action itself. (Invariant-sink
    /// violations and log scans are collected by the explorer afterwards.)
    #[allow(clippy::too_many_lines)]
    pub fn apply(&self, s: &State, a: Action) -> (State, Vec<ModelViolation>) {
        let mut s = s.clone();
        let mut violations = Vec::new();
        if a.is_fault() {
            s.budget -= 1;
        }
        let tid = |p: usize| format!("app-{p}");
        match a {
            Action::Init { p } | Action::InitAckLost { p } => {
                let meta = s.mem[p].get_or_insert_with(|| TxnMetadata::fresh(model_pid(p), 1));
                let (pid, epoch) = protocol::fence(&tid(p), meta, 1);
                Self::persist(&mut s, p);
                if matches!(a, Action::Init { .. }) {
                    let c = &mut s.clients[p];
                    c.pid = pid;
                    c.epoch = epoch;
                    c.step = Step::AddParts;
                }
            }
            Action::AddParts { p } | Action::AddPartsAckLost { p } => {
                let c = s.clients[p].clone();
                let meta = s.mem[p].as_mut().expect("enabled");
                match protocol::validate_producer(meta, c.pid, c.epoch) {
                    Ok(()) => {
                        let parts: Vec<TopicPartition> =
                            self.all_partitions().into_iter().collect();
                        match protocol::register_partitions(&tid(p), meta, &parts, 0) {
                            Ok(()) => Self::persist(&mut s, p),
                            Err(state) => violations.push(ModelViolation {
                                invariant: "txn-state-machine".into(),
                                detail: format!("p{p}: add-partitions served in state {state:?}"),
                            }),
                        }
                        if matches!(a, Action::AddParts { .. }) {
                            s.clients[p].step = Step::Produce(0);
                        }
                    }
                    Err(ProducerCheckError::Fenced { .. }) => {
                        // Zombie observed its fencing; halts cleanly.
                        s.clients[p].step = Step::Done;
                    }
                    Err(e) => violations.push(ModelViolation {
                        invariant: "epoch-fencing".into(),
                        detail: format!("p{p}: add-partitions rejected unexpectedly: {e:?}"),
                    }),
                }
            }
            Action::Produce { p, k } | Action::ProduceAckLost { p, k } => {
                let c = s.clients[p].clone();
                let meta = BatchMeta::transactional(c.pid, c.epoch, c.seq[k]);
                let rec = Record::of_str(&format!("k{p}"), &payload(p, c.txn), 0);
                match s.logs[k].append(meta, vec![rec]) {
                    Ok(_) => {
                        if matches!(a, Action::Produce { .. }) {
                            let c = &mut s.clients[p];
                            c.seq[k] += 1;
                            c.step = if k + 1 < self.cfg.partitions {
                                Step::Produce(k + 1)
                            } else {
                                Step::End
                            };
                        }
                    }
                    Err(klog::LogError::ProducerFenced { .. }) => {
                        // The late append of a fenced producer, rejected by
                        // the partition's producer-state table — the safe
                        // outcome. The zombie halts.
                        s.clients[p].step = Step::Done;
                    }
                    Err(e) => violations.push(ModelViolation {
                        invariant: "sequence-monotonicity".into(),
                        detail: format!("p{p}: produce to t/{k} rejected: {e}"),
                    }),
                }
            }
            Action::ProduceReqLost { p, k } => {
                let _ = (p, k); // request vanished: only the budget changed
            }
            Action::EndCommit { p } | Action::EndAbort { p } => {
                let commit = matches!(a, Action::EndCommit { .. });
                let c = s.clients[p].clone();
                let meta = s.mem[p].as_mut().expect("enabled");
                match protocol::end_request(meta, c.pid, c.epoch, commit) {
                    Ok(EndDecision::Prepare) => {
                        protocol::prepare(&tid(p), meta, commit);
                        s.markers_done[p] = 0;
                        s.decided[p][c.txn] = Some(commit);
                        if !(commit && self.cfg.bug == Some(Bug::SkipPrepare)) {
                            Self::persist(&mut s, p);
                        }
                        s.clients[p].step = Step::AwaitEnd { commit };
                    }
                    Ok(EndDecision::Resume | EndDecision::AlreadyDone) => {
                        s.clients[p].step = Step::AwaitEnd { commit };
                    }
                    Ok(EndDecision::NothingToDo) => {
                        // Can only mean the id was re-registered out from
                        // under the client; treat like fencing.
                        s.clients[p].step = Step::Done;
                    }
                    Ok(EndDecision::Illegal) => violations.push(ModelViolation {
                        invariant: "txn-state-machine".into(),
                        detail: format!(
                            "p{p}: honest end-txn(commit={commit}) illegal in state {:?}",
                            meta.state
                        ),
                    }),
                    Err(ProducerCheckError::Fenced { .. }) => {
                        s.clients[p].step = Step::Done;
                    }
                    Err(e) => violations.push(ModelViolation {
                        invariant: "epoch-fencing".into(),
                        detail: format!("p{p}: end-txn rejected unexpectedly: {e:?}"),
                    }),
                }
            }
            Action::EndAck { p } | Action::EndAckLost { p } => {
                let c = s.clients[p].clone();
                let Step::AwaitEnd { commit } = c.step else { unreachable!("enabled") };
                let meta = s.mem[p].as_mut().expect("enabled");
                match protocol::end_request(meta, c.pid, c.epoch, commit) {
                    Ok(EndDecision::AlreadyDone) => {
                        if matches!(a, Action::EndAck { .. }) {
                            let new_epoch = meta.epoch;
                            let c = &mut s.clients[p];
                            c.epoch = new_epoch;
                            c.seq = vec![0; self.cfg.partitions];
                            c.txn += 1;
                            c.step = if c.txn < self.cfg.txns_per_producer {
                                Step::AddParts
                            } else {
                                Step::Done
                            };
                        }
                    }
                    Ok(EndDecision::Prepare) => {
                        // The decision was lost (crash before the barrier
                        // persisted — only possible with an injected bug);
                        // the retry re-drives it.
                        protocol::prepare(&tid(p), meta, commit);
                        s.markers_done[p] = 0;
                        s.decided[p][c.txn] = Some(commit);
                        if !(commit && self.cfg.bug == Some(Bug::SkipPrepare)) {
                            Self::persist(&mut s, p);
                        }
                    }
                    Err(ProducerCheckError::Fenced { .. }) => {
                        s.clients[p].step = Step::Done;
                    }
                    _ => unreachable!("enabled() gates on the decision"),
                }
            }
            Action::Marker { p, k } => {
                let meta = s.mem[p].as_ref().expect("enabled").clone();
                let ctl = protocol::decided_marker(meta.state).expect("enabled");
                let epoch = match self.cfg.bug {
                    Some(Bug::StaleMarkerEpoch) => meta.epoch - 1,
                    _ => meta.epoch,
                };
                match s.logs[k].append_control(meta.producer_id, epoch, ctl, 0) {
                    Ok(_) => {}
                    Err(e) => violations.push(ModelViolation {
                        invariant: "txn-marker-without-prepare".into(),
                        detail: format!("p{p}: marker append to t/{k} rejected: {e}"),
                    }),
                }
                s.markers_done[p] |= 1 << k;
            }
            Action::Complete { p } => {
                let meta = s.mem[p].as_mut().expect("enabled");
                let commit = meta.state == TxnState::PrepareCommit;
                protocol::complete(&tid(p), meta);
                if !(commit && self.cfg.bug == Some(Bug::SkipPrepare)) {
                    Self::persist(&mut s, p);
                }
            }
            Action::Fence { p } => {
                s.fencing[p] = true;
            }
            Action::FencerStep { p } => {
                let meta = s.mem[p].as_mut().expect("enabled");
                match protocol::init_action(meta.state) {
                    InitAction::AbortOngoing => {
                        protocol::prepare(&tid(p), meta, false);
                        s.markers_done[p] = 0;
                        let txn = s.clients[p].txn;
                        s.decided[p][txn] = Some(false);
                        Self::persist(&mut s, p);
                    }
                    InitAction::None => {
                        protocol::fence(&tid(p), meta, 1);
                        Self::persist(&mut s, p);
                        s.fencing[p] = false;
                    }
                    InitAction::RollForward => unreachable!("enabled() excludes Prepare*"),
                }
            }
            Action::Crash => {
                s.coord_up = false;
                for p in 0..self.cfg.producers {
                    s.mem[p] = None;
                    s.markers_done[p] = 0;
                }
            }
            Action::Recover => {
                s.coord_up = true;
                // Last-write-wins replay of the transaction log; decided
                // transactions re-fan-out their markers from scratch
                // (duplicate markers of the same type are benign).
                s.mem = s.durable.clone();
            }
        }
        (s, violations)
    }

    /// All enabled actions, in alphabet order.
    pub fn enabled_actions(&self, s: &State) -> Vec<usize> {
        (0..self.alphabet.len()).filter(|&i| self.enabled(s, self.alphabet[i])).collect()
    }

    /// Check per-state safety invariants on the partition logs: offset
    /// ordering and marker consistency. Called by the explorer after every
    /// action.
    pub fn check_logs(&self, s: &State) -> Vec<ModelViolation> {
        let mut out = Vec::new();
        for (k, log) in s.logs.iter().enumerate() {
            if !protocol::replication::offsets_legal(
                log.last_stable_offset(),
                log.high_watermark(),
                log.log_end(),
            ) {
                out.push(ModelViolation {
                    invariant: "offset-ordering".into(),
                    detail: format!(
                        "t/{k}: LSO {} <= HW {} <= LEO {} violated",
                        log.last_stable_offset(),
                        log.high_watermark(),
                        log.log_end()
                    ),
                });
            }
            // Conflicting markers: with the epoch bumped at every prepare,
            // (pid, epoch) identifies one transaction decision; two marker
            // types for the same pair mean the protocol decided both ways.
            let mut decisions: Vec<((i64, i32), ControlType)> = Vec::new();
            for b in log.batches() {
                if let Some(ctl) = b.meta.control {
                    let key = (b.meta.producer_id, b.meta.producer_epoch);
                    match decisions.iter().find(|(k2, _)| *k2 == key) {
                        Some((_, prev)) if *prev != ctl => out.push(ModelViolation {
                            invariant: "conflicting-markers".into(),
                            detail: format!(
                                "t/{k}: producer {} epoch {} has both {prev:?} and {ctl:?} markers",
                                key.0, key.1
                            ),
                        }),
                        Some(_) => {} // duplicate of the same type: benign
                        None => decisions.push((key, ctl)),
                    }
                }
            }
        }
        out
    }

    /// Exactly-once oracle, valid in terminal states: the read-committed
    /// contents of every partition are exactly the records of committed
    /// transactions, each once — and no transaction is left open (every
    /// decided transaction's markers closed it, so the LSO has caught up).
    pub fn check_terminal(&self, s: &State) -> Vec<ModelViolation> {
        let mut out = Vec::new();
        for (k, log) in s.logs.iter().enumerate() {
            if log.last_stable_offset() != log.log_end() {
                out.push(ModelViolation {
                    invariant: "terminal-open-txn".into(),
                    detail: format!(
                        "t/{k}: transaction left open at quiescence (LSO {} < LEO {}) — \
                         a late append slipped past the fencing markers",
                        log.last_stable_offset(),
                        log.log_end()
                    ),
                });
            }
        }
        let mut expected: BTreeSet<String> = BTreeSet::new();
        for (p, outcomes) in s.decided.iter().enumerate() {
            for (t, d) in outcomes.iter().enumerate() {
                if *d == Some(true) {
                    expected.insert(payload(p, t));
                }
            }
        }
        for (k, log) in s.logs.iter().enumerate() {
            let fetch = match log.fetch(0, usize::MAX, IsolationLevel::ReadCommitted) {
                Ok(f) => f,
                Err(e) => {
                    out.push(ModelViolation {
                        invariant: "exactly-once".into(),
                        detail: format!("t/{k}: terminal read-committed fetch failed: {e}"),
                    });
                    continue;
                }
            };
            let mut seen: Vec<String> = fetch
                .records()
                .map(|(_, r)| {
                    String::from_utf8_lossy(r.value.as_deref().unwrap_or_default()).into_owned()
                })
                .collect();
            seen.sort_unstable();
            for w in seen.windows(2) {
                if w[0] == w[1] {
                    out.push(ModelViolation {
                        invariant: "exactly-once".into(),
                        detail: format!("t/{k}: committed record `{}` delivered twice", w[0]),
                    });
                }
            }
            for v in &seen {
                if !expected.contains(v) {
                    out.push(ModelViolation {
                        invariant: "exactly-once".into(),
                        detail: format!(
                            "t/{k}: record `{v}` visible to read-committed but its \
                             transaction never committed"
                        ),
                    });
                }
            }
            for e in &expected {
                if !seen.contains(e) {
                    out.push(ModelViolation {
                        invariant: "exactly-once".into(),
                        detail: format!("t/{k}: committed record `{e}` lost"),
                    });
                }
            }
        }
        out
    }

    /// Resource footprint of an action, for the independence relation: two
    /// actions are independent iff their footprints are disjoint AND neither
    /// consumes fault budget (budget couples all faults).
    fn footprint(a: Action) -> (u64, bool) {
        // Bit layout: [0..producers) coordinator/client of p,
        // [8..8+partitions) log k, bit 62 coordinator process.
        const PROC: u64 = 1 << 62;
        let coord = |p: usize| 1u64 << p;
        let log = |k: usize| 1u64 << (8 + k);
        let fp = match a {
            Action::Init { p }
            | Action::InitAckLost { p }
            | Action::AddParts { p }
            | Action::AddPartsAckLost { p }
            | Action::EndCommit { p }
            | Action::EndAbort { p }
            | Action::EndAck { p }
            | Action::EndAckLost { p }
            | Action::Complete { p }
            | Action::Fence { p }
            | Action::FencerStep { p } => coord(p) | PROC,
            Action::Produce { p, k }
            | Action::ProduceAckLost { p, k }
            | Action::ProduceReqLost { p, k } => coord(p) | log(k),
            Action::Marker { p, k } => coord(p) | log(k) | PROC,
            Action::Crash | Action::Recover => u64::MAX,
        };
        (fp, a.is_fault())
    }

    /// Independence for sleep sets: commuting actions that cannot
    /// enable/disable each other.
    pub fn independent(&self, a: Action, b: Action) -> bool {
        let (fa, fault_a) = Self::footprint(a);
        let (fb, fault_b) = Self::footprint(b);
        if fault_a && fault_b {
            return false; // both draw from the shared budget
        }
        fa & fb == 0
    }

    /// Hash the canonical representation of a state.
    pub fn state_hash(&self, s: &State) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        s.coord_up.hash(&mut h);
        s.budget.hash(&mut h);
        for p in 0..self.cfg.producers {
            hash_meta(&s.mem[p], &mut h);
            hash_meta(&s.durable[p], &mut h);
            s.markers_done[p].hash(&mut h);
            s.fencing[p].hash(&mut h);
            let c = &s.clients[p];
            c.step.hash(&mut h);
            c.txn.hash(&mut h);
            c.pid.hash(&mut h);
            c.epoch.hash(&mut h);
            c.seq.hash(&mut h);
            s.decided[p].hash(&mut h);
        }
        for log in &s.logs {
            log.log_end().hash(&mut h);
            log.high_watermark().hash(&mut h);
            log.last_stable_offset().hash(&mut h);
            for b in log.batches() {
                b.meta.producer_id.hash(&mut h);
                b.meta.producer_epoch.hash(&mut h);
                b.meta.base_sequence.hash(&mut h);
                b.meta.transactional.hash(&mut h);
                (b.meta.control.map(|c| c as u8)).hash(&mut h);
                b.entries.len().hash(&mut h);
                for (o, r) in b.entries.iter() {
                    o.hash(&mut h);
                    r.value.as_deref().unwrap_or_default().hash(&mut h);
                }
            }
        }
        h.finish()
    }
}

fn hash_meta(m: &Option<TxnMetadata>, h: &mut impl Hasher) {
    match m {
        None => 0u8.hash(h),
        Some(m) => {
            1u8.hash(h);
            m.producer_id.hash(h);
            m.epoch.hash(h);
            m.state.hash(h);
            for tp in &m.partitions {
                tp.partition.hash(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphabet_fits_sleep_set_mask() {
        for name in ["1x1", "2x2"] {
            let m = Model::new(ModelConfig::named(name).unwrap());
            assert!(m.alphabet.len() <= 64, "{name}: {}", m.alphabet.len());
        }
    }

    #[test]
    fn happy_path_commit_reaches_terminal_exactly_once() {
        let cfg = ModelConfig {
            producers: 1,
            partitions: 1,
            txns_per_producer: 1,
            fault_budget: 0,
            bug: None,
        };
        let m = Model::new(cfg);
        let mut s = m.initial();
        for a in [
            Action::Init { p: 0 },
            Action::AddParts { p: 0 },
            Action::Produce { p: 0, k: 0 },
            Action::EndCommit { p: 0 },
            Action::Marker { p: 0, k: 0 },
            Action::Complete { p: 0 },
            Action::EndAck { p: 0 },
        ] {
            assert!(m.enabled(&s, a), "{a:?} not enabled");
            let (s2, v) = m.apply(&s, a);
            assert!(v.is_empty(), "{a:?}: {v:?}");
            s = s2;
        }
        assert_eq!(s.clients[0].step, Step::Done);
        assert!(m.enabled_actions(&s).is_empty(), "terminal");
        assert!(m.check_logs(&s).is_empty());
        assert!(m.check_terminal(&s).is_empty());
        assert_eq!(s.decided[0][0], Some(true));
    }

    #[test]
    fn abort_hides_payload_at_terminal() {
        let cfg = ModelConfig {
            producers: 1,
            partitions: 1,
            txns_per_producer: 1,
            fault_budget: 0,
            bug: None,
        };
        let m = Model::new(cfg);
        let mut s = m.initial();
        for a in [
            Action::Init { p: 0 },
            Action::AddParts { p: 0 },
            Action::Produce { p: 0, k: 0 },
            Action::EndAbort { p: 0 },
            Action::Marker { p: 0, k: 0 },
            Action::Complete { p: 0 },
            Action::EndAck { p: 0 },
        ] {
            let (s2, v) = m.apply(&s, a);
            assert!(v.is_empty(), "{a:?}: {v:?}");
            s = s2;
        }
        assert!(m.check_terminal(&s).is_empty());
        assert_eq!(s.decided[0][0], Some(false));
        let f = s.logs[0].fetch(0, 100, IsolationLevel::ReadCommitted).unwrap();
        assert_eq!(f.count(), 0);
    }

    #[test]
    fn crash_between_prepare_and_marker_recovers_and_commits() {
        let cfg = ModelConfig {
            producers: 1,
            partitions: 2,
            txns_per_producer: 1,
            fault_budget: 1,
            bug: None,
        };
        let m = Model::new(cfg);
        let mut s = m.initial();
        for a in [
            Action::Init { p: 0 },
            Action::AddParts { p: 0 },
            Action::Produce { p: 0, k: 0 },
            Action::Produce { p: 0, k: 1 },
            Action::EndCommit { p: 0 },
            Action::Marker { p: 0, k: 0 }, // one marker out, then crash
            Action::Crash,
            Action::Recover,
            Action::Marker { p: 0, k: 0 }, // re-fan-out: duplicate marker
            Action::Marker { p: 0, k: 1 },
            Action::Complete { p: 0 },
            Action::EndAck { p: 0 },
        ] {
            assert!(m.enabled(&s, a), "{a:?} not enabled");
            let (s2, v) = m.apply(&s, a);
            assert!(v.is_empty(), "{a:?}: {v:?}");
            s = s2;
            assert!(m.check_logs(&s).is_empty(), "after {a:?}");
        }
        assert!(m.enabled_actions(&s).is_empty());
        assert!(m.check_terminal(&s).is_empty(), "duplicate commit markers are benign");
    }

    #[test]
    fn state_hash_stable_and_sensitive() {
        let m = Model::new(ModelConfig::named("1x1").unwrap());
        let s = m.initial();
        assert_eq!(m.state_hash(&s), m.state_hash(&s.clone()));
        let (s2, _) = m.apply(&s, Action::Init { p: 0 });
        assert_ne!(m.state_hash(&s), m.state_hash(&s2));
    }

    #[test]
    fn independence_disjoint_producers_but_not_faults() {
        let m = Model::new(ModelConfig::named("2x2").unwrap());
        assert!(m.independent(Action::Produce { p: 0, k: 0 }, Action::Produce { p: 1, k: 1 }));
        assert!(!m.independent(Action::Produce { p: 0, k: 0 }, Action::Produce { p: 1, k: 0 }));
        assert!(!m.independent(Action::EndCommit { p: 0 }, Action::Complete { p: 0 }));
        // Crash/Recover touch everything (volatile coordinator state of
        // every producer) — conservatively dependent on all actions.
        assert!(!m.independent(Action::Crash, Action::EndCommit { p: 1 }));
        assert!(!m.independent(Action::Crash, Action::Produce { p: 1, k: 1 }));
        assert!(!m.independent(Action::ProduceAckLost { p: 0, k: 0 }, Action::InitAckLost { p: 1 }));
    }
}
