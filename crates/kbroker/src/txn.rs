//! The transaction coordinator (§4.2) — the *effectful* layer.
//!
//! Each coordinator owns a subset of transactional ids (hash of the id maps
//! it to one partition of the internal `__transaction_state` topic). The
//! coordinator keeps per-transaction metadata in memory *and* persists every
//! transition to the transaction log, so a failed-over coordinator rebuilds
//! its state by replaying that log (§4.2.1 — "we leverage Kafka's own
//! replication protocol to ensure that the transaction coordinators are
//! highly available").
//!
//! The state machine itself — which transitions are legal, what each request
//! requires in each state, when markers may be written — lives as pure
//! functions in [`crate::protocol`], shared with the `kcheck` model checker.
//! This module only interleaves the effects between those pure steps: log
//! persists, marker fan-out, and metrics.
//!
//! The two-phase commit of §4.2.2:
//!
//! 1. **Prepare** — the coordinator writes `PrepareCommit` (or
//!    `PrepareAbort`) to the transaction log. This is the synchronization
//!    barrier: once replicated, the outcome is decided even if the
//!    coordinator crashes immediately after.
//! 2. **Markers** — commit/abort control records are written to every
//!    partition registered in the transaction (data, changelog, and offsets
//!    partitions alike). Read-committed consumers only see the data once the
//!    marker lands.
//! 3. **Complete** — the coordinator records `CompleteCommit`/
//!    `CompleteAbort`, letting the producer start its next transaction.
//!
//! Zombie fencing (§4.2.1): re-registering a transactional id bumps its
//! epoch; writes and commits bearing an older epoch are rejected.

// Coordinator paths surface every failure as a BrokerError; `.unwrap()` on
// a fallible result would turn a recoverable fault into a broker crash.
#![deny(clippy::unwrap_used)]

use crate::cluster::Cluster;
use crate::error::BrokerError;
use crate::protocol::{self, EndDecision, InitAction, ProducerCheckError};
use crate::topic::{partition_for_key, TopicPartition};
use crate::TXN_TOPIC;
use bytes::Bytes;
use klog::batch::{BatchMeta, ControlType};
use klog::{invariant, IsolationLevel, Record};
use parking_lot::Mutex;
use std::collections::HashMap;

pub use crate::protocol::{TxnMetadata, TxnState};

/// In-memory coordinator state, sharded by transaction-log partition.
pub struct TxnRegistry {
    shards: Vec<Mutex<HashMap<String, TxnMetadata>>>,
}

impl TxnRegistry {
    pub fn new(partitions: u32) -> Self {
        Self { shards: (0..partitions).map(|_| Mutex::new(HashMap::new())).collect() }
    }

    /// Which transaction-log partition (and coordinator) owns `tid`.
    pub fn shard_of(&self, tid: &str) -> u32 {
        partition_for_key(tid.as_bytes(), self.shards.len() as u32)
    }

    fn shard(&self, tid: &str) -> &Mutex<HashMap<String, TxnMetadata>> {
        &self.shards[self.shard_of(tid) as usize]
    }
}

fn check_error(tid: &str, e: ProducerCheckError) -> BrokerError {
    match e {
        ProducerCheckError::Fenced { .. } => {
            BrokerError::ProducerFenced { transactional_id: tid.to_string() }
        }
        ProducerCheckError::ProducerIdMismatch { expected, got } => {
            BrokerError::InvalidTxnTransition {
                transactional_id: tid.to_string(),
                detail: format!("producer id mismatch: {got} != {expected}"),
            }
        }
        ProducerCheckError::EpochFromFuture { current, got } => BrokerError::InvalidTxnTransition {
            transactional_id: tid.to_string(),
            detail: format!("epoch from the future: {got} > {current}"),
        },
    }
}

impl Cluster {
    fn txn_log_tp(&self, tid: &str) -> TopicPartition {
        TopicPartition { topic: TXN_TOPIC, partition: self.inner.txn.shard_of(tid) }
    }

    /// Persist a metadata transition to the transaction log, counted in
    /// `kbroker.txn.log_records` and `kbroker.txn.log_bytes` (key plus
    /// value).
    fn txn_persist(&self, tid: &str, meta: &TxnMetadata) -> Result<(), BrokerError> {
        let value = meta.encode();
        let bytes = tid.len() + value.len();
        let rec = Record {
            key: Some(Bytes::copy_from_slice(tid.as_bytes())),
            value: Some(value),
            timestamp: self.now_ms(),
        };
        self.produce(&self.txn_log_tp(tid), BatchMeta::plain(), vec![rec])?;
        kobs::counter!("kbroker.txn.log_records").add(1);
        kobs::counter!("kbroker.txn.log_bytes").add(bytes as u64);
        Ok(())
    }

    /// Write the second-phase markers to every registered partition.
    fn txn_write_markers(
        &self,
        tid: &str,
        meta: &TxnMetadata,
        ctl: ControlType,
    ) -> Result<(), BrokerError> {
        // §4.2.2: markers may only be written once the matching prepare
        // record is durable — otherwise a coordinator crash could expose
        // data whose outcome was never decided.
        invariant!(
            protocol::decided_marker(meta.state) == Some(ctl),
            "txn-marker-without-prepare",
            "tid `{tid}`: writing {ctl:?} markers while coordinator state is {:?}",
            meta.state
        );
        for tp in &meta.partitions {
            self.append_control_marker(tp, meta.producer_id, meta.epoch, ctl)?;
        }
        Ok(())
    }

    /// Complete a decided (Prepare*) transaction: write markers, then record
    /// the Complete state. Returns the updated metadata.
    fn txn_finish(&self, tid: &str, mut meta: TxnMetadata) -> Result<TxnMetadata, BrokerError> {
        let Some(ctl) = protocol::decided_marker(meta.state) else {
            // Defensive: every caller decides (Prepare*) before finishing;
            // reaching here means a marker write was requested without a
            // durable prepare record.
            invariant!(
                false,
                "txn-marker-without-prepare",
                "tid `{tid}`: txn_finish invoked in state {:?}",
                meta.state
            );
            return Ok(meta);
        };
        let n_partitions = meta.partitions.len();
        let t0 = self.now_ms();
        // Phase spans parent under the caller's thread-local current span —
        // the app's commit span when the producer drove this — which is the
        // causal edge from a commit cycle to the broker work it triggered.
        let markers_span =
            kobs::child_span!(t0, "kbroker.txn", "markers", partitions = n_partitions);
        let entered = kobs::ktrace::enter(markers_span);
        let wrote = self.txn_write_markers(tid, &meta, ctl);
        drop(entered);
        let t1 = self.now_ms();
        kobs::ktrace::finish_span(markers_span, t1 * 1000);
        wrote?;
        protocol::complete(tid, &mut meta);
        let complete_span = kobs::child_span!(t1, "kbroker.txn", "complete");
        let entered = kobs::ktrace::enter(complete_span);
        let persisted = self.txn_persist(tid, &meta);
        drop(entered);
        kobs::ktrace::finish_span(complete_span, self.now_ms() * 1000);
        persisted?;
        match meta.state {
            TxnState::CompleteCommit => kobs::counter!("kbroker.txn.commits").add(1),
            _ => kobs::counter!("kbroker.txn.aborts").add(1),
        }
        kobs::event!(
            self.now_ms(),
            "kbroker.txn",
            if meta.state == TxnState::CompleteCommit { "txn_commit" } else { "txn_abort" },
            producer_id = meta.producer_id,
            epoch = meta.epoch,
            partitions = n_partitions,
            markers_ms = t1 - t0,
        );
        Ok(meta)
    }

    /// Register a transactional producer (§4.2.1, Figure 4.b).
    ///
    /// Completes any transaction left open by a previous incarnation — rolls
    /// *forward* if already past the PrepareCommit barrier, aborts otherwise
    /// — then bumps the epoch, fencing all older incarnations. Returns the
    /// `(producer_id, epoch)` the new incarnation must use.
    pub fn txn_init_producer(&self, tid: &str, timeout_ms: i64) -> Result<(i64, i32), BrokerError> {
        let span = kobs::child_span!(self.now_ms(), "kbroker.txn", "init");
        let entered = kobs::ktrace::enter(span);
        let result = self.txn_init_inner(tid, timeout_ms);
        drop(entered);
        kobs::ktrace::finish_span(span, self.now_ms() * 1000);
        result
    }

    fn txn_init_inner(&self, tid: &str, timeout_ms: i64) -> Result<(i64, i32), BrokerError> {
        let shard = self.inner.txn.shard(tid);
        let mut map = shard.lock();
        let mut meta = match map.get(tid).cloned() {
            Some(m) => m,
            None => TxnMetadata::fresh(self.alloc_producer_id(), timeout_ms),
        };
        // Finish whatever the previous incarnation left behind.
        meta = match protocol::init_action(meta.state) {
            InitAction::AbortOngoing => {
                protocol::prepare(tid, &mut meta, false);
                self.txn_persist(tid, &meta)?;
                self.txn_finish(tid, meta)?
            }
            InitAction::RollForward => self.txn_finish(tid, meta)?,
            InitAction::None => meta,
        };
        let result = protocol::fence(tid, &mut meta, timeout_ms);
        self.txn_persist(tid, &meta)?;
        kobs::event!(
            self.now_ms(),
            "kbroker.txn",
            "txn_init",
            producer_id = result.0,
            epoch = result.1,
        );
        map.insert(tid.to_string(), meta);
        Ok(result)
    }

    fn txn_validated<'a>(
        map: &'a mut HashMap<String, TxnMetadata>,
        tid: &str,
        pid: i64,
        epoch: i32,
    ) -> Result<&'a mut TxnMetadata, BrokerError> {
        let meta =
            map.get_mut(tid).ok_or_else(|| BrokerError::UnknownTransactionalId(tid.to_string()))?;
        protocol::validate_producer(meta, pid, epoch).map_err(|e| check_error(tid, e))?;
        Ok(meta)
    }

    /// Register partitions with the producer's current transaction
    /// (Figure 4.c). Opens the transaction if none is ongoing.
    pub fn txn_add_partitions(
        &self,
        tid: &str,
        pid: i64,
        epoch: i32,
        partitions: &[TopicPartition],
    ) -> Result<(), BrokerError> {
        let span = kobs::child_span!(
            self.now_ms(),
            "kbroker.txn",
            "add_partitions",
            partitions = partitions.len(),
        );
        let entered = kobs::ktrace::enter(span);
        let result = self.txn_add_partitions_inner(tid, pid, epoch, partitions);
        drop(entered);
        kobs::ktrace::finish_span(span, self.now_ms() * 1000);
        result
    }

    fn txn_add_partitions_inner(
        &self,
        tid: &str,
        pid: i64,
        epoch: i32,
        partitions: &[TopicPartition],
    ) -> Result<(), BrokerError> {
        let shard = self.inner.txn.shard(tid);
        let mut map = shard.lock();
        let now = self.now_ms();
        let meta = Self::txn_validated(&mut map, tid, pid, epoch)?;
        if let Err(s) = protocol::register_partitions(tid, meta, partitions, now) {
            return Err(BrokerError::InvalidTxnTransition {
                transactional_id: tid.to_string(),
                detail: format!("cannot add partitions in state {s:?}"),
            });
        }
        self.txn_persist(tid, meta)
    }

    /// Commit or abort the producer's current transaction (Figure 4.e/f).
    ///
    /// Returns the producer epoch after completion — bumped by the prepare
    /// barrier (KIP-890-style completion fencing, see [`protocol::prepare`])
    /// — which the producer must adopt for its next transaction.
    pub fn txn_end(
        &self,
        tid: &str,
        pid: i64,
        epoch: i32,
        commit: bool,
    ) -> Result<i32, BrokerError> {
        let shard = self.inner.txn.shard(tid);
        let mut map = shard.lock();
        let meta =
            map.get_mut(tid).ok_or_else(|| BrokerError::UnknownTransactionalId(tid.to_string()))?;
        match protocol::end_request(meta, pid, epoch, commit).map_err(|e| check_error(tid, e))? {
            EndDecision::Prepare => {
                let prepare_span = kobs::child_span!(self.now_ms(), "kbroker.txn", "prepare");
                let entered = kobs::ktrace::enter(prepare_span);
                protocol::prepare(tid, meta, commit);
                // Phase 1: the barrier — once this lands in the txn log the
                // outcome is decided (and the epoch bump fences stragglers).
                let snapshot = meta.clone();
                let persisted = self.txn_persist(tid, &snapshot);
                drop(entered);
                kobs::ktrace::finish_span(prepare_span, self.now_ms() * 1000);
                persisted?;
                // Phase 2: markers + completion.
                let finished = self.txn_finish(tid, snapshot)?;
                let new_epoch = finished.epoch;
                map.insert(tid.to_string(), finished);
                Ok(new_epoch)
            }
            // Resume a decided transaction whose markers may be missing.
            EndDecision::Resume => {
                let snapshot = meta.clone();
                let finished = self.txn_finish(tid, snapshot)?;
                let new_epoch = finished.epoch;
                map.insert(tid.to_string(), finished);
                Ok(new_epoch)
            }
            // Retried requests after a completed transition are idempotent;
            // a commit/abort with no work is a no-op.
            EndDecision::AlreadyDone | EndDecision::NothingToDo => Ok(meta.epoch),
            EndDecision::Illegal => Err(BrokerError::InvalidTxnTransition {
                transactional_id: tid.to_string(),
                detail: format!(
                    "cannot {} in state {:?}",
                    if commit { "commit" } else { "abort" },
                    meta.state
                ),
            }),
        }
    }

    /// Current coordinator state for a transactional id (tests, metrics).
    pub fn txn_state(&self, tid: &str) -> Option<TxnState> {
        self.inner.txn.shard(tid).lock().get(tid).map(|m| m.state)
    }

    /// Producer id and epoch for a transactional id (tests).
    pub fn txn_producer(&self, tid: &str) -> Option<(i64, i32)> {
        self.inner.txn.shard(tid).lock().get(tid).map(|m| (m.producer_id, m.epoch))
    }

    /// Abort every Ongoing transaction older than its timeout. The epoch is
    /// bumped so the stalled producer is fenced when it returns (§4.2.2 —
    /// "the transaction coordinator itself could also abort an ongoing
    /// transaction when the transaction times out"). Returns the number of
    /// transactions aborted.
    pub fn abort_expired_transactions(&self) -> usize {
        let now = self.now_ms();
        let mut aborted = 0;
        for shard in &self.inner.txn.shards {
            let mut map = shard.lock();
            // Sorted, not HashMap order: the abort order decides transaction-
            // log append order and emitted events, which must replay
            // byte-identically for a fixed seed.
            let mut expired: Vec<String> = map
                .iter()
                .filter(|(_, m)| protocol::is_expired(m, now))
                .map(|(tid, _)| tid.clone())
                .collect();
            expired.sort_unstable();
            for tid in expired {
                let mut meta = map.get(&tid).cloned().expect("still present");
                // The prepare bumps the epoch, so the abort markers fence the
                // stalled producer at every partition log too.
                protocol::prepare(&tid, &mut meta, false);
                if self.txn_persist(&tid, &meta).is_err() {
                    continue; // coordinator log unavailable; retry later
                }
                if let Ok(finished) = self.txn_finish(&tid, meta) {
                    kobs::counter!("kbroker.txn.expired").add(1);
                    kobs::event!(
                        now,
                        "kbroker.txn",
                        "txn_expired",
                        producer_id = finished.producer_id,
                        new_epoch = finished.epoch,
                    );
                    map.insert(tid, finished);
                    aborted += 1;
                }
            }
        }
        aborted
    }

    /// Rebuild every coordinator shard from the transaction log and finish
    /// transactions already past their barrier — the coordinator-failover
    /// path (§4.2.1). Invoked by broker kill/restore.
    pub(crate) fn txn_recover_all(&self) {
        for (i, shard) in self.inner.txn.shards.iter().enumerate() {
            let tp = TopicPartition { topic: TXN_TOPIC, partition: i as u32 };
            // Unavailable txn-log partition ⇒ coordinator unavailable; its
            // ids simply cannot make progress until brokers return.
            let Ok(Some(_)) = self.leader_of(&tp) else { continue };
            let mut rebuilt: HashMap<String, TxnMetadata> = HashMap::new();
            let Ok(mut pos) = self.earliest_offset(&tp) else { continue };
            // A log that cannot be read to its end rebuilds nothing.
            let isolation = IsolationLevel::ReadUncommitted;
            let Ok(()) = self.read_log(&tp, &mut pos, i64::MAX, 1024, isolation, |rec| {
                let (Some(k), Some(v)) = (&rec.key, &rec.value) else { return };
                if let (Ok(tid), Some(meta)) = (std::str::from_utf8(k), TxnMetadata::decode(v)) {
                    rebuilt.insert(tid.to_owned(), meta);
                }
            }) else {
                continue;
            };
            let mut map = shard.lock();
            *map = rebuilt;
            // Roll forward decided transactions (markers may be missing).
            // Sorted for deterministic marker/event order on replay.
            let mut pending: Vec<String> = map
                .iter()
                .filter(|(_, m)| protocol::init_action(m.state) == InitAction::RollForward)
                .map(|(tid, _)| tid.clone())
                .collect();
            pending.sort_unstable();
            for tid in pending {
                let meta = map.get(&tid).cloned().expect("present");
                if let Ok(finished) = self.txn_finish(&tid, meta) {
                    map.insert(tid, finished);
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::topic::TopicConfig;
    use std::collections::BTreeSet;

    fn cluster() -> Cluster {
        Cluster::builder().brokers(3).replication(3).build()
    }

    fn rec(key: &str, val: &str) -> Record {
        Record::of_str(key, val, 0)
    }

    fn committed_count(c: &Cluster, tp: &TopicPartition) -> usize {
        c.fetch(tp, 0, 10_000, IsolationLevel::ReadCommitted).unwrap().count()
    }

    #[test]
    fn init_then_commit_cycle() {
        let c = cluster();
        c.create_topic("out", TopicConfig::new(2)).unwrap();
        let (pid, epoch) = c.txn_init_producer("app-1", 60_000).unwrap();
        assert_eq!(epoch, 0);
        let tp0 = TopicPartition::new("out", 0);
        let tp1 = TopicPartition::new("out", 1);
        c.txn_add_partitions("app-1", pid, epoch, &[tp0, tp1]).unwrap();
        assert_eq!(c.txn_state("app-1"), Some(TxnState::Ongoing));
        c.produce(&tp0, BatchMeta::transactional(pid, epoch, 0), vec![rec("k", "v")]).unwrap();
        assert_eq!(committed_count(&c, &tp0), 0, "invisible before commit");
        c.txn_end("app-1", pid, epoch, true).unwrap();
        assert_eq!(c.txn_state("app-1"), Some(TxnState::CompleteCommit));
        assert_eq!(committed_count(&c, &tp0), 1);
        // Registered-but-unwritten partition got a marker harmlessly.
        assert_eq!(committed_count(&c, &tp1), 0);
    }

    #[test]
    fn abort_hides_data() {
        let c = cluster();
        c.create_topic("out", TopicConfig::new(1)).unwrap();
        let tp = TopicPartition::new("out", 0);
        let (pid, epoch) = c.txn_init_producer("app", 60_000).unwrap();
        c.txn_add_partitions("app", pid, epoch, std::slice::from_ref(&tp)).unwrap();
        c.produce(&tp, BatchMeta::transactional(pid, epoch, 0), vec![rec("k", "v")]).unwrap();
        c.txn_end("app", pid, epoch, false).unwrap();
        assert_eq!(c.txn_state("app"), Some(TxnState::CompleteAbort));
        assert_eq!(committed_count(&c, &tp), 0);
    }

    #[test]
    fn second_txn_after_commit() {
        let c = cluster();
        c.create_topic("out", TopicConfig::new(1)).unwrap();
        let tp = TopicPartition::new("out", 0);
        let (pid, mut epoch) = c.txn_init_producer("app", 60_000).unwrap();
        for _ in 0..3 {
            c.txn_add_partitions("app", pid, epoch, std::slice::from_ref(&tp)).unwrap();
            c.produce(&tp, BatchMeta::transactional(pid, epoch, 0), vec![rec("k", "v")]).unwrap();
            // Each completion bumps the epoch; the producer adopts it.
            epoch = c.txn_end("app", pid, epoch, true).unwrap();
        }
        assert_eq!(committed_count(&c, &tp), 3);
    }

    #[test]
    fn reinit_bumps_epoch_and_fences_zombie() {
        let c = cluster();
        c.create_topic("out", TopicConfig::new(1)).unwrap();
        let tp = TopicPartition::new("out", 0);
        let (pid, e0) = c.txn_init_producer("app", 60_000).unwrap();
        c.txn_add_partitions("app", pid, e0, std::slice::from_ref(&tp)).unwrap();
        // A "new incarnation" registers the same transactional id. The
        // dangling transaction's abort bumps once (fencing markers) and the
        // re-registration bumps again.
        let (pid2, e1) = c.txn_init_producer("app", 60_000).unwrap();
        assert_eq!(pid2, pid, "same producer id across incarnations");
        assert!(e1 > e0, "epoch bumped");
        // The zombie's coordinator calls are rejected.
        assert!(matches!(
            c.txn_add_partitions("app", pid, e0, std::slice::from_ref(&tp)),
            Err(BrokerError::ProducerFenced { .. })
        ));
        assert!(matches!(c.txn_end("app", pid, e0, true), Err(BrokerError::ProducerFenced { .. })));
        // And the zombie's data writes are rejected by the partition log
        // (its epoch is stale there too, because init wrote markers… only if
        // data existed; write with new epoch first to record it).
        c.txn_add_partitions("app", pid, e1, std::slice::from_ref(&tp)).unwrap();
        c.produce(&tp, BatchMeta::transactional(pid, e1, 0), vec![rec("k", "v")]).unwrap();
        assert!(matches!(
            c.produce(&tp, BatchMeta::transactional(pid, e0, 0), vec![rec("k", "z")]),
            Err(BrokerError::Log(klog::LogError::ProducerFenced { .. }))
        ));
    }

    #[test]
    fn reinit_aborts_ongoing_txn_of_previous_incarnation() {
        let c = cluster();
        c.create_topic("out", TopicConfig::new(1)).unwrap();
        let tp = TopicPartition::new("out", 0);
        let (pid, e0) = c.txn_init_producer("app", 60_000).unwrap();
        c.txn_add_partitions("app", pid, e0, std::slice::from_ref(&tp)).unwrap();
        c.produce(&tp, BatchMeta::transactional(pid, e0, 0), vec![rec("k", "orphan")]).unwrap();
        // Crash & restart: init must abort the dangling transaction.
        let (_, e1) = c.txn_init_producer("app", 60_000).unwrap();
        assert!(e1 > e0);
        assert_eq!(committed_count(&c, &tp), 0, "orphaned txn data aborted");
        // LSO released: read-committed consumers are not blocked forever.
        assert_eq!(c.last_stable_offset(&tp).unwrap(), c.latest_offset(&tp).unwrap());
    }

    #[test]
    fn commit_retry_is_idempotent() {
        let c = cluster();
        c.create_topic("out", TopicConfig::new(1)).unwrap();
        let tp = TopicPartition::new("out", 0);
        let (pid, epoch) = c.txn_init_producer("app", 60_000).unwrap();
        c.txn_add_partitions("app", pid, epoch, std::slice::from_ref(&tp)).unwrap();
        c.produce(&tp, BatchMeta::transactional(pid, epoch, 0), vec![rec("k", "v")]).unwrap();
        let bumped = c.txn_end("app", pid, epoch, true).unwrap();
        assert_eq!(bumped, epoch + 1, "completion bumps the epoch");
        // Retried ack-lost commit still carries the old epoch: idempotent,
        // and the response re-delivers the bumped epoch.
        assert_eq!(c.txn_end("app", pid, epoch, true).unwrap(), bumped);
        assert_eq!(committed_count(&c, &tp), 1);
        // But a mismatched retry (abort after commit) is fenced.
        assert!(matches!(
            c.txn_end("app", pid, epoch, false),
            Err(BrokerError::ProducerFenced { .. })
        ));
    }

    #[test]
    fn empty_commit_is_noop() {
        let c = cluster();
        let (pid, epoch) = c.txn_init_producer("app", 60_000).unwrap();
        c.txn_end("app", pid, epoch, true).unwrap();
        assert_eq!(c.txn_state("app"), Some(TxnState::Empty));
    }

    #[test]
    fn unknown_tid_rejected() {
        let c = cluster();
        assert!(matches!(
            c.txn_end("ghost", 0, 0, true),
            Err(BrokerError::UnknownTransactionalId(_))
        ));
    }

    #[test]
    fn expired_txn_aborted_and_producer_fenced() {
        let clock = simkit::ManualClock::new();
        let c = Cluster::builder().brokers(1).replication(1).clock(clock.shared()).build();
        c.create_topic("out", TopicConfig::new(1)).unwrap();
        let tp = TopicPartition::new("out", 0);
        let (pid, epoch) = c.txn_init_producer("app", 1_000).unwrap();
        c.txn_add_partitions("app", pid, epoch, std::slice::from_ref(&tp)).unwrap();
        c.produce(&tp, BatchMeta::transactional(pid, epoch, 0), vec![rec("k", "v")]).unwrap();
        clock.advance(500);
        assert_eq!(c.abort_expired_transactions(), 0, "not expired yet");
        clock.advance(1_000);
        assert_eq!(c.abort_expired_transactions(), 1);
        assert_eq!(committed_count(&c, &tp), 0);
        // The stalled producer is fenced on its next coordinator call.
        assert!(matches!(
            c.txn_end("app", pid, epoch, true),
            Err(BrokerError::ProducerFenced { .. })
        ));
    }

    #[test]
    fn coordinator_failover_preserves_completed_state() {
        let c = cluster();
        c.create_topic("out", TopicConfig::new(1)).unwrap();
        let tp = TopicPartition::new("out", 0);
        let (pid, epoch) = c.txn_init_producer("app", 60_000).unwrap();
        c.txn_add_partitions("app", pid, epoch, std::slice::from_ref(&tp)).unwrap();
        c.produce(&tp, BatchMeta::transactional(pid, epoch, 0), vec![rec("k", "v")]).unwrap();
        let epoch = c.txn_end("app", pid, epoch, true).unwrap();
        // Kill every broker's coordinator state by failing broker 0 (forces
        // txn_recover_all) — state must survive via the txn log.
        c.kill_broker(0);
        assert_eq!(c.txn_state("app"), Some(TxnState::CompleteCommit));
        assert_eq!(c.txn_producer("app"), Some((pid, epoch)));
        assert_eq!(committed_count(&c, &tp), 1);
        // The producer can carry on transacting with the new coordinator.
        c.txn_add_partitions("app", pid, epoch, std::slice::from_ref(&tp)).unwrap();
        c.produce(&tp, BatchMeta::transactional(pid, epoch, 0), vec![rec("k", "w")]).unwrap();
        c.txn_end("app", pid, epoch, true).unwrap();
        assert_eq!(committed_count(&c, &tp), 2);
    }

    #[test]
    fn failover_rolls_forward_prepared_commit() {
        // Simulate a coordinator crash between the PrepareCommit barrier and
        // the marker writes by constructing that state directly in the log.
        let c = cluster();
        c.create_topic("out", TopicConfig::new(1)).unwrap();
        let tp = TopicPartition::new("out", 0);
        let (pid, epoch) = c.txn_init_producer("app", 60_000).unwrap();
        c.txn_add_partitions("app", pid, epoch, std::slice::from_ref(&tp)).unwrap();
        c.produce(&tp, BatchMeta::transactional(pid, epoch, 0), vec![rec("k", "v")]).unwrap();
        // Write the PrepareCommit barrier record manually (phase 1 only).
        let meta = TxnMetadata {
            producer_id: pid,
            epoch,
            state: TxnState::PrepareCommit,
            partitions: [tp].into_iter().collect(),
            txn_start_ms: 0,
            timeout_ms: 60_000,
        };
        c.txn_persist("app", &meta).unwrap();
        assert_eq!(committed_count(&c, &tp), 0, "markers not yet written");
        // Coordinator failover: recovery must finish phase 2.
        c.kill_broker(1);
        assert_eq!(c.txn_state("app"), Some(TxnState::CompleteCommit));
        assert_eq!(committed_count(&c, &tp), 1, "rolled forward after barrier");
    }

    #[test]
    fn failover_rolls_forward_prepared_abort() {
        let c = cluster();
        c.create_topic("out", TopicConfig::new(1)).unwrap();
        let tp = TopicPartition::new("out", 0);
        let (pid, epoch) = c.txn_init_producer("app", 60_000).unwrap();
        c.txn_add_partitions("app", pid, epoch, std::slice::from_ref(&tp)).unwrap();
        c.produce(&tp, BatchMeta::transactional(pid, epoch, 0), vec![rec("k", "v")]).unwrap();
        let meta = TxnMetadata {
            producer_id: pid,
            epoch,
            state: TxnState::PrepareAbort,
            partitions: [tp].into_iter().collect(),
            txn_start_ms: 0,
            timeout_ms: 60_000,
        };
        c.txn_persist("app", &meta).unwrap();
        c.kill_broker(2);
        assert_eq!(c.txn_state("app"), Some(TxnState::CompleteAbort));
        assert_eq!(committed_count(&c, &tp), 0);
        // LSO released after the abort marker.
        assert_eq!(c.last_stable_offset(&tp).unwrap(), c.latest_offset(&tp).unwrap());
    }

    #[test]
    fn illegal_transition_records_violation() {
        klog::checks::take_violations();
        let mut meta = TxnMetadata {
            producer_id: 1,
            epoch: 0,
            state: TxnState::Ongoing,
            partitions: BTreeSet::new(),
            txn_start_ms: 0,
            timeout_ms: 60_000,
        };
        // A buggy coordinator jumps straight to CompleteCommit.
        protocol::apply_transition("bad", &mut meta, TxnState::CompleteCommit);
        let v = klog::checks::take_violations();
        assert!(v.iter().any(|v| v.invariant == "txn-state-machine"), "{v:?}");
    }

    #[test]
    fn distinct_tids_get_distinct_pids() {
        let c = cluster();
        let (p1, _) = c.txn_init_producer("a", 60_000).unwrap();
        let (p2, _) = c.txn_init_producer("b", 60_000).unwrap();
        assert_ne!(p1, p2);
    }
}
