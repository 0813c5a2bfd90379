//! Pure transition functions of the EOS commit protocol (§4.1–§4.2).
//!
//! Everything in this module is side-effect-free: no clock, no log appends,
//! no locks, no metrics. The effectful layers — [`crate::txn`] for the
//! runtime coordinator, `kcheck` for the exhaustive model checker — drive
//! *these same functions*, so the state machine the checker explores is the
//! state machine the broker ships, not a parallel re-implementation.
//!
//! The split mirrors the protocol's own structure:
//!
//! * **Coordinator state machine** (§4.2.1, Figure 4): [`TxnState`],
//!   [`transition_legal`], [`apply_transition`], and the per-request
//!   decision functions [`validate_producer`], [`register_partitions`],
//!   [`end_decision`], [`prepare`], [`decided_marker`], [`complete`],
//!   [`init_action`], and [`fence`]. The runtime interleaves transaction-log
//!   persists and marker RPCs *between* these calls; the checker interleaves
//!   crashes and message loss at exactly the same points.
//! * **Replica offset rules** (§4.2.2): [`replication::replicated_high_watermark`]
//!   and [`replication::offsets_legal`] — the `LSO ≤ HW ≤ LEO` ordering every
//!   ISR member must preserve.
//!
//! The producer-side sequence/epoch rules (§4.1) already live as pure code
//! in [`klog::producer_state::ProducerStateTable`]; both the runtime
//! partition log and the checker consume that table directly.

// The pure layer must never panic on a Result/Option — every outcome is a
// value the callers (runtime coordinator and model checker) branch on.
#![deny(clippy::unwrap_used)]

use crate::topic::{Topic, TopicPartition};
use bytes::Bytes;
use klog::batch::ControlType;
use klog::codec::{Reader, Writer};
use klog::invariant;
use std::collections::BTreeSet;

/// Coordinator-side transaction states (§4.2.1, Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnState {
    /// Registered, no transaction in flight.
    Empty,
    /// Partitions registered; data may be flowing.
    Ongoing,
    /// Commit decided and durably logged; markers may still be in flight.
    PrepareCommit,
    /// Abort decided and durably logged; markers may still be in flight.
    PrepareAbort,
    /// Commit finished (markers acked).
    CompleteCommit,
    /// Abort finished (markers acked).
    CompleteAbort,
}

impl TxnState {
    /// Every state, indexed by its one-byte transaction-log tag.
    pub const BY_TAG: [TxnState; 6] = [
        TxnState::Empty,
        TxnState::Ongoing,
        TxnState::PrepareCommit,
        TxnState::PrepareAbort,
        TxnState::CompleteCommit,
        TxnState::CompleteAbort,
    ];
}

/// Legal coordinator state transitions (§4.2.1, Figure 4). The prepare
/// states are one-way: once the barrier is logged, the only exit is the
/// matching complete state — in particular there is no edge from `Ongoing`
/// straight to `CompleteCommit`/`CompleteAbort` (markers must be preceded
/// by a durable prepare record).
pub fn transition_legal(from: TxnState, to: TxnState) -> bool {
    use TxnState::{CompleteAbort, CompleteCommit, Empty, Ongoing, PrepareAbort, PrepareCommit};
    matches!(
        (from, to),
        // An idle id may re-register (reset to Empty, epoch bump) or open
        // a new transaction.
        (Empty | CompleteCommit | CompleteAbort, Empty | Ongoing)
            // An open transaction may register more partitions or reach
            // its phase-1 decision barrier.
            | (Ongoing, Ongoing | PrepareCommit | PrepareAbort)
            // Phase 3: markers acked, transaction closed.
            | (PrepareCommit, CompleteCommit)
            | (PrepareAbort, CompleteAbort)
    )
}

/// Apply a coordinator state transition, recording an invariant violation
/// if the edge is not in the §4.2.1 state machine. All transitions funnel
/// through here so illegal ones cannot slip in silently.
pub fn apply_transition(tid: &str, meta: &mut TxnMetadata, to: TxnState) {
    invariant!(
        transition_legal(meta.state, to),
        "txn-state-machine",
        "tid `{tid}`: illegal coordinator transition {:?} -> {to:?}",
        meta.state
    );
    meta.state = to;
}

/// Everything the coordinator tracks per transactional id. Note it stores
/// only *metadata* — never the records sent within the transaction (§4.2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnMetadata {
    pub producer_id: i64,
    pub epoch: i32,
    pub state: TxnState,
    /// Partitions registered with the current transaction.
    pub partitions: BTreeSet<TopicPartition>,
    /// When the current transaction became Ongoing (for expiry).
    pub txn_start_ms: i64,
    pub timeout_ms: i64,
}

impl TxnMetadata {
    /// Fresh metadata for a never-before-seen transactional id.
    pub fn fresh(producer_id: i64, timeout_ms: i64) -> TxnMetadata {
        TxnMetadata {
            producer_id,
            epoch: -1, // bumped to 0 by the first `fence`
            state: TxnState::Empty,
            partitions: BTreeSet::new(),
            txn_start_ms: 0,
            timeout_ms,
        }
    }

    /// Serialize to the transaction-log record value: the fixed fields,
    /// then each registered topic's name once, followed by its partitions.
    pub fn encode(&self) -> Bytes {
        // Room for a topic header per partition, the most a record holds, so
        // the buffer is allocated once.
        let names: usize = self.partitions.iter().map(|tp| 12 + tp.topic.len()).sum();
        let mut w = Writer::with_capacity(29 + names);
        w.put_i64(self.producer_id);
        w.put_i32(self.epoch);
        w.put_u8(self.state as u8);
        w.put_i64(self.txn_start_ms);
        w.put_i64(self.timeout_ms);
        let mut parts = self.partitions.iter().peekable();
        while let Some(&&TopicPartition { topic, .. }) = parts.peek() {
            let run = parts.clone().take_while(|tp| tp.topic == topic).count();
            w.put_bytes(topic.as_bytes());
            w.put_count(run);
            for tp in parts.by_ref().take(run) {
                w.put_u32(tp.partition);
            }
        }
        Bytes::from(w.finish())
    }

    /// Parse a transaction-log record value.
    pub fn decode(value: &[u8]) -> Option<TxnMetadata> {
        let mut r = Reader::new(value);
        let producer_id = r.i64()?;
        let epoch = r.i32()?;
        let state = *TxnState::BY_TAG.get(usize::from(r.u8()?))?;
        let txn_start_ms = r.i64()?;
        let timeout_ms = r.i64()?;
        let mut partitions = BTreeSet::new();
        while r.remaining() > 0 {
            let topic = Topic::new(r.str()?);
            for _ in 0..r.count()? {
                partitions.insert(TopicPartition { topic, partition: r.u32()? });
            }
        }
        Some(TxnMetadata { producer_id, epoch, state, partitions, txn_start_ms, timeout_ms })
    }
}

/// Why a coordinator request referencing `(pid, epoch)` was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProducerCheckError {
    /// Producer id does not match the one registered for this id.
    ProducerIdMismatch { expected: i64, got: i64 },
    /// The request's epoch is older than the coordinator's — the producer
    /// was fenced by a newer incarnation (§4.2.1 zombie fencing).
    Fenced { current: i32, got: i32 },
    /// The request's epoch is *newer* than the coordinator's — the caller
    /// fabricated an epoch it was never granted.
    EpochFromFuture { current: i32, got: i32 },
}

/// Validate a coordinator request against the registered metadata: the
/// producer id must match and the epoch must be current (§4.2.1).
pub fn validate_producer(
    meta: &TxnMetadata,
    pid: i64,
    epoch: i32,
) -> Result<(), ProducerCheckError> {
    if meta.producer_id != pid {
        return Err(ProducerCheckError::ProducerIdMismatch {
            expected: meta.producer_id,
            got: pid,
        });
    }
    if epoch < meta.epoch {
        return Err(ProducerCheckError::Fenced { current: meta.epoch, got: epoch });
    }
    if epoch > meta.epoch {
        return Err(ProducerCheckError::EpochFromFuture { current: meta.epoch, got: epoch });
    }
    Ok(())
}

/// Register partitions with the current transaction (Figure 4.c), opening
/// it if none is ongoing. On success the caller persists the metadata to
/// the transaction log before acking — always, even when every partition
/// was already registered: the metadata is mutated here, before the
/// persist, so a retry after a failed persist must write it again.
///
/// Fails when the transaction is already past its phase-1 barrier: a
/// decided transaction can never grow.
pub fn register_partitions(
    tid: &str,
    meta: &mut TxnMetadata,
    partitions: &[TopicPartition],
    now_ms: i64,
) -> Result<(), TxnState> {
    match meta.state {
        TxnState::Empty | TxnState::CompleteCommit | TxnState::CompleteAbort => {
            apply_transition(tid, meta, TxnState::Ongoing);
            meta.txn_start_ms = now_ms;
            meta.partitions.clear();
        }
        TxnState::Ongoing => {}
        s @ (TxnState::PrepareCommit | TxnState::PrepareAbort) => return Err(s),
    }
    meta.partitions.extend(partitions);
    Ok(())
}

/// What an EndTxn(commit|abort) request requires in the current state
/// (Figure 4.e/f).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndDecision {
    /// Phase 1: log the Prepare* barrier, then write markers and complete.
    Prepare,
    /// The barrier is already durable with the same outcome; (re)write
    /// markers and complete — the coordinator-resume path.
    Resume,
    /// Retried request after a completed transition: idempotent success.
    AlreadyDone,
    /// No transaction in flight: success without any work.
    NothingToDo,
    /// The request conflicts with a decided outcome (e.g. abort after the
    /// commit barrier landed).
    Illegal,
}

/// Decide how to serve an EndTxn request without performing it.
pub fn end_decision(state: TxnState, commit: bool) -> EndDecision {
    match (state, commit) {
        (TxnState::Ongoing, _) => EndDecision::Prepare,
        (TxnState::PrepareCommit, true) | (TxnState::PrepareAbort, false) => EndDecision::Resume,
        (TxnState::CompleteCommit, true) | (TxnState::CompleteAbort, false) => {
            EndDecision::AlreadyDone
        }
        (TxnState::Empty, _) => EndDecision::NothingToDo,
        _ => EndDecision::Illegal,
    }
}

/// Phase 1 of the two-phase commit (§4.2.2): move an Ongoing transaction to
/// its Prepare* barrier state. The caller must persist the result to the
/// transaction log before writing any marker.
///
/// Preparing also **bumps the producer epoch**, and the markers fanned out
/// in phase 2 carry the bumped epoch. This is the server-side fencing of
/// Kafka's KIP-890: once any marker lands on a partition, that partition's
/// producer-state table knows the new epoch, so a delayed data append from
/// before the completion (a "fenced-producer late append") is rejected at
/// the log instead of silently opening a dangling transaction that the
/// *next* transaction's marker would commit. The EndTxn response returns
/// the new epoch to the producer, and [`end_request`] recognises a retried
/// EndTxn carrying `current - 1`.
pub fn prepare(tid: &str, meta: &mut TxnMetadata, commit: bool) {
    meta.epoch += 1;
    apply_transition(
        tid,
        meta,
        if commit { TxnState::PrepareCommit } else { TxnState::PrepareAbort },
    );
}

/// Validate an EndTxn request and decide how to serve it.
///
/// Because [`prepare`] bumps the epoch, a producer that never saw its
/// EndTxn ack legitimately retries with `current - 1`; such a retry is
/// accepted only when the coordinator is past the barrier with the *same*
/// outcome (Resume/AlreadyDone). Anything else at an old epoch — including
/// a delayed EndTxn arriving while the producer's next transaction is
/// Ongoing — is fenced.
pub fn end_request(
    meta: &TxnMetadata,
    pid: i64,
    epoch: i32,
    commit: bool,
) -> Result<EndDecision, ProducerCheckError> {
    if meta.producer_id != pid {
        return Err(ProducerCheckError::ProducerIdMismatch {
            expected: meta.producer_id,
            got: pid,
        });
    }
    if epoch > meta.epoch {
        return Err(ProducerCheckError::EpochFromFuture { current: meta.epoch, got: epoch });
    }
    if epoch == meta.epoch {
        return Ok(end_decision(meta.state, commit));
    }
    if epoch == meta.epoch - 1 {
        // Retry of the request that performed the bump: only valid once the
        // matching barrier is durable.
        if let d @ (EndDecision::Resume | EndDecision::AlreadyDone) =
            end_decision(meta.state, commit)
        {
            return Ok(d);
        }
    }
    Err(ProducerCheckError::Fenced { current: meta.epoch, got: epoch })
}

/// The marker type a decided (Prepare*) transaction must fan out, or `None`
/// when the state holds no decision — in which case writing any marker
/// would violate the §4.2.2 barrier rule.
pub fn decided_marker(state: TxnState) -> Option<ControlType> {
    match state {
        TxnState::PrepareCommit => Some(ControlType::Commit),
        TxnState::PrepareAbort => Some(ControlType::Abort),
        _ => None,
    }
}

/// Phase 3: all markers written and acked — close the transaction. The
/// caller persists the result.
pub fn complete(tid: &str, meta: &mut TxnMetadata) {
    let done = match meta.state {
        TxnState::PrepareAbort => TxnState::CompleteAbort,
        // Funnel everything else through the Commit edge so an illegal
        // source state is recorded by `apply_transition`.
        _ => TxnState::CompleteCommit,
    };
    apply_transition(tid, meta, done);
    meta.partitions.clear();
}

/// What registering a new producer incarnation must do about the previous
/// incarnation's transaction before bumping the epoch (§4.2.1, Figure 4.b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitAction {
    /// Nothing left behind.
    None,
    /// An open transaction must be aborted (prepare-abort, markers,
    /// complete) first.
    AbortOngoing,
    /// A decided transaction must be rolled forward (markers may be
    /// missing) first.
    RollForward,
}

/// Decide the recovery step `txn_init_producer` owes the previous
/// incarnation.
pub fn init_action(state: TxnState) -> InitAction {
    match state {
        TxnState::Ongoing => InitAction::AbortOngoing,
        TxnState::PrepareCommit | TxnState::PrepareAbort => InitAction::RollForward,
        _ => InitAction::None,
    }
}

/// Bump the epoch and reset to `Empty`, fencing every older incarnation
/// (§4.2.1). The caller persists the result; the returned pair is what the
/// new incarnation must use.
pub fn fence(tid: &str, meta: &mut TxnMetadata, timeout_ms: i64) -> (i64, i32) {
    meta.epoch += 1;
    apply_transition(tid, meta, TxnState::Empty);
    meta.timeout_ms = timeout_ms;
    (meta.producer_id, meta.epoch)
}

/// Whether an Ongoing transaction has outlived its timeout and must be
/// aborted by the coordinator (§4.2.2).
pub fn is_expired(meta: &TxnMetadata, now_ms: i64) -> bool {
    meta.state == TxnState::Ongoing && now_ms - meta.txn_start_ms > meta.timeout_ms
}

/// Replica-side offset rules (§4.2.2): high-watermark advancement and the
/// `LSO ≤ HW ≤ LEO` ordering.
pub mod replication {
    use klog::Offset;

    /// The high watermark a leader may advance to: the minimum log-end
    /// offset across the in-sync replica set (all of which replicated
    /// synchronously). An empty ISR pins the watermark at zero.
    pub fn replicated_high_watermark(isr_leos: impl IntoIterator<Item = Offset>) -> Offset {
        isr_leos.into_iter().min().unwrap_or(0)
    }

    /// The §4.2 offset ordering every replica must satisfy at every
    /// observation point: `last stable offset ≤ high watermark ≤ log end`.
    pub fn offsets_legal(lso: Offset, hw: Offset, leo: Offset) -> bool {
        lso <= hw && hw <= leo
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn transition_table_matches_state_machine() {
        use TxnState::{
            CompleteAbort, CompleteCommit, Empty, Ongoing, PrepareAbort, PrepareCommit,
        };
        assert!(transition_legal(Empty, Ongoing));
        assert!(transition_legal(Ongoing, PrepareCommit));
        assert!(transition_legal(Ongoing, PrepareAbort));
        assert!(transition_legal(PrepareCommit, CompleteCommit));
        assert!(transition_legal(PrepareAbort, CompleteAbort));
        assert!(transition_legal(CompleteCommit, Ongoing));
        assert!(transition_legal(CompleteAbort, Empty));
        // No marker write without a durable prepare record.
        assert!(!transition_legal(Ongoing, CompleteCommit));
        assert!(!transition_legal(Ongoing, CompleteAbort));
        // Decided transactions cannot reopen or flip their outcome.
        assert!(!transition_legal(PrepareCommit, Ongoing));
        assert!(!transition_legal(PrepareCommit, CompleteAbort));
        assert!(!transition_legal(PrepareAbort, CompleteCommit));
        // Nothing to decide from an idle id.
        assert!(!transition_legal(Empty, PrepareCommit));
    }

    #[test]
    fn metadata_encode_decode_round_trip() {
        let partitions: BTreeSet<TopicPartition> =
            [("a", 0), ("a", 5), ("b", 3)].map(|(t, p)| TopicPartition::new(t, p)).into();
        for state in TxnState::BY_TAG {
            let meta = TxnMetadata {
                producer_id: 42,
                epoch: 7,
                state,
                partitions: partitions.clone(),
                txn_start_ms: 12345,
                timeout_ms: 60_000,
            };
            let value = meta.encode();
            // 29 fixed bytes; each topic's name and count once; 4 bytes a
            // partition.
            assert_eq!(value.len(), 29 + 2 * (4 + 1 + 4) + 3 * 4);
            assert_eq!(TxnMetadata::decode(&value), Some(meta));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(TxnMetadata::decode(b"not|valid"), None);
        assert_eq!(TxnMetadata::decode(&[0xff, 0xfe]), None);
        let mut unknown_state = TxnMetadata::fresh(1, 1).encode().to_vec();
        unknown_state[12] = 6;
        assert_eq!(TxnMetadata::decode(&unknown_state), None);
    }

    #[test]
    fn validate_producer_fences_and_rejects_future() {
        let meta = TxnMetadata { epoch: 3, ..TxnMetadata::fresh(7, 1_000) };
        assert_eq!(validate_producer(&meta, 7, 3), Ok(()));
        assert_eq!(
            validate_producer(&meta, 8, 3),
            Err(ProducerCheckError::ProducerIdMismatch { expected: 7, got: 8 })
        );
        assert_eq!(
            validate_producer(&meta, 7, 2),
            Err(ProducerCheckError::Fenced { current: 3, got: 2 })
        );
        assert_eq!(
            validate_producer(&meta, 7, 4),
            Err(ProducerCheckError::EpochFromFuture { current: 3, got: 4 })
        );
    }

    #[test]
    fn register_opens_then_extends() {
        let mut meta = TxnMetadata::fresh(1, 1_000);
        fence("t", &mut meta, 1_000);
        let tp0 = TopicPartition::new("out", 0);
        let tp1 = TopicPartition::new("out", 1);
        assert_eq!(register_partitions("t", &mut meta, std::slice::from_ref(&tp0), 5), Ok(()));
        assert_eq!(meta.state, TxnState::Ongoing);
        assert_eq!(meta.txn_start_ms, 5);
        // A retried registration of the same partition succeeds too, and its
        // caller logs it again: the first attempt's persist may have failed
        // after this metadata was already mutated.
        assert_eq!(register_partitions("t", &mut meta, std::slice::from_ref(&tp0), 9), Ok(()));
        assert_eq!(meta.txn_start_ms, 5, "extend does not restart the txn clock");
        assert_eq!(register_partitions("t", &mut meta, std::slice::from_ref(&tp1), 9), Ok(()));
        assert_eq!(meta.partitions.len(), 2);
        prepare("t", &mut meta, true);
        assert_eq!(
            register_partitions("t", &mut meta, std::slice::from_ref(&tp0), 10),
            Err(TxnState::PrepareCommit),
            "decided transactions cannot grow"
        );
    }

    #[test]
    fn end_decision_covers_every_state() {
        use TxnState::{
            CompleteAbort, CompleteCommit, Empty, Ongoing, PrepareAbort, PrepareCommit,
        };
        assert_eq!(end_decision(Ongoing, true), EndDecision::Prepare);
        assert_eq!(end_decision(Ongoing, false), EndDecision::Prepare);
        assert_eq!(end_decision(PrepareCommit, true), EndDecision::Resume);
        assert_eq!(end_decision(PrepareAbort, false), EndDecision::Resume);
        assert_eq!(end_decision(CompleteCommit, true), EndDecision::AlreadyDone);
        assert_eq!(end_decision(CompleteAbort, false), EndDecision::AlreadyDone);
        assert_eq!(end_decision(Empty, true), EndDecision::NothingToDo);
        assert_eq!(end_decision(Empty, false), EndDecision::NothingToDo);
        // Flipped outcome after the barrier is illegal.
        assert_eq!(end_decision(PrepareCommit, false), EndDecision::Illegal);
        assert_eq!(end_decision(PrepareAbort, true), EndDecision::Illegal);
        assert_eq!(end_decision(CompleteCommit, false), EndDecision::Illegal);
        assert_eq!(end_decision(CompleteAbort, true), EndDecision::Illegal);
    }

    #[test]
    fn end_request_accepts_one_epoch_old_retries_only_past_barrier() {
        let mut meta = TxnMetadata::fresh(7, 1_000);
        fence("t", &mut meta, 1_000); // epoch 0
        register_partitions("t", &mut meta, &[TopicPartition::new("out", 0)], 0).unwrap();
        assert_eq!(end_request(&meta, 7, 0, true), Ok(EndDecision::Prepare));
        prepare("t", &mut meta, true); // bumps to epoch 1
        assert_eq!(meta.epoch, 1);
        // Retry with the pre-bump epoch resumes; mismatched outcome fenced.
        assert_eq!(end_request(&meta, 7, 0, true), Ok(EndDecision::Resume));
        assert_eq!(
            end_request(&meta, 7, 0, false),
            Err(ProducerCheckError::Fenced { current: 1, got: 0 })
        );
        complete("t", &mut meta);
        assert_eq!(end_request(&meta, 7, 0, true), Ok(EndDecision::AlreadyDone));
        assert_eq!(end_request(&meta, 7, 1, true), Ok(EndDecision::AlreadyDone));
        // Next transaction opens at the bumped epoch; a delayed EndTxn from
        // the previous epoch must NOT decide it.
        register_partitions("t", &mut meta, &[TopicPartition::new("out", 0)], 0).unwrap();
        assert_eq!(
            end_request(&meta, 7, 0, true),
            Err(ProducerCheckError::Fenced { current: 1, got: 0 })
        );
        assert_eq!(
            end_request(&meta, 7, 0, false),
            Err(ProducerCheckError::Fenced { current: 1, got: 0 })
        );
        assert_eq!(end_request(&meta, 7, 1, false), Ok(EndDecision::Prepare));
        // Wrong pid / future epoch rejected outright.
        assert!(matches!(
            end_request(&meta, 8, 1, true),
            Err(ProducerCheckError::ProducerIdMismatch { .. })
        ));
        assert!(matches!(
            end_request(&meta, 7, 5, true),
            Err(ProducerCheckError::EpochFromFuture { .. })
        ));
    }

    #[test]
    fn prepare_bumps_epoch_for_marker_fencing() {
        let mut meta = TxnMetadata::fresh(3, 1_000);
        fence("t", &mut meta, 1_000);
        register_partitions("t", &mut meta, &[TopicPartition::new("out", 0)], 0).unwrap();
        let before = meta.epoch;
        prepare("t", &mut meta, false);
        assert_eq!(meta.epoch, before + 1, "markers must carry a fencing epoch");
    }

    #[test]
    fn decided_marker_only_from_prepare_states() {
        assert_eq!(decided_marker(TxnState::PrepareCommit), Some(ControlType::Commit));
        assert_eq!(decided_marker(TxnState::PrepareAbort), Some(ControlType::Abort));
        assert_eq!(decided_marker(TxnState::Ongoing), None);
        assert_eq!(decided_marker(TxnState::Empty), None);
        assert_eq!(decided_marker(TxnState::CompleteCommit), None);
    }

    #[test]
    fn full_commit_cycle_via_pure_functions() {
        let mut meta = TxnMetadata::fresh(9, 1_000);
        let (pid, epoch) = fence("t", &mut meta, 1_000);
        assert_eq!((pid, epoch), (9, 0));
        let tp = TopicPartition::new("out", 0);
        register_partitions("t", &mut meta, std::slice::from_ref(&tp), 0).unwrap();
        assert_eq!(end_decision(meta.state, true), EndDecision::Prepare);
        prepare("t", &mut meta, true);
        assert_eq!(decided_marker(meta.state), Some(ControlType::Commit));
        complete("t", &mut meta);
        assert_eq!(meta.state, TxnState::CompleteCommit);
        assert!(meta.partitions.is_empty());
    }

    #[test]
    fn init_action_by_state() {
        assert_eq!(init_action(TxnState::Empty), InitAction::None);
        assert_eq!(init_action(TxnState::CompleteCommit), InitAction::None);
        assert_eq!(init_action(TxnState::CompleteAbort), InitAction::None);
        assert_eq!(init_action(TxnState::Ongoing), InitAction::AbortOngoing);
        assert_eq!(init_action(TxnState::PrepareCommit), InitAction::RollForward);
        assert_eq!(init_action(TxnState::PrepareAbort), InitAction::RollForward);
    }

    #[test]
    fn expiry_only_for_ongoing_past_timeout() {
        let mut meta = TxnMetadata::fresh(1, 100);
        fence("t", &mut meta, 100);
        assert!(!is_expired(&meta, 1_000), "Empty never expires");
        register_partitions("t", &mut meta, &[TopicPartition::new("out", 0)], 50).unwrap();
        assert!(!is_expired(&meta, 150), "within the timeout");
        assert!(is_expired(&meta, 151));
        prepare("t", &mut meta, false);
        assert!(!is_expired(&meta, 10_000), "decided transactions never expire");
    }

    #[test]
    fn replication_rules() {
        use replication::{offsets_legal, replicated_high_watermark};
        assert_eq!(replicated_high_watermark([5, 3, 7]), 3);
        assert_eq!(replicated_high_watermark([]), 0);
        assert!(offsets_legal(0, 0, 0));
        assert!(offsets_legal(2, 4, 4));
        assert!(!offsets_legal(5, 4, 6));
        assert!(!offsets_legal(2, 7, 6));
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
        apply_transition("bad", &mut meta, TxnState::CompleteCommit);
        let v = klog::checks::take_violations();
        assert!(v.iter().any(|v| v.invariant == "txn-state-machine"), "{v:?}");
    }
}
