//! Regression tests for the counterexample classes the `kcheck` model
//! checker guards against (ISSUE 6, satellite 2).
//!
//! Each test scripts one adversarial schedule — the fault lands at an
//! exact protocol step, not probabilistically — against the same pure
//! functions ([`kbroker::protocol`]) and the same [`klog::PartitionLog`]
//! the runtime coordinator uses. If a future refactor re-introduces one of
//! these bugs, the matching test fails long before the exhaustive checker
//! runs.
//!
//! Classes covered:
//!
//! 1. coordinator crash between the PrepareCommit barrier and the marker
//!    fan-out (recovery must roll *forward*),
//! 2. duplicated abort markers from an init-abort racing an end-abort
//!    retry (benign; conflicting commit/abort markers must stay
//!    impossible),
//! 3. a fenced producer's late append after its epoch was bumped,
//! 4. a commit whose coordinator ack is lost and retried at the
//!    pre-bump epoch (idempotent resume, no second effect).

use bytes::Bytes;
use kbroker::protocol::{self, EndDecision, InitAction, TxnMetadata, TxnState};
use kbroker::TopicPartition;
use klog::batch::{BatchMeta, ControlType};
use klog::{IsolationLevel, LogError, PartitionLog, Record};

const TID: &str = "app-0";
const TIMEOUT: i64 = 60_000;

fn rec(v: &str) -> Record {
    Record {
        key: Some(Bytes::from_static(b"k")),
        value: Some(Bytes::copy_from_slice(v.as_bytes())),
        timestamp: 0,
    }
}

/// Read-committed values currently visible in the log.
fn committed(log: &PartitionLog) -> Vec<Bytes> {
    let fetch = log.fetch(0, usize::MAX, IsolationLevel::ReadCommitted).expect("fetch from 0");
    fetch.records().filter_map(|(_, r)| r.value.clone()).collect()
}

/// Start a registered transaction: fenced producer, one partition, one
/// appended record. Returns `(meta, log)` with the txn Ongoing.
fn open_txn(pid: i64, value: &str) -> (TxnMetadata, PartitionLog) {
    let mut meta = TxnMetadata::fresh(pid, TIMEOUT);
    protocol::fence(TID, &mut meta, TIMEOUT);
    let tp = TopicPartition::new("out", 0);
    assert_eq!(protocol::register_partitions(TID, &mut meta, &[tp], 0), Ok(()));
    let mut log = PartitionLog::new();
    log.append(BatchMeta::transactional(pid, meta.epoch, 0), vec![rec(value)])
        .expect("ongoing txn accepts the append");
    (meta, log)
}

/// Class 1: the coordinator crashes after persisting PrepareCommit but
/// before any marker reaches a partition. Recovery replays the durable
/// metadata and must roll the decision *forward* — the commit was decided
/// at the barrier, so the record becomes visible exactly once.
#[test]
fn crash_between_prepare_and_markers_rolls_forward() {
    let (mut meta, mut log) = open_txn(7, "v-committed");
    assert!(committed(&log).is_empty(), "open txn is invisible read-committed");

    assert_eq!(protocol::end_request(&meta, 7, meta.epoch, true), Ok(EndDecision::Prepare));
    protocol::prepare(TID, &mut meta, true);
    let durable = meta.clone(); // the txn-log persist — the barrier
    assert_eq!(durable.state, TxnState::PrepareCommit);

    // CRASH: in-memory state and the pending marker fan-out are gone.
    drop(meta);

    // Recovery from the transaction log.
    let mut recovered = durable;
    assert_eq!(protocol::init_action(recovered.state), InitAction::RollForward);
    let ctl = protocol::decided_marker(recovered.state).expect("decided past the barrier");
    assert_eq!(ctl, ControlType::Commit);
    log.append_control(recovered.producer_id, recovered.epoch, ctl, 0)
        .expect("roll-forward marker lands");
    protocol::complete(TID, &mut recovered);
    assert_eq!(recovered.state, TxnState::CompleteCommit);

    assert_eq!(committed(&log), vec![Bytes::from_static(b"v-committed")]);
    assert_eq!(log.last_stable_offset(), log.log_end(), "no txn left open");
    assert!(klog::checks::take_violations().is_empty());
}

/// Class 2: a crashed producer's init-abort races a marker retry, so the
/// partition sees the *same* abort marker twice. The duplicate must be
/// benign — and a conflicting commit marker at that epoch must be
/// impossible, because the abort decision bumped the epoch at the barrier
/// and the partition fences everything older.
#[test]
fn duplicate_abort_markers_are_benign_and_cannot_conflict() {
    let (mut meta, mut log) = open_txn(9, "v-aborted");

    // Coordinator decides abort (producer crash → init_producer abort).
    protocol::prepare(TID, &mut meta, false);
    let marker_epoch = meta.epoch;
    log.append_control(9, marker_epoch, ControlType::Abort, 0).expect("first abort marker");
    // The retry of the same fan-out (e.g. the coordinator died mid-loop
    // and the new incarnation re-drives Resume) repeats the marker.
    log.append_control(9, marker_epoch, ControlType::Abort, 0).expect("duplicate abort marker");

    assert!(committed(&log).is_empty(), "aborted data stays invisible");
    assert_eq!(log.last_stable_offset(), log.log_end());

    // A commit marker for the *pre-bump* epoch — the only epoch that ever
    // had an undecided transaction — is fenced at the partition.
    let conflict = log.append_control(9, marker_epoch - 1, ControlType::Commit, 0);
    assert!(
        matches!(conflict, Err(LogError::ProducerFenced { .. })),
        "conflicting stale-epoch marker must be fenced, got {conflict:?}"
    );
    assert!(klog::checks::take_violations().is_empty());
}

/// Class 3: a zombie producer appends after its epoch was bumped (the new
/// incarnation's marker carries the bumped epoch, fencing the partition).
/// The late append must be rejected, not silently reopen a transaction.
#[test]
fn fenced_producer_late_append_is_rejected() {
    let (mut meta, mut log) = open_txn(11, "v-zombie-first");
    let zombie_epoch = meta.epoch;

    // The producer is presumed dead; init_producer aborts its transaction
    // and bumps the epoch. The abort marker lands at the bumped epoch.
    assert_eq!(protocol::init_action(meta.state), InitAction::AbortOngoing);
    protocol::prepare(TID, &mut meta, false);
    log.append_control(11, meta.epoch, ControlType::Abort, 0).expect("fencing abort marker");
    protocol::complete(TID, &mut meta);
    protocol::fence(TID, &mut meta, TIMEOUT);

    // The zombie wakes up and continues its (aborted) transaction.
    let late = log.append(BatchMeta::transactional(11, zombie_epoch, 1), vec![rec("v-zombie")]);
    assert!(
        matches!(late, Err(LogError::ProducerFenced { .. })),
        "late zombie append must be fenced, got {late:?}"
    );
    // And the coordinator equally rejects its requests.
    assert!(protocol::end_request(&meta, 11, zombie_epoch, true).is_err());

    assert!(committed(&log).is_empty());
    assert_eq!(log.last_stable_offset(), log.log_end(), "no transaction reopened");
    assert!(klog::checks::take_violations().is_empty());
}

/// Class 4: the commit succeeds on the coordinator but the ack is lost, so
/// the producer retries `end_txn` with its old (pre-bump) epoch. The retry
/// must resolve idempotently — resume the marker fan-out if it was cut
/// short, report done otherwise — and never double-apply.
#[test]
fn lost_ack_commit_retry_is_idempotent() {
    let (mut meta, mut log) = open_txn(13, "v-once");
    let request_epoch = meta.epoch;

    // First attempt: barrier persists, then the coordinator dies before
    // markers; the producer's ack never arrives.
    protocol::prepare(TID, &mut meta, true);
    let durable = meta.clone();

    // Retry with the pre-bump epoch against the recovered coordinator:
    // accepted as a resume of the decided commit.
    assert_eq!(protocol::end_request(&durable, 13, request_epoch, true), Ok(EndDecision::Resume));
    let mut recovered = durable;
    let ctl = protocol::decided_marker(recovered.state).expect("decided");
    log.append_control(13, recovered.epoch, ctl, 0).expect("resumed marker");
    protocol::complete(TID, &mut recovered);
    assert_eq!(recovered.state, TxnState::CompleteCommit);

    // A second retry (the ack of the resume was lost too): nothing to redo.
    assert_eq!(
        protocol::end_request(&recovered, 13, request_epoch, true),
        Ok(EndDecision::AlreadyDone)
    );
    // An over-eager duplicate marker from that retry is still the same
    // decision — benign — and the committed view stays exactly-once.
    log.append_control(13, recovered.epoch, ctl, 0).expect("duplicate commit marker");
    assert_eq!(committed(&log), vec![Bytes::from_static(b"v-once")]);
    assert!(klog::checks::take_violations().is_empty());
}
