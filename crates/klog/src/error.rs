//! Error type for log operations.

use std::fmt;

/// Errors surfaced by partition-log operations.
///
/// These mirror the broker error codes a real Kafka client would see; the
/// simulated clients in `kbroker` react to them the same way (retry, bump
/// epoch, abort, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// The batch's base sequence is neither a duplicate nor the next
    /// expected sequence — a gap means a prior batch was lost.
    OutOfOrderSequence {
        /// Producer whose sequence was out of order.
        producer_id: i64,
        /// Next sequence the log expected from this producer.
        expected: i64,
        /// Sequence the rejected batch actually carried.
        got: i64,
    },
    /// The producer's epoch is older than the latest known epoch for its id:
    /// the producer is a zombie and must not write (§4.2.1 fencing).
    ProducerFenced {
        /// Producer id that was fenced.
        producer_id: i64,
        /// Latest epoch the log has seen for this producer.
        current_epoch: i32,
        /// Stale epoch the rejected batch carried.
        got_epoch: i32,
    },
    /// A fetch or lookup addressed an offset beyond the log end or before
    /// the log start (e.g. truncated away by retention).
    OffsetOutOfRange {
        /// Offset the caller asked for.
        requested: i64,
        /// First retained offset.
        log_start: i64,
        /// Log-end offset (exclusive).
        log_end: i64,
    },
    /// A transactional operation referenced a producer id with no open
    /// transaction on this partition.
    NoOngoingTransaction {
        /// Producer id with no open transaction.
        producer_id: i64,
    },
    /// A non-transactional append from a producer with an open transaction,
    /// or a transactional append from a non-transactional producer.
    InvalidTxnState(String),
    /// Batch failed validation (empty, bad control payload, …).
    CorruptBatch(String),
    /// A disk-backend I/O operation failed (a write through or recovery).
    Io(String),
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::OutOfOrderSequence { producer_id, expected, got } => write!(
                f,
                "out of order sequence for producer {producer_id}: expected {expected}, got {got}"
            ),
            LogError::ProducerFenced { producer_id, current_epoch, got_epoch } => write!(
                f,
                "producer {producer_id} fenced: current epoch {current_epoch}, got {got_epoch}"
            ),
            LogError::OffsetOutOfRange { requested, log_start, log_end } => {
                write!(f, "offset {requested} out of range [{log_start}, {log_end})")
            }
            LogError::NoOngoingTransaction { producer_id } => {
                write!(f, "no ongoing transaction for producer {producer_id}")
            }
            LogError::InvalidTxnState(msg) => write!(f, "invalid transaction state: {msg}"),
            LogError::CorruptBatch(msg) => write!(f, "corrupt batch: {msg}"),
            LogError::Io(msg) => write!(f, "storage i/o error: {msg}"),
        }
    }
}

impl std::error::Error for LogError {}
