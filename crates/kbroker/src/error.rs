//! Broker-level errors, wrapping the storage-level [`klog::LogError`].

use crate::topic::Topic;
use klog::LogError;
use std::fmt;

/// Errors surfaced by cluster operations and clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerError {
    /// Topic does not exist.
    UnknownTopic(String),
    /// A topic cannot be created as asked: its name is outside Kafka's
    /// `[A-Za-z0-9._-]{1,249}`, or it has no partitions.
    InvalidTopic { topic: String, detail: &'static str },
    /// Partition index out of range for the topic.
    UnknownPartition { topic: Topic, partition: u32 },
    /// The addressed broker is not alive.
    BrokerDown(usize),
    /// No replica is alive to lead this partition.
    NoLeader { topic: Topic, partition: u32 },
    /// Underlying log rejected the operation.
    Log(LogError),
    /// Transactional producer is fenced by a newer epoch (zombie, §4.2.1).
    ProducerFenced { transactional_id: String },
    /// Transactional operation in an invalid coordinator state.
    InvalidTxnTransition { transactional_id: String, detail: String },
    /// Unknown transactional id (operation before `init_producer_id`).
    UnknownTransactionalId(String),
    /// Consumer-group generation is stale — the member was kicked out by a
    /// rebalance and must rejoin (this is what fences zombie *consumers*).
    IllegalGeneration { group: String, expected: i32, got: i32 },
    /// Member is not part of the group.
    UnknownMember { group: String, member: String },
    /// Producer retried past its retry budget without an acknowledgement.
    RetriesExhausted { topic: Topic, partition: u32 },
    /// Client-side misuse (e.g. transactional send before begin).
    InvalidOperation(String),
}

impl fmt::Display for BrokerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrokerError::UnknownTopic(t) => write!(f, "unknown topic {t}"),
            BrokerError::InvalidTopic { topic, detail } => {
                write!(f, "invalid topic {topic:?}: {detail}")
            }
            BrokerError::UnknownPartition { topic, partition } => {
                write!(f, "unknown partition {topic}-{partition}")
            }
            BrokerError::BrokerDown(id) => write!(f, "broker {id} is down"),
            BrokerError::NoLeader { topic, partition } => {
                write!(f, "no leader for {topic}-{partition}")
            }
            BrokerError::Log(e) => write!(f, "log error: {e}"),
            BrokerError::ProducerFenced { transactional_id } => {
                write!(f, "producer with transactional id {transactional_id} is fenced")
            }
            BrokerError::InvalidTxnTransition { transactional_id, detail } => {
                write!(f, "invalid transaction transition for {transactional_id}: {detail}")
            }
            BrokerError::UnknownTransactionalId(tid) => {
                write!(f, "unknown transactional id {tid}")
            }
            BrokerError::IllegalGeneration { group, expected, got } => {
                write!(f, "illegal generation for group {group}: expected {expected}, got {got}")
            }
            BrokerError::UnknownMember { group, member } => {
                write!(f, "unknown member {member} in group {group}")
            }
            BrokerError::RetriesExhausted { topic, partition } => {
                write!(f, "retries exhausted producing to {topic}-{partition}")
            }
            BrokerError::InvalidOperation(msg) => write!(f, "invalid operation: {msg}"),
        }
    }
}

impl std::error::Error for BrokerError {}

impl From<LogError> for BrokerError {
    fn from(e: LogError) -> Self {
        BrokerError::Log(e)
    }
}
