//! # kbroker — in-process Kafka-like broker cluster
//!
//! Composes `klog` partition logs into a replicated, multi-broker cluster
//! with the full client protocol surface the paper's design depends on:
//!
//! * **Replication & leader election** (§4 intro): every partition has `n`
//!   replicas; appends go to the leader and are synchronously replicated to
//!   in-sync followers; the high watermark advances when all ISR members
//!   have the record. Killing a broker elects new leaders which rebuild
//!   producer dedup state from their local logs (§4.1).
//! * **Idempotent producers** (§4.1): broker-assigned producer ids,
//!   per-partition monotone sequence numbers, broker-side dedup of retried
//!   batches.
//! * **Transactions** (§4.2): a transaction coordinator per transaction-log
//!   partition, transactional-id → coordinator hashing, epoch bumping and
//!   zombie fencing, two-phase commit (PrepareCommit barrier in the
//!   transaction log, then commit/abort markers fanned out to data
//!   partitions), transaction timeouts, and coordinator failover by
//!   replaying the transaction log.
//! * **Consumer groups** (§3.1): membership, generations, generation-fenced
//!   offset commits and the `__consumer_offsets` topic — including
//!   *transactional* offset commits whose visibility follows the producer's
//!   transaction outcome (§4.2.3). The coordinator assigns nothing: the
//!   Streams layer assigns tasks from each generation's frozen view.
//! * **Clients**: [`producer::Producer`] and [`consumer::Consumer`] with
//!   retry loops driven by `simkit` fault injection, so lost-ack/duplicate
//!   scenarios (§2.1) exercise the real dedup and fencing paths.

pub mod cluster;
pub mod consumer;
pub mod error;
pub mod group;
pub mod producer;
pub mod protocol;
pub mod replica;
pub mod topic;
pub mod txn;

pub use cluster::{Cluster, ClusterBuilder, PartitionHandle};
pub use consumer::{Consumer, ConsumerConfig, ConsumerRecord};
pub use error::BrokerError;
pub use klog::{DiskConfig, IsolationLevel, StorageMode};
pub use producer::{Producer, ProducerConfig};
pub use topic::{Topic, TopicConfig, TopicPartition};

/// The internal consumer-offsets topic.
pub const OFFSETS_TOPIC: Topic = Topic::from_static("__consumer_offsets");

/// The internal transaction-state topic.
pub const TXN_TOPIC: Topic = Topic::from_static("__transaction_state");

/// The transaction timeout a producer registers unless it sets its own
/// ([`ProducerConfig::txn_timeout_ms`]).
pub const DEFAULT_TXN_TIMEOUT_MS: i64 = 60_000;
