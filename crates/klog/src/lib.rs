//! # klog — Kafka-like partition-log substrate
//!
//! The paper's core architectural bet (§3, §4) is that *all* streaming data —
//! input topics, repartition topics, state-store changelogs, offset commits,
//! and transaction metadata — live in replicated, immutable, append-only
//! partition logs. This crate implements that log:
//!
//! * [`record::Record`] — timestamped key/value records,
//! * [`batch::StoredBatch`] — appended batches carrying producer id/epoch/
//!   sequence metadata for idempotence (§4.1) and transactional/control
//!   flags for transactions (§4.2),
//! * [`log::PartitionLog`] — the log itself: log-end offset, high watermark,
//!   last-stable-offset tracking, the aborted-transaction index used by
//!   read-committed fetches, and per-producer dedup state,
//! * [`compaction`] — key-based log compaction for changelog topics (§3.2),
//! * [`segment`] — segment bookkeeping, retention, and prefix truncation
//!   (used to purge consumed repartition-topic records, §3.2).
//!
//! `klog` is purely single-partition data structures with no threading and —
//! by default — no I/O; `kbroker` composes these into a replicated
//! multi-broker cluster. The optional [`storage`] disk backend backs each of
//! a log's segments with one real segment file for honest crash recovery.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod checks;
pub mod compaction;
pub mod error;
pub mod log;
pub mod producer_state;
pub mod record;
pub mod segment;
pub mod storage;

pub use batch::{BatchBody, BatchMeta, ControlType, StoredBatch};
pub use error::LogError;
pub use log::{AbortedTxn, AppendOutcome, FetchResult, IsolationLevel, PartitionLog};
pub use producer_state::{ProducerStateTable, SequenceCheck};
pub use record::Record;
pub use storage::{DiskConfig, DiskLog, StorageMode};

/// Offsets are dense, zero-based positions within one partition log.
pub type Offset = i64;

/// Producer ids are assigned by the (simulated) broker; `-1` means
/// "no producer id" (a non-idempotent append).
pub type ProducerId = i64;

/// Producer epochs distinguish lifetimes of the same transactional id.
pub type ProducerEpoch = i32;

/// The sentinel producer id for non-idempotent appends.
pub const NO_PRODUCER_ID: ProducerId = -1;

/// The sentinel sequence for non-idempotent appends.
pub const NO_SEQUENCE: i64 = -1;

/// The sentinel offset of an empty batch.
pub const NO_OFFSET: Offset = -1;

/// The sentinel timestamp meaning "not set".
pub const NO_TIMESTAMP: i64 = -1;
