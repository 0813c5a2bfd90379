//! # kstream-repro — meta-crate
//!
//! Rust reproduction of *"Consistency and Completeness: Rethinking
//! Distributed Stream Processing in Apache Kafka"* (Wang et al., SIGMOD '21).
//!
//! This crate re-exports the workspace's public API so examples and
//! integration tests can use one import root:
//!
//! * [`klog`] — partition-log substrate (batches, watermarks, compaction,
//!   idempotence state),
//! * [`kbroker`] — in-process broker cluster (replication, transactions,
//!   consumer groups, clients),
//! * [`kstreams`] — the streams library (DSL, topology, tasks, state stores,
//!   exactly-once, revision processing),
//! * [`simkit`] — clocks, fault injection, measurement.

pub use kbroker;
pub use klog;
pub use kstreams;
pub use simkit;
