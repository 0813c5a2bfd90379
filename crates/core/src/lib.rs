//! # kstreams — a Kafka-Streams-like stream processing library
//!
//! The paper's primary contribution (§3–§5), reproduced in Rust on top of
//! the `kbroker` cluster simulation:
//!
//! * **Streams DSL & topology** (§3.2–3.3): [`dsl::StreamsBuilder`] builds
//!   `KStream`/`KTable` pipelines that compile to a
//!   [`topology::Topology`] of connected operators, split into
//!   sub-topologies at repartition boundaries, executed as one task per
//!   input partition.
//! * **Exactly-once** (§4): tasks run read-process-write cycles; in
//!   exactly-once mode every cycle's outputs — sink records, state-store
//!   changelog appends, and input-offset commits — are wrapped in one Kafka
//!   transaction per commit interval (EOS-v2: one transactional producer
//!   per instance, covering all its tasks).
//! * **Revision processing** (§5): operators never block on out-of-order
//!   data. Order-sensitive stateful operators accept records within a
//!   per-operator *grace period*, emitting revision records
//!   (`Change { old, new }`) that downstream table consumers use to retract
//!   and re-accumulate; append-only outputs (e.g. stream-stream left joins)
//!   are held back until the grace period elapses instead.
//! * **State management** (§3.2, §4): state stores are disposable
//!   materialized views of compacted changelog topics; task migration
//!   restores them by replay.

pub mod analyze;
pub mod app;
pub mod assignment;
pub mod config;
pub mod dsl;
pub mod error;
pub mod kserde;
pub mod metrics;
pub mod processor;
pub mod record;
pub mod standby;
pub mod state;
pub mod task;
pub mod topology;

pub use analyze::{Diagnostic, Rule, Severity};
pub use app::KafkaStreamsApp;
pub use config::{ProcessingGuarantee, StreamsConfig};
pub use dsl::windows::{JoinWindows, SessionWindows, TimeWindows, Windowed};
pub use dsl::{KGroupedStream, KStream, KTable, StreamsBuilder};
pub use error::StreamsError;
pub use kserde::KSerde;
pub use metrics::StreamsMetrics;
pub use record::{Change, FlowRecord};
