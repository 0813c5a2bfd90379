//! # simkit — deterministic simulation kit
//!
//! Shared infrastructure for the Kafka-Streams reproduction: virtual and
//! wall clocks, seeded deterministic RNG, and fault-injection plans —
//! re-exported from the dependency-free `simprims` crate, so the broker and
//! streams layers (which depend on `simprims` under the `simkit` name) and
//! this crate hand out the *same* types.
//!
//! On top of the primitives, [`simtest`] adds a FoundationDB-style
//! deterministic simulation engine: a single `u64` seed generates a
//! workload, a fault schedule, and an interleaved step schedule driving
//! real [`kstreams::KafkaStreamsApp`] instances on virtual time, then
//! checks exactly-once and completeness oracles against a fault-free
//! reference model. Any failing seed replays with
//! `cargo run -p simkit --bin simtest -- --seed N`.
//!
//! Everything in the workspace that needs "time" takes a [`Clock`] so tests
//! can run on a [`ManualClock`] (fully deterministic, instantaneous) while
//! benchmark harnesses run on the [`WallClock`].

pub use simprims::{clock, fault, rng};

pub use simprims::{
    Clock, DetRng, FaultDecision, FaultPlan, FaultPoint, ManualClock, SharedClock, WallClock,
};

pub mod simtest;
