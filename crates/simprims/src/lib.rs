//! # simprims — deterministic simulation primitives
//!
//! The dependency-free core of the simulation kit: virtual and wall clocks,
//! seeded deterministic RNG, and fault-injection plans. The broker and
//! streams layers depend on this crate (renamed to `simkit` in their
//! manifests, so source paths read `simkit::…`); the full `simkit` crate
//! re-exports everything here and adds the scenario engine
//! (`simkit::simtest`), which needs to sit *above* those layers.
//!
//! Everything in the workspace that needs "time" takes a [`Clock`] so tests
//! can run on a [`ManualClock`] (fully deterministic, instantaneous) while
//! benchmark harnesses run on the [`WallClock`].

pub mod clock;
pub mod fault;
pub mod rng;

pub use clock::{Clock, ManualClock, SharedClock, WallClock};
pub use fault::{FaultDecision, FaultPlan, FaultPoint};
pub use rng::DetRng;
