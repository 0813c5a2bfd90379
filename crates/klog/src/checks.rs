//! Protocol invariant layer (§4.1, §4.2): runtime checks on the log and
//! transaction protocol that record — rather than panic on — violations.
//!
//! The paper's correctness argument rests on a handful of per-partition
//! invariants that every broker-side mutation must preserve:
//!
//! * **Sequence monotonicity** — an idempotent producer's batches append
//!   with consecutive sequence numbers per (producer id, epoch) (§4.1),
//! * **Epoch fencing** — once a newer epoch is observed for a producer id,
//!   older epochs can never append or commit again (§4.1, §4.2.1),
//! * **Offset ordering** — `last stable offset ≤ high watermark ≤ log end
//!   offset` at every observation point (§4.2.2, read-committed fetches),
//! * **Transaction state-machine legality** — markers are only written from
//!   a `Prepare*` state and coordinator state only moves along legal edges
//!   (§4.2.1, Figure 5).
//!
//! Production code asserts these with the [`crate::invariant!`] macro. A
//! failed check records a [`Violation`] in the process-global
//! [sink](take_violations); tests drain the sink after fault-injection runs
//! and assert it is empty. Recording instead of
//! panicking means a single violation does not mask others behind it and
//! property tests can shrink on the *observable* outcome.

use std::fmt;
use std::sync::Mutex;

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable kebab-case invariant name (e.g. `"epoch-fencing"`).
    pub invariant: &'static str,
    /// Human-readable description of the violating state.
    pub context: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant[{}]: {}", self.invariant, self.context)
    }
}

static SINK: Mutex<Vec<Violation>> = Mutex::new(Vec::new());

fn sink() -> std::sync::MutexGuard<'static, Vec<Violation>> {
    // A poisoned sink still holds valid data; keep recording through it.
    SINK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Record a violation in the global sink. Called by [`crate::invariant!`]; call
/// directly only when the failing condition is a match arm rather than a
/// boolean expression.
pub fn record_violation(invariant: &'static str, context: String) {
    sink().push(Violation { invariant, context });
}

/// Drain and return all violations recorded so far.
pub fn take_violations() -> Vec<Violation> {
    std::mem::take(&mut *sink())
}

/// Number of violations currently recorded (without draining).
pub fn violation_count() -> usize {
    sink().len()
}

/// Assert a protocol invariant: when `cond` is false, record a
/// [`Violation`] named `name` with a formatted context message.
#[macro_export]
macro_rules! invariant {
    ($cond:expr, $name:expr, $($fmt:tt)+) => {
        if !($cond) {
            $crate::checks::record_violation($name, format!($($fmt)+));
        }
    };
}

/// Serializes tests that drain the process-global sink, so parallel test
/// threads cannot steal each other's recorded violations.
#[cfg(test)]
pub(crate) static TEST_SINK_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_drain() {
        let _serial = TEST_SINK_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        take_violations();
        record_violation("test-check", "something broke".into());
        assert_eq!(violation_count(), 1);
        let v = take_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "test-check");
        assert_eq!(v[0].to_string(), "invariant[test-check]: something broke");
        assert_eq!(violation_count(), 0);
    }

    #[test]
    fn macro_records_only_on_failure() {
        let _serial = TEST_SINK_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        take_violations();
        invariant!(1 + 1 == 2, "arithmetic", "should not fire");
        assert_eq!(violation_count(), 0);
        invariant!(1 + 1 == 3, "arithmetic", "expected {} got {}", 3, 2);
        let v = take_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].context, "expected 3 got 2");
    }
}
