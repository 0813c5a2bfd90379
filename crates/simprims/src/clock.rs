//! Clock abstraction: wall-clock for benchmarks, manual clock for
//! deterministic tests.
//!
//! All timestamps in the workspace are milliseconds since an arbitrary
//! epoch, stored as `i64` (matching Kafka's record timestamp convention;
//! `-1` is used by callers to mean "no timestamp").

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// A source of the current time in milliseconds.
///
/// Implementations must be cheap to call and safe to share across threads.
pub trait Clock: Send + Sync {
    /// Current time in milliseconds since the clock's epoch.
    fn now_ms(&self) -> i64;
}

/// A shareable, dynamically dispatched clock handle.
pub type SharedClock = Arc<dyn Clock>;

/// Real time, measured from process-local `Instant` at construction.
#[derive(Debug)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    pub fn new() -> Self {
        // WallClock is the explicitly non-replayable clock; simulations must
        // inject SimClock instead.
        // detlint:allow[wall-clock] the one sanctioned wall-clock source
        Self { start: Instant::now() }
    }

    /// Convenience constructor returning a [`SharedClock`].
    pub fn shared() -> SharedClock {
        Arc::new(Self::new())
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_ms(&self) -> i64 {
        self.start.elapsed().as_millis() as i64
    }
}

/// A virtual clock advanced explicitly by the test driver.
///
/// Cloning shares the underlying time source, so a clone handed to a
/// component observes advances made through any other handle.
#[derive(Debug, Clone)]
pub struct ManualClock {
    now: Arc<Mutex<i64>>,
}

impl ManualClock {
    /// Create a clock starting at time 0.
    pub fn new() -> Self {
        Self::starting_at(0)
    }

    /// Create a clock starting at `start_ms`.
    pub fn starting_at(start_ms: i64) -> Self {
        Self { now: Arc::new(Mutex::new(start_ms)) }
    }

    /// Advance virtual time by `ms` (must be non-negative).
    pub fn advance(&self, ms: i64) {
        assert!(ms >= 0, "cannot advance a clock backwards");
        *self.now.lock() += ms;
    }

    /// Jump virtual time to `ms`; must not move backwards.
    pub fn set(&self, ms: i64) {
        let mut now = self.now.lock();
        assert!(ms >= *now, "cannot set clock backwards ({ms} < {})", *now);
        *now = ms;
    }

    /// A [`SharedClock`] view of this clock (shares the same time source).
    pub fn shared(&self) -> SharedClock {
        Arc::new(self.clone())
    }
}

impl Default for ManualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> i64 {
        *self.now.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_starts_at_zero() {
        let c = ManualClock::new();
        assert_eq!(c.now_ms(), 0);
    }

    #[test]
    fn manual_clock_advances() {
        let c = ManualClock::new();
        c.advance(100);
        assert_eq!(c.now_ms(), 100);
        c.advance(0);
        assert_eq!(c.now_ms(), 100);
    }

    #[test]
    fn manual_clock_clones_share_time() {
        let c = ManualClock::new();
        let c2 = c.clone();
        c.advance(42);
        assert_eq!(c2.now_ms(), 42);
        c2.advance(8);
        assert_eq!(c.now_ms(), 50);
    }

    #[test]
    fn manual_clock_set_forward() {
        let c = ManualClock::new();
        c.set(1000);
        assert_eq!(c.now_ms(), 1000);
    }

    #[test]
    #[should_panic]
    fn manual_clock_set_backwards_panics() {
        let c = ManualClock::starting_at(10);
        c.set(5);
    }

    #[test]
    fn wall_clock_monotonic() {
        let c = WallClock::new();
        let a = c.now_ms();
        let b = c.now_ms();
        assert!(b >= a);
    }

    #[test]
    fn shared_clock_dyn_dispatch() {
        let c = ManualClock::new();
        let shared: SharedClock = c.shared();
        c.advance(7);
        assert_eq!(shared.now_ms(), 7);
    }
}
