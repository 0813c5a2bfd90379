//! Fault injection plans.
//!
//! The paper (§2.1) identifies three failure classes a streaming system must
//! mask: storage-engine failures, stream-processor failures, and
//! inter-processor RPC failures (lost acknowledgements leading to retries and
//! duplicates). [`FaultPlan`] lets tests and benchmarks inject exactly those,
//! either probabilistically (seeded, reproducible) or scripted ("drop the ack
//! of the 3rd produce request").

use crate::rng::DetRng;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Where in the protocol a fault may be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// The broker appended the batch but the producer never sees the ack
    /// (network jitter / timeout) — producer will retry, exercising
    /// idempotent dedup.
    ProduceAckLost,
    /// The produce request itself is lost before reaching the broker.
    ProduceRequestLost,
    /// A consumer fetch response is lost (consumer will re-fetch).
    FetchResponseLost,
    /// A transaction-coordinator RPC response is lost after the coordinator
    /// applied it.
    TxnRpcAckLost,
    /// An AddPartitionsToTxn coordinator ack is lost after the partition was
    /// registered; the producer retries the (idempotent) registration.
    TxnAddPartitionsAckLost,
}

impl FaultPoint {
    /// Every fault point, in a fixed order (stable across runs, used by
    /// deterministic reports): the declaration order, so a point's
    /// discriminant is its position here.
    pub const ALL: [FaultPoint; 5] = [
        FaultPoint::ProduceAckLost,
        FaultPoint::ProduceRequestLost,
        FaultPoint::FetchResponseLost,
        FaultPoint::TxnRpcAckLost,
        FaultPoint::TxnAddPartitionsAckLost,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::ProduceAckLost => "ProduceAckLost",
            FaultPoint::ProduceRequestLost => "ProduceRequestLost",
            FaultPoint::FetchResponseLost => "FetchResponseLost",
            FaultPoint::TxnRpcAckLost => "TxnRpcAckLost",
            FaultPoint::TxnAddPartitionsAckLost => "TxnAddPartitionsAckLost",
        }
    }
}

/// The decision for one protocol operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Proceed normally.
    Deliver,
    /// The operation's effect happens but the acknowledgement is dropped.
    DropAck,
    /// The operation is dropped entirely (no effect, no ack).
    DropRequest,
}

#[derive(Debug, Default, Clone)]
struct PointPlan {
    /// Probability that an operation at this point loses its ack.
    ack_loss_prob: f64,
    /// Probability that an operation is dropped before taking effect.
    request_loss_prob: f64,
    /// Scripted one-shot faults: operation counter values (1-based) at which
    /// to force a decision.
    scripted: HashMap<u64, FaultDecision>,
    /// Number of non-`Deliver` decisions handed out at this point.
    injected: u64,
}

/// A shareable, seeded fault plan consulted by the simulated RPC layer.
///
/// A plan that was never given a probability or a script is *unarmed*: it
/// answers `Deliver` from an atomic flag and counts the operation in an
/// atomic, taking no lock, so the production path pays two relaxed atomics.
/// Giving it a probability (zero included) or a script arms it for good;
/// counts stay one sequence across the switch, so a script's `nth` counts
/// the operations observed before it too.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Arc<Shared>,
}

#[derive(Debug, Default)]
struct Shared {
    /// Set once a probability or a script was given; until then `decide`
    /// never takes the lock. Stored with `Release` after the plan is
    /// written and loaded with `Acquire`: a `decide` that sees it set then
    /// locks the plan and reads what was armed.
    armed: AtomicBool,
    /// Set by [`FaultPlan::disable`]: decisions are `Deliver` and uncounted.
    disabled: AtomicBool,
    /// Operations observed per point, indexed by [`FaultPoint::index`].
    observed: [AtomicU64; FaultPoint::ALL.len()],
    armed_plan: Mutex<ArmedPlan>,
}

#[derive(Debug)]
struct ArmedPlan {
    rng: DetRng,
    /// Per point, indexed by [`FaultPoint::index`].
    points: [PointPlan; FaultPoint::ALL.len()],
}

impl Default for ArmedPlan {
    fn default() -> Self {
        Self { rng: DetRng::new(0), points: Default::default() }
    }
}

impl FaultPoint {
    /// This point's position in [`FaultPoint::ALL`].
    fn index(self) -> usize {
        self as usize
    }
}

impl FaultPlan {
    /// A plan that never injects faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan with a given RNG seed for probabilistic faults.
    pub fn seeded(seed: u64) -> Self {
        let plan = Self::default();
        plan.inner.armed_plan.lock().rng = DetRng::new(seed);
        plan
    }

    /// Change `point`'s plan and arm the plan.
    fn arm(self, point: FaultPoint, change: impl FnOnce(&mut PointPlan)) -> Self {
        change(&mut self.inner.armed_plan.lock().points[point.index()]);
        self.inner.armed.store(true, Ordering::Release);
        self
    }

    /// Set the probability that operations at `point` lose their ack.
    pub fn with_ack_loss(self, point: FaultPoint, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob));
        self.arm(point, |plan| plan.ack_loss_prob = prob)
    }

    /// Set the probability that operations at `point` are dropped entirely.
    pub fn with_request_loss(self, point: FaultPoint, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob));
        self.arm(point, |plan| plan.request_loss_prob = prob)
    }

    /// Script a one-shot fault: the `nth` (1-based) operation observed at
    /// `point` gets `decision`.
    pub fn script(self, point: FaultPoint, nth: u64, decision: FaultDecision) -> Self {
        assert!(nth >= 1, "operation counters are 1-based");
        self.arm(point, |plan| {
            plan.scripted.insert(nth, decision);
        })
    }

    /// Disable all fault injection (e.g. during a recovery phase of a test).
    pub fn disable(&self) {
        self.inner.disabled.store(true, Ordering::Release);
    }

    /// Re-enable fault injection.
    pub fn enable(&self) {
        self.inner.disabled.store(false, Ordering::Release);
    }

    /// Whether a probability or a script was ever given.
    fn is_armed(&self) -> bool {
        self.inner.armed.load(Ordering::Acquire)
    }

    /// Consult the plan for the next operation at `point`.
    pub fn decide(&self, point: FaultPoint) -> FaultDecision {
        let shared = &*self.inner;
        if shared.disabled.load(Ordering::Acquire) {
            return FaultDecision::Deliver;
        }
        let observed = &shared.observed[point.index()];
        if !shared.armed.load(Ordering::Acquire) {
            observed.fetch_add(1, Ordering::Relaxed);
            return FaultDecision::Deliver;
        }
        let mut guard = shared.armed_plan.lock();
        let ArmedPlan { rng, points } = &mut *guard;
        let plan = &mut points[point.index()];
        let count = observed.fetch_add(1, Ordering::Relaxed) + 1;
        let decision = match plan.scripted.get(&count) {
            Some(&d) => d,
            None if plan.request_loss_prob > 0.0 && rng.chance(plan.request_loss_prob) => {
                FaultDecision::DropRequest
            }
            None if plan.ack_loss_prob > 0.0 && rng.chance(plan.ack_loss_prob) => {
                FaultDecision::DropAck
            }
            None => FaultDecision::Deliver,
        };
        if decision != FaultDecision::Deliver {
            plan.injected += 1;
        }
        decision
    }

    /// Number of operations observed so far at `point`.
    pub fn observed(&self, point: FaultPoint) -> u64 {
        self.inner.observed[point.index()].load(Ordering::Relaxed)
    }

    /// Number of faults actually injected (non-`Deliver` decisions) at
    /// `point`.
    pub fn injected(&self, point: FaultPoint) -> u64 {
        if !self.is_armed() {
            return 0;
        }
        self.inner.armed_plan.lock().points[point.index()].injected
    }

    /// `(point, observed, injected)` for every fault point, in the stable
    /// [`FaultPoint::ALL`] order — byte-identical across identical runs.
    pub fn injection_counts(&self) -> Vec<(FaultPoint, u64, u64)> {
        FaultPoint::ALL.iter().map(|&p| (p, self.observed(p), self.injected(p))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One call a caller can make on a shared plan.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Decide(usize),
        Disable,
        Enable,
    }

    /// Mostly decisions, with a disable or an enable one time in ten each.
    fn op() -> impl Strategy<Value = Op> {
        (0..10usize).prop_map(|n| match n {
            0 => Op::Disable,
            1 => Op::Enable,
            n => Op::Decide(n % FaultPoint::ALL.len()),
        })
    }

    /// Every decision of `ops`, then the counts.
    fn replay(plan: &FaultPlan, ops: &[Op]) -> (Vec<FaultDecision>, Vec<(FaultPoint, u64, u64)>) {
        let mut decisions = Vec::new();
        for op in ops {
            match *op {
                Op::Decide(point) => decisions.push(plan.decide(FaultPoint::ALL[point])),
                Op::Disable => plan.disable(),
                Op::Enable => plan.enable(),
            }
        }
        (decisions, plan.injection_counts())
    }

    proptest! {
        /// The unarmed plan's lock-free path decides and counts exactly as
        /// the locked path of a plan armed with nothing to inject.
        #[test]
        fn unarmed_plan_matches_a_plan_armed_with_zero_probabilities(
            seed in any::<u64>(),
            ops in proptest::collection::vec(op(), 0..200),
        ) {
            let unarmed = FaultPlan::seeded(seed);
            let armed = FaultPoint::ALL.iter().fold(FaultPlan::seeded(seed), |plan, &point| {
                plan.with_ack_loss(point, 0.0).with_request_loss(point, 0.0)
            });
            prop_assert!(!unarmed.is_armed() && armed.is_armed());
            let (decisions, counts) = replay(&unarmed, &ops);
            prop_assert!(decisions.iter().all(|d| *d == FaultDecision::Deliver));
            prop_assert_eq!((decisions, counts), replay(&armed, &ops));
        }
    }

    #[test]
    fn fault_points_index_their_position_in_all() {
        for (i, point) in FaultPoint::ALL.iter().enumerate() {
            assert_eq!(point.index(), i, "{point:?}");
        }
    }

    #[test]
    fn a_script_counts_operations_observed_before_the_plan_was_armed() {
        let plan = FaultPlan::none();
        plan.decide(FaultPoint::ProduceAckLost);
        let plan = plan.script(FaultPoint::ProduceAckLost, 2, FaultDecision::DropAck);
        assert_eq!(plan.decide(FaultPoint::ProduceAckLost), FaultDecision::DropAck);
        assert_eq!(plan.injection_counts()[0], (FaultPoint::ProduceAckLost, 2, 1));
    }

    #[test]
    fn default_plan_always_delivers() {
        let plan = FaultPlan::none();
        for _ in 0..100 {
            assert_eq!(plan.decide(FaultPoint::ProduceAckLost), FaultDecision::Deliver);
        }
    }

    #[test]
    fn scripted_fault_fires_once_at_exact_count() {
        let plan = FaultPlan::none().script(FaultPoint::ProduceAckLost, 3, FaultDecision::DropAck);
        assert_eq!(plan.decide(FaultPoint::ProduceAckLost), FaultDecision::Deliver);
        assert_eq!(plan.decide(FaultPoint::ProduceAckLost), FaultDecision::Deliver);
        assert_eq!(plan.decide(FaultPoint::ProduceAckLost), FaultDecision::DropAck);
        assert_eq!(plan.decide(FaultPoint::ProduceAckLost), FaultDecision::Deliver);
    }

    #[test]
    fn probabilistic_faults_are_reproducible() {
        let run = |seed| {
            let plan = FaultPlan::seeded(seed).with_ack_loss(FaultPoint::ProduceAckLost, 0.3);
            (0..64).map(|_| plan.decide(FaultPoint::ProduceAckLost)).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn probabilistic_rate_roughly_matches() {
        let plan = FaultPlan::seeded(1).with_ack_loss(FaultPoint::ProduceAckLost, 0.5);
        let dropped = (0..2000)
            .filter(|_| plan.decide(FaultPoint::ProduceAckLost) == FaultDecision::DropAck)
            .count();
        assert!((800..1200).contains(&dropped), "dropped={dropped}");
    }

    #[test]
    fn disable_suppresses_faults() {
        let plan = FaultPlan::seeded(1).with_ack_loss(FaultPoint::ProduceAckLost, 1.0);
        assert_eq!(plan.decide(FaultPoint::ProduceAckLost), FaultDecision::DropAck);
        plan.disable();
        assert_eq!(plan.decide(FaultPoint::ProduceAckLost), FaultDecision::Deliver);
        plan.enable();
        assert_eq!(plan.decide(FaultPoint::ProduceAckLost), FaultDecision::DropAck);
    }

    #[test]
    fn points_are_independent() {
        let plan = FaultPlan::seeded(1).with_ack_loss(FaultPoint::ProduceAckLost, 1.0);
        assert_eq!(plan.decide(FaultPoint::FetchResponseLost), FaultDecision::Deliver);
        assert_eq!(plan.decide(FaultPoint::ProduceAckLost), FaultDecision::DropAck);
    }

    #[test]
    fn observed_counts() {
        let plan = FaultPlan::none();
        plan.decide(FaultPoint::TxnRpcAckLost);
        plan.decide(FaultPoint::TxnRpcAckLost);
        assert_eq!(plan.observed(FaultPoint::TxnRpcAckLost), 2);
        assert_eq!(plan.observed(FaultPoint::ProduceRequestLost), 0);
    }

    #[test]
    fn injected_counts_track_non_deliver_decisions() {
        let plan = FaultPlan::none()
            .script(FaultPoint::ProduceAckLost, 2, FaultDecision::DropAck)
            .script(FaultPoint::ProduceAckLost, 3, FaultDecision::DropRequest);
        for _ in 0..4 {
            plan.decide(FaultPoint::ProduceAckLost);
        }
        assert_eq!(plan.observed(FaultPoint::ProduceAckLost), 4);
        assert_eq!(plan.injected(FaultPoint::ProduceAckLost), 2);
        let counts = plan.injection_counts();
        assert_eq!(counts.len(), FaultPoint::ALL.len());
        assert_eq!(counts[0], (FaultPoint::ProduceAckLost, 4, 2));
        assert_eq!(counts[2], (FaultPoint::FetchResponseLost, 0, 0));
    }

    #[test]
    fn request_loss_takes_priority_over_ack_loss() {
        let plan = FaultPlan::seeded(2)
            .with_request_loss(FaultPoint::ProduceRequestLost, 1.0)
            .with_ack_loss(FaultPoint::ProduceRequestLost, 1.0);
        assert_eq!(plan.decide(FaultPoint::ProduceRequestLost), FaultDecision::DropRequest);
    }
}
