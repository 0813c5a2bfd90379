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
    /// deterministic reports).
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
    /// Number of operations observed at this point so far.
    count: u64,
    /// Number of non-`Deliver` decisions handed out at this point.
    injected: u64,
}

/// A shareable, seeded fault plan consulted by the simulated RPC layer.
///
/// A default-constructed plan injects no faults, so production-path code pays
/// only a cheap check.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Arc<Mutex<FaultPlanInner>>,
}

#[derive(Debug)]
struct FaultPlanInner {
    rng: DetRng,
    points: HashMap<FaultPoint, PointPlan>,
    enabled: bool,
}

impl Default for FaultPlanInner {
    fn default() -> Self {
        Self { rng: DetRng::new(0), points: HashMap::new(), enabled: true }
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
        plan.inner.lock().rng = DetRng::new(seed);
        plan
    }

    /// Set the probability that operations at `point` lose their ack.
    pub fn with_ack_loss(self, point: FaultPoint, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob));
        self.inner.lock().points.entry(point).or_default().ack_loss_prob = prob;
        self
    }

    /// Set the probability that operations at `point` are dropped entirely.
    pub fn with_request_loss(self, point: FaultPoint, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob));
        self.inner.lock().points.entry(point).or_default().request_loss_prob = prob;
        self
    }

    /// Script a one-shot fault: the `nth` (1-based) operation observed at
    /// `point` gets `decision`.
    pub fn script(self, point: FaultPoint, nth: u64, decision: FaultDecision) -> Self {
        assert!(nth >= 1, "operation counters are 1-based");
        self.inner.lock().points.entry(point).or_default().scripted.insert(nth, decision);
        self
    }

    /// Disable all fault injection (e.g. during a recovery phase of a test).
    pub fn disable(&self) {
        self.inner.lock().enabled = false;
    }

    /// Re-enable fault injection.
    pub fn enable(&self) {
        self.inner.lock().enabled = true;
    }

    /// Consult the plan for the next operation at `point`.
    pub fn decide(&self, point: FaultPoint) -> FaultDecision {
        let mut inner = self.inner.lock();
        if !inner.enabled {
            return FaultDecision::Deliver;
        }
        // Split borrow: take what we need from the map entry first.
        let plan = inner.points.entry(point).or_default();
        plan.count += 1;
        let count = plan.count;
        if let Some(&d) = plan.scripted.get(&count) {
            if d != FaultDecision::Deliver {
                plan.injected += 1;
            }
            return d;
        }
        let (alp, rlp) = (plan.ack_loss_prob, plan.request_loss_prob);
        if rlp > 0.0 && inner.rng.chance(rlp) {
            inner.points.get_mut(&point).expect("entry above").injected += 1;
            return FaultDecision::DropRequest;
        }
        if alp > 0.0 && inner.rng.chance(alp) {
            inner.points.get_mut(&point).expect("entry above").injected += 1;
            return FaultDecision::DropAck;
        }
        FaultDecision::Deliver
    }

    /// Number of operations observed so far at `point`.
    pub fn observed(&self, point: FaultPoint) -> u64 {
        self.inner.lock().points.get(&point).map_or(0, |p| p.count)
    }

    /// Number of faults actually injected (non-`Deliver` decisions) at
    /// `point`.
    pub fn injected(&self, point: FaultPoint) -> u64 {
        self.inner.lock().points.get(&point).map_or(0, |p| p.injected)
    }

    /// `(point, observed, injected)` for every fault point, in the stable
    /// [`FaultPoint::ALL`] order — byte-identical across identical runs.
    pub fn injection_counts(&self) -> Vec<(FaultPoint, u64, u64)> {
        let inner = self.inner.lock();
        FaultPoint::ALL
            .iter()
            .map(|&p| {
                let (o, i) = inner.points.get(&p).map_or((0, 0), |pp| (pp.count, pp.injected));
                (p, o, i)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
