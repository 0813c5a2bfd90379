//! Protocol invariant layer under fault injection (§4).
//!
//! Drives a fault-heavy workload — idempotent retries under ack/request
//! loss, transactional commit/abort cycles under lost coordinator acks,
//! broker kills and restores forcing leader elections and coordinator
//! recovery — and then asserts that the invariant sink recorded **zero**
//! violations: sequence monotonicity, epoch fencing, offset ordering
//! (LSO ≤ HW ≤ LEO), and transaction state-machine legality all held at
//! every observation point.
//!
//! Everything runs in one `#[test]` because the sink is process-global.

use bytes::Bytes;
use kbroker::producer::{Producer, ProducerConfig};
use kbroker::{Cluster, IsolationLevel, TopicConfig};
use simkit::{FaultPlan, FaultPoint};

fn committed_values(cluster: &Cluster, topic: &str) -> Vec<Bytes> {
    let mut out = Vec::new();
    for tp in cluster.partitions_of(topic).unwrap() {
        let mut pos = cluster.earliest_offset(&tp).unwrap();
        loop {
            let f = cluster.fetch(&tp, pos, usize::MAX, IsolationLevel::ReadCommitted).unwrap();
            if f.count() == 0 && f.next_offset == pos {
                break;
            }
            for (_, r) in f.records() {
                out.push(r.value.clone().unwrap_or_default());
            }
            pos = f.next_offset;
        }
    }
    out
}

#[test]
fn fault_injected_runs_uphold_protocol_invariants() {
    klog::checks::take_violations(); // start from a clean sink

    // Phase 1: idempotent producer under ack and request loss — every
    // retry exercises the sequence/dedup path on the leader.
    let faults = FaultPlan::seeded(42)
        .with_ack_loss(FaultPoint::ProduceAckLost, 0.4)
        .with_request_loss(FaultPoint::ProduceAckLost, 0.2);
    let cluster = Cluster::builder().brokers(3).replication(3).faults(faults).build();
    cluster.create_topic("idem", TopicConfig::new(2)).unwrap();
    let mut p = Producer::new(
        cluster.clone(),
        ProducerConfig { max_retries: 200, ..ProducerConfig::idempotent_only() },
    );
    for i in 0..40 {
        p.send(
            "idem",
            Some(Bytes::from(format!("k{}", i % 7))),
            Some(Bytes::from(format!("v{i}"))),
            i,
        )
        .unwrap();
    }
    p.flush().unwrap();

    // Phase 2: transactional commit/abort cycles with lost coordinator
    // acks and a rolling broker kill/restore every cycle — leader
    // elections rebuild producer state from the log, coordinator recovery
    // rolls decided transactions forward, and watermarks re-advance.
    let faults = FaultPlan::seeded(7)
        .with_ack_loss(FaultPoint::ProduceAckLost, 0.3)
        .with_ack_loss(FaultPoint::TxnRpcAckLost, 0.3);
    let cluster = Cluster::builder().brokers(3).replication(3).faults(faults).build();
    cluster.create_topic("txn", TopicConfig::new(2)).unwrap();
    let mut p = Producer::new(
        cluster.clone(),
        ProducerConfig { max_retries: 200, ..ProducerConfig::transactional("app") },
    );
    p.init_transactions().unwrap();
    let mut expected = 0usize;
    for cycle in 0..12 {
        p.begin_transaction().unwrap();
        for i in 0..3 {
            p.send(
                "txn",
                Some(Bytes::from(format!("k{i}"))),
                Some(Bytes::from(format!("c{cycle}-{i}"))),
                i,
            )
            .unwrap();
        }
        if cycle % 3 == 2 {
            p.abort_transaction().unwrap();
        } else {
            p.commit_transaction().unwrap();
            expected += 3;
        }
        // Rolling failover: never more than one broker down at a time.
        let victim = cycle % 3;
        cluster.kill_broker(victim);
        cluster.restore_broker(victim).unwrap();
    }
    assert_eq!(
        committed_values(&cluster, "txn").len(),
        expected,
        "read-committed sees exactly the committed transactions"
    );

    let violations = klog::checks::take_violations();
    assert!(
        violations.is_empty(),
        "protocol invariants violated under faults:\n{}",
        violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}
