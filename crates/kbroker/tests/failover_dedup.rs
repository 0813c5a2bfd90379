//! Leader failover over shared batches (§4.1): a follower holds the very
//! allocations its leader appended and never ran a sequence check of its
//! own, so when it is elected and rebuilds its producer state "by looking
//! at the local logs", it must still recognise a retried batch exactly as
//! the old leader would have.
//!
//! One `#[test]` in its own binary, because it reads the process-global
//! `klog.dedup_hits` counter.

use kbroker::{Cluster, IsolationLevel, TopicConfig, TopicPartition};
use klog::{BatchMeta, Record};

#[test]
fn elected_follower_dedups_the_retry_of_a_batch_it_only_ever_shared() {
    let cluster = Cluster::builder().brokers(3).replication(3).build();
    cluster.create_topic("t", TopicConfig::new(1)).unwrap();
    let tp = TopicPartition::new("t", 0);
    let pid = cluster.alloc_producer_id();
    let batch = |base_sequence: i64| -> (BatchMeta, Vec<Record>) {
        let records = (0..3).map(|i| Record::of_str("k", &format!("v{base_sequence}-{i}"), i));
        (BatchMeta::idempotent(pid, 0, base_sequence), records.collect())
    };

    // Two batches land on leader 0; the second one's ack is "lost".
    for base_sequence in [0, 3] {
        let (meta, records) = batch(base_sequence);
        assert!(!cluster.produce(&tp, meta, records).unwrap().duplicate);
    }
    // Fail over twice, to the replica that was last in line.
    assert_eq!(cluster.leader_of(&tp).unwrap(), Some(0));
    cluster.kill_broker(0);
    cluster.kill_broker(1);
    assert_eq!(cluster.leader_of(&tp).unwrap(), Some(2));

    let hits_before = kobs::snapshot().counter("klog.dedup_hits").unwrap_or(0);
    let (meta, records) = batch(3);
    let retry = cluster.produce(&tp, meta, records).unwrap();
    assert!(retry.duplicate, "the elected follower must recognise the retried batch");
    assert_eq!((retry.base_offset, retry.last_offset), (3, 5), "acked with the original offsets");
    assert_eq!(cluster.latest_offset(&tp).unwrap(), 6, "a duplicate never grows the log");
    assert_eq!(cluster.fetch(&tp, 0, 100, IsolationLevel::ReadUncommitted).unwrap().count(), 6);
    if kobs::ENABLED {
        let hits = kobs::snapshot().counter("klog.dedup_hits").unwrap_or(0) - hits_before;
        assert_eq!(hits, 1);
    }

    // And the sequence continues where the old leader left it.
    let (meta, records) = batch(6);
    assert!(!cluster.produce(&tp, meta, records).unwrap().duplicate);
    assert!(klog::checks::take_violations().is_empty());
}
