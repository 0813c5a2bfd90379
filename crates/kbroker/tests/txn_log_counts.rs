//! The transaction log's cost in the registry: `kbroker.txn.log_records`
//! and `kbroker.txn.log_bytes` (key plus value) count every metadata
//! transition the coordinator persists. The registry is process-global, so
//! this binary holds this one test.

use kbroker::{Cluster, TopicConfig, TopicPartition};
use klog::batch::BatchMeta;
use klog::Record;
use simkit::ManualClock;

#[test]
fn init_and_one_commit_write_four_txn_log_records() {
    let clock = ManualClock::new();
    let c = Cluster::builder().brokers(3).replication(3).clock(clock.shared()).build();
    c.create_topic("out", TopicConfig::new(3)).unwrap();
    let tps: Vec<TopicPartition> = (0..3).map(|p| TopicPartition::new("out", p)).collect();
    kobs::reset();

    let (pid, epoch) = c.txn_init_producer("app", 60_000).unwrap();
    c.txn_add_partitions("app", pid, epoch, &tps).unwrap();
    let meta = BatchMeta::transactional(pid, epoch, 0);
    c.produce(&tps[0], meta, vec![Record::of_str("k", "v", 0)]).unwrap();
    c.txn_end("app", pid, epoch, true).unwrap();

    let snap = kobs::snapshot();
    if !kobs::ENABLED {
        assert!(snap.is_empty());
        return;
    }
    // Key `app` (3 bytes) plus the value: 29 fixed bytes (producer id,
    // epoch, state tag, start, timeout), then each topic's name behind its
    // length, its partition count and 4 bytes a partition:
    //   init fence       29
    //   AddPartitions    29 + (4 + 3 + 4) + 3 × 4 = 52
    //   prepare          52
    //   complete         29 (completion clears the partitions)
    assert_eq!(snap.counter("kbroker.txn.log_records"), Some(4));
    assert_eq!(snap.counter("kbroker.txn.log_bytes"), Some(4 * 3 + 29 + 52 + 52 + 29));
}
