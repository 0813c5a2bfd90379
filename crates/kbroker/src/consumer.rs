//! The consumer client: manually assigned partitions, polling, and
//! isolation levels.
//!
//! A read-committed consumer (§4.2.3) only receives records whose
//! transaction committed; the broker-side fetch path enforces this via the
//! last-stable-offset bound and the aborted-transaction index, and the
//! consumer's position transparently skips control markers and aborted
//! data.
//!
//! The caller names the partitions to read: the group coordinator assigns
//! nothing (see [`crate::group`]).

use crate::cluster::{Cluster, PartitionHandle};
use crate::error::BrokerError;
use crate::topic::{Topic, TopicPartition};
use bytes::Bytes;
use klog::{IsolationLevel, Offset};
use simkit::{FaultDecision, FaultPoint};

/// Consumer configuration.
#[derive(Debug, Clone)]
pub struct ConsumerConfig {
    /// Isolation level for fetches.
    pub isolation: IsolationLevel,
    /// Max records returned by one `poll`.
    pub max_poll_records: usize,
}

impl Default for ConsumerConfig {
    fn default() -> Self {
        Self { isolation: IsolationLevel::ReadUncommitted, max_poll_records: 500 }
    }
}

impl ConsumerConfig {
    pub fn read_committed(mut self) -> Self {
        self.isolation = IsolationLevel::ReadCommitted;
        self
    }

    pub fn with_max_poll_records(mut self, n: usize) -> Self {
        self.max_poll_records = n;
        self
    }
}

/// One record as delivered to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsumerRecord {
    pub topic: Topic,
    pub partition: u32,
    pub offset: Offset,
    pub key: Option<Bytes>,
    pub value: Option<Bytes>,
    pub timestamp: i64,
}

/// A Kafka-like consumer client bound to one cluster.
pub struct Consumer {
    cluster: Cluster,
    config: ConsumerConfig,
    member_id: String,
    assignment: Vec<TopicPartition>,
    /// Per assigned partition, in `assignment` order: its handle, and its
    /// fetch position. A partition that was leaderless when its position
    /// was first needed has none yet.
    positions: Vec<(PartitionHandle, Option<Offset>)>,
    /// Round-robin cursor over assigned partitions so one busy partition
    /// cannot starve the others.
    next_partition: usize,
}

/// A partition's fetch position, starting it at the earliest retained
/// offset when it has none. `None` while the partition is leaderless: the
/// next poll tries again.
fn resolve_position(
    handle: &PartitionHandle,
    position: &mut Option<Offset>,
) -> Result<Option<Offset>, BrokerError> {
    if position.is_none() {
        match handle.earliest_offset() {
            Ok(start) => *position = Some(start),
            Err(BrokerError::NoLeader { .. }) => return Ok(None),
            Err(e) => return Err(e),
        }
    }
    Ok(*position)
}

impl Consumer {
    pub fn new(cluster: Cluster, member_id: impl Into<String>, config: ConsumerConfig) -> Self {
        Self {
            cluster,
            config,
            member_id: member_id.into(),
            assignment: Vec::new(),
            positions: Vec::new(),
            next_partition: 0,
        }
    }

    pub fn member_id(&self) -> &str {
        &self.member_id
    }

    /// Current assignment.
    pub fn assignment(&self) -> &[TopicPartition] {
        &self.assignment
    }

    /// Assign partitions, each starting at its earliest retained offset.
    pub fn assign(&mut self, partitions: Vec<TopicPartition>) -> Result<(), BrokerError> {
        self.assignment.clear();
        self.positions.clear();
        for tp in &partitions {
            let handle = self.cluster.partition_handle(tp)?;
            let mut position = None;
            resolve_position(&handle, &mut position)?;
            self.positions.push((handle, position));
        }
        self.assignment = partitions;
        Ok(())
    }

    /// Poll for records from the assigned partitions.
    pub fn poll(&mut self) -> Result<Vec<ConsumerRecord>, BrokerError> {
        let mut out = Vec::new();
        if self.assignment.is_empty() {
            return Ok(out);
        }
        let nparts = self.assignment.len();
        let budget = self.config.max_poll_records;
        for i in 0..nparts {
            if out.len() >= budget {
                break;
            }
            let (handle, position) = &mut self.positions[(self.next_partition + i) % nparts];
            // The partition may be momentarily leaderless during a broker
            // failure; skip and retry next poll.
            let Some(from) = resolve_position(handle, position)? else {
                continue;
            };
            let fetch = match handle.fetch(from, budget - out.len(), self.config.isolation) {
                Ok(f) => f,
                Err(BrokerError::NoLeader { .. }) => continue,
                Err(e) => return Err(e),
            };
            // A lost fetch request or a lost fetch response look identical
            // from the client: no data arrives and the position stays put,
            // so the next poll re-fetches the same range (fetches are
            // naturally idempotent reads).
            if self.cluster.faults().decide(FaultPoint::FetchResponseLost) != FaultDecision::Deliver
            {
                continue;
            }
            let tp = handle.partition();
            for (offset, rec) in fetch.records() {
                out.push(ConsumerRecord {
                    topic: tp.topic,
                    partition: tp.partition,
                    offset,
                    key: rec.key.clone(),
                    value: rec.value.clone(),
                    timestamp: rec.timestamp,
                });
            }
            *position = Some(fetch.next_offset);
        }
        self.next_partition = (self.next_partition + 1) % nparts;
        Ok(out)
    }

    /// Current fetch position for a partition.
    pub fn position(&self, tp: &TopicPartition) -> Option<Offset> {
        let at = self.assignment.iter().position(|assigned| assigned == tp)?;
        self.positions[at].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::producer::{Producer, ProducerConfig};
    use crate::topic::TopicConfig;
    use simkit::FaultPlan;

    fn cluster() -> Cluster {
        Cluster::builder().brokers(1).replication(1).faults(FaultPlan::none()).build()
    }

    fn produce_n(c: &Cluster, topic: &str, n: usize) {
        let mut p = Producer::new(c.clone(), ProducerConfig::default());
        for i in 0..n {
            p.send(
                topic,
                Some(Bytes::from(format!("k{i}"))),
                Some(Bytes::from(format!("v{i}"))),
                i as i64,
            )
            .unwrap();
        }
        p.flush().unwrap();
    }

    #[test]
    fn manual_assign_and_poll() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(2)).unwrap();
        produce_n(&c, "t", 20);
        let mut cons = Consumer::new(c, "m", ConsumerConfig::default());
        cons.assign(vec![TopicPartition::new("t", 0), TopicPartition::new("t", 1)]).unwrap();
        let mut got = Vec::new();
        loop {
            let batch = cons.poll().unwrap();
            if batch.is_empty() {
                break;
            }
            got.extend(batch);
        }
        assert_eq!(got.len(), 20);
    }

    #[test]
    fn poll_respects_max_records() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        produce_n(&c, "t", 10);
        let mut cons = Consumer::new(c, "m", ConsumerConfig::default().with_max_poll_records(3));
        cons.assign(vec![TopicPartition::new("t", 0)]).unwrap();
        assert_eq!(cons.poll().unwrap().len(), 3);
        assert_eq!(cons.poll().unwrap().len(), 3);
    }

    #[test]
    fn read_committed_waits_for_commit() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let mut p = Producer::new(c.clone(), ProducerConfig::transactional("app"));
        p.init_transactions().unwrap();
        p.begin_transaction().unwrap();
        p.send("t", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"v")), 0).unwrap();
        p.flush().unwrap();

        let mut rc = Consumer::new(c.clone(), "rc", ConsumerConfig::default().read_committed());
        rc.assign(vec![TopicPartition::new("t", 0)]).unwrap();
        assert!(rc.poll().unwrap().is_empty(), "uncommitted data invisible");

        p.commit_transaction().unwrap();
        assert_eq!(rc.poll().unwrap().len(), 1);
    }

    #[test]
    fn read_committed_skips_aborted() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let mut p = Producer::new(c.clone(), ProducerConfig::transactional("app"));
        p.init_transactions().unwrap();
        p.begin_transaction().unwrap();
        p.send("t", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"dead")), 0).unwrap();
        p.flush().unwrap();
        p.abort_transaction().unwrap();
        p.begin_transaction().unwrap();
        p.send("t", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"live")), 0).unwrap();
        p.commit_transaction().unwrap();

        let mut rc = Consumer::new(c, "rc", ConsumerConfig::default().read_committed());
        rc.assign(vec![TopicPartition::new("t", 0)]).unwrap();
        let got = rc.poll().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value.as_deref(), Some(b"live".as_slice()));
        // Position advanced past markers so the next poll is empty, not
        // spinning on the aborted range.
        assert!(rc.poll().unwrap().is_empty());
    }

    #[test]
    fn scripted_fetch_response_loss_redelivers_same_records() {
        // Script: the 1st fetch response is lost. The consumer must not
        // advance its position, so the next poll re-reads the same range.
        let plan =
            FaultPlan::seeded(7).script(FaultPoint::FetchResponseLost, 1, FaultDecision::DropAck);
        let c = Cluster::builder().brokers(1).replication(1).faults(plan.clone()).build();
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        produce_n(&c, "t", 5);
        let mut cons = Consumer::new(c, "m", ConsumerConfig::default());
        cons.assign(vec![TopicPartition::new("t", 0)]).unwrap();
        assert!(cons.poll().unwrap().is_empty(), "lost response yields no records");
        assert_eq!(cons.position(&TopicPartition::new("t", 0)), Some(0), "position unchanged");
        let got = cons.poll().unwrap();
        assert_eq!(got.len(), 5, "retry redelivers everything");
        assert_eq!(got[0].offset, 0);
        assert!(plan.injected(FaultPoint::FetchResponseLost) >= 1);
    }

    #[test]
    fn poll_skips_leaderless_partition() {
        let c = Cluster::builder().brokers(2).replication(1).build();
        c.create_topic("t", TopicConfig::new(2)).unwrap(); // p0→b0, p1→b1
        produce_n(&c, "t", 10);
        c.kill_broker(0);
        let mut cons = Consumer::new(c, "m", ConsumerConfig::default());
        cons.assign(vec![TopicPartition::new("t", 0), TopicPartition::new("t", 1)]).unwrap();
        // p0 is leaderless (rf=1); poll must still serve p1.
        let got = cons.poll().unwrap();
        assert!(got.iter().all(|r| r.partition == 1));
        assert!(!got.is_empty());
    }

    #[test]
    fn leaderless_at_assign_starts_at_log_start_once_led() {
        let c = Cluster::builder().brokers(2).replication(1).build();
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let tp = TopicPartition::new("t", 0);
        assert_eq!(c.leader_of(&tp).unwrap(), Some(0));
        produce_n(&c, "t", 10);
        c.delete_records(&tp, 5).unwrap();
        c.kill_broker(0);
        let mut cons = Consumer::new(c.clone(), "m", ConsumerConfig::default());
        cons.assign(vec![tp]).unwrap();
        assert_eq!(cons.position(&tp), None, "no position while leaderless");
        c.restore_broker(0).unwrap();
        let offsets: Vec<Offset> = cons.poll().unwrap().iter().map(|r| r.offset).collect();
        assert_eq!(offsets, (5..=9).collect::<Vec<_>>(), "starts at log start, not 0");
    }
}
