//! The consumer client: subscriptions, polling, isolation levels, and
//! group-coordinated progress.
//!
//! A read-committed consumer (§4.2.3) only receives records whose
//! transaction committed; the broker-side fetch path enforces this via the
//! last-stable-offset bound and the aborted-transaction index, and the
//! consumer's position transparently skips control markers and aborted
//! data.

use crate::cluster::Cluster;
use crate::error::BrokerError;
use crate::group::GroupView;
use crate::topic::TopicPartition;
use bytes::Bytes;
use klog::{IsolationLevel, Offset};
use simkit::{FaultDecision, FaultPoint};
use std::collections::HashMap;
use std::sync::Arc;

/// Upper bound on injected-fault retries for one `commit_sync` call; the
/// fault plans used in tests cap scripted/probabilistic losses well below
/// this.
const MAX_COMMIT_ATTEMPTS: usize = 32;

/// Consumer configuration.
#[derive(Debug, Clone)]
pub struct ConsumerConfig {
    /// Group id for subscription mode (None ⇒ manual assignment only).
    pub group: Option<String>,
    /// Isolation level for fetches.
    pub isolation: IsolationLevel,
    /// Max records returned by one `poll`.
    pub max_poll_records: usize,
    /// Where to start on a partition with no committed offset.
    pub start_at_earliest: bool,
}

impl Default for ConsumerConfig {
    fn default() -> Self {
        Self {
            group: None,
            isolation: IsolationLevel::ReadUncommitted,
            max_poll_records: 500,
            start_at_earliest: true,
        }
    }
}

impl ConsumerConfig {
    pub fn grouped(group: impl Into<String>) -> Self {
        Self { group: Some(group.into()), ..Self::default() }
    }

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
    /// Shared by every record one fetch delivered.
    pub topic: Arc<str>,
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
    generation: i32,
    assignment: Vec<TopicPartition>,
    positions: HashMap<TopicPartition, Offset>,
    subscribed: Vec<String>,
    /// Round-robin cursor over assigned partitions so one busy partition
    /// cannot starve the others.
    next_partition: usize,
}

impl Consumer {
    pub fn new(cluster: Cluster, member_id: impl Into<String>, config: ConsumerConfig) -> Self {
        Self {
            cluster,
            config,
            member_id: member_id.into(),
            generation: 0,
            assignment: Vec::new(),
            positions: HashMap::new(),
            subscribed: Vec::new(),
            next_partition: 0,
        }
    }

    pub fn member_id(&self) -> &str {
        &self.member_id
    }

    /// Current assignment (manual or group-assigned).
    pub fn assignment(&self) -> &[TopicPartition] {
        &self.assignment
    }

    /// Manually assign partitions (no group coordination).
    pub fn assign(&mut self, partitions: Vec<TopicPartition>) -> Result<(), BrokerError> {
        self.assignment = partitions;
        self.positions.clear();
        self.init_positions()?;
        Ok(())
    }

    /// Subscribe to topics through the configured group; triggers a join
    /// and adopts the group-assigned partitions.
    pub fn subscribe(&mut self, topics: &[&str]) -> Result<(), BrokerError> {
        let group = self.group()?.to_string();
        self.subscribed = topics.iter().map(ToString::to_string).collect();
        let view = self.cluster.group_join(&group, &self.member_id, &self.subscribed)?;
        self.adopt(view)?;
        Ok(())
    }

    fn group(&self) -> Result<&str, BrokerError> {
        self.config
            .group
            .as_deref()
            .ok_or_else(|| BrokerError::InvalidOperation("consumer has no group".into()))
    }

    fn adopt(&mut self, view: GroupView) -> Result<(), BrokerError> {
        self.generation = view.generation;
        self.assignment = view.assignment;
        self.positions.clear();
        self.init_positions()?;
        Ok(())
    }

    fn init_positions(&mut self) -> Result<(), BrokerError> {
        for tp in self.assignment.clone() {
            let start = if let Some(group) = self.config.group.as_deref() {
                self.cluster.group_committed_offset(group, &tp)?
            } else {
                None
            };
            let start = match start {
                Some(off) => Some(off),
                None => {
                    let probe = if self.config.start_at_earliest {
                        self.cluster.earliest_offset(&tp)
                    } else {
                        self.cluster.latest_offset(&tp)
                    };
                    match probe {
                        Ok(off) => Some(off),
                        // Momentarily leaderless: leave the position unset;
                        // poll() will retry from offset 0 once a leader is
                        // back.
                        Err(BrokerError::NoLeader { .. }) => None,
                        Err(e) => return Err(e),
                    }
                }
            };
            if let Some(start) = start {
                self.positions.insert(tp, start);
            }
        }
        Ok(())
    }

    /// Poll for records. In subscription mode this also heart-beats and
    /// adopts any rebalanced assignment before fetching.
    pub fn poll(&mut self) -> Result<Vec<ConsumerRecord>, BrokerError> {
        if !self.subscribed.is_empty() {
            let group = self.group()?.to_string();
            let view = self.cluster.group_view(&group, &self.member_id)?;
            if view.generation != self.generation {
                self.adopt(view)?;
            }
        }
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
            let tp = &self.assignment[(self.next_partition + i) % nparts];
            let pos = *self.positions.get(tp).unwrap_or(&0);
            let fetch = match self.cluster.fetch(tp, pos, budget - out.len(), self.config.isolation)
            {
                Ok(f) => f,
                // The partition may be momentarily leaderless during a
                // broker failure; skip and retry next poll.
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
            let topic: Arc<str> = Arc::from(tp.topic.as_str());
            for (offset, rec) in fetch.records() {
                out.push(ConsumerRecord {
                    topic: topic.clone(),
                    partition: tp.partition,
                    offset,
                    key: rec.key.clone(),
                    value: rec.value.clone(),
                    timestamp: rec.timestamp,
                });
            }
            match self.positions.get_mut(tp) {
                Some(position) => *position = fetch.next_offset,
                None => {
                    self.positions.insert(tp.clone(), fetch.next_offset);
                }
            }
        }
        self.next_partition = (self.next_partition + 1) % nparts;
        Ok(out)
    }

    /// Current fetch position for a partition.
    pub fn position(&self, tp: &TopicPartition) -> Option<Offset> {
        self.positions.get(tp).copied()
    }

    /// Seek to an absolute offset.
    pub fn seek(&mut self, tp: &TopicPartition, offset: Offset) {
        self.positions.insert(tp.clone(), offset);
    }

    /// Seek to the earliest retained offset.
    pub fn seek_to_beginning(&mut self, tp: &TopicPartition) -> Result<(), BrokerError> {
        let off = self.cluster.earliest_offset(tp)?;
        self.positions.insert(tp.clone(), off);
        Ok(())
    }

    /// Seek to the log end (skip everything currently stored).
    pub fn seek_to_end(&mut self, tp: &TopicPartition) -> Result<(), BrokerError> {
        let off = self.cluster.latest_offset(tp)?;
        self.positions.insert(tp.clone(), off);
        Ok(())
    }

    /// Commit current positions through the group (at-least-once mode).
    ///
    /// Retries on an injected coordinator fault: offset commits are
    /// last-write-wins per partition, so re-sending after a lost ack is
    /// idempotent.
    pub fn commit_sync(&mut self) -> Result<(), BrokerError> {
        let group = self.group()?.to_string();
        let offsets = self.current_offsets();
        for _ in 0..MAX_COMMIT_ATTEMPTS {
            match self.cluster.faults().decide(FaultPoint::OffsetCommitAckLost) {
                FaultDecision::DropRequest => {}
                FaultDecision::DropAck => {
                    self.cluster.group_commit_offsets(
                        &group,
                        &self.member_id,
                        self.generation,
                        &offsets,
                    )?;
                }
                FaultDecision::Deliver => {
                    return self.cluster.group_commit_offsets(
                        &group,
                        &self.member_id,
                        self.generation,
                        &offsets,
                    );
                }
            }
        }
        Err(BrokerError::InvalidOperation("offset commit retries exhausted".into()))
    }

    /// Positions of all assigned partitions (what a streams task feeds into
    /// `send_offsets_to_transaction`), in deterministic partition order.
    pub fn current_offsets(&self) -> Vec<(TopicPartition, Offset)> {
        let mut offsets: Vec<(TopicPartition, Offset)> =
            // detlint:allow[unordered-iter] collected then sorted below
            self.positions.iter().map(|(tp, off)| (tp.clone(), *off)).collect();
        offsets.sort_by(|a, b| a.0.cmp(&b.0));
        offsets
    }

    /// The group generation this consumer currently holds.
    pub fn generation(&self) -> i32 {
        self.generation
    }

    /// Leave the group (clean shutdown).
    pub fn close(&mut self) -> Result<(), BrokerError> {
        if !self.subscribed.is_empty() {
            let group = self.group()?.to_string();
            self.cluster.group_leave(&group, &self.member_id)?;
        }
        Ok(())
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
    fn group_subscribe_commit_resume() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        produce_n(&c, "t", 10);
        {
            let mut cons = Consumer::new(
                c.clone(),
                "m1",
                ConsumerConfig::grouped("g").with_max_poll_records(4),
            );
            cons.subscribe(&["t"]).unwrap();
            let got = cons.poll().unwrap();
            assert_eq!(got.len(), 4);
            cons.commit_sync().unwrap();
            cons.close().unwrap();
        }
        // A new member resumes from the committed offset.
        let mut cons2 = Consumer::new(c, "m2", ConsumerConfig::grouped("g"));
        cons2.subscribe(&["t"]).unwrap();
        let got = cons2.poll().unwrap();
        assert_eq!(got.len(), 6);
        assert_eq!(got[0].offset, 4);
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
    fn rebalance_detected_on_poll() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(2)).unwrap();
        let mut a = Consumer::new(c.clone(), "a", ConsumerConfig::grouped("g"));
        a.subscribe(&["t"]).unwrap();
        assert_eq!(a.assignment().len(), 2);
        let mut b = Consumer::new(c.clone(), "b", ConsumerConfig::grouped("g"));
        b.subscribe(&["t"]).unwrap();
        // a's next poll adopts the new generation and loses one partition.
        a.poll().unwrap();
        assert_eq!(a.assignment().len(), 1);
        assert_eq!(b.assignment().len(), 1);
        assert_eq!(a.generation(), b.generation());
    }

    #[test]
    fn seek_to_beginning_and_end() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        produce_n(&c, "t", 5);
        let tp = TopicPartition::new("t", 0);
        let mut cons = Consumer::new(c, "m", ConsumerConfig::default());
        cons.assign(vec![tp.clone()]).unwrap();
        cons.seek_to_end(&tp).unwrap();
        assert!(cons.poll().unwrap().is_empty());
        cons.seek_to_beginning(&tp).unwrap();
        assert_eq!(cons.poll().unwrap().len(), 5);
        cons.seek(&tp, 3);
        assert_eq!(cons.poll().unwrap().len(), 2);
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
    fn scripted_offset_commit_ack_loss_is_idempotent() {
        // Script: the 1st commit's ack is lost (request applied broker-side),
        // the 2nd commit's request is lost entirely. commit_sync retries
        // until delivery and the committed offset lands exactly once.
        let plan = FaultPlan::seeded(11)
            .script(FaultPoint::OffsetCommitAckLost, 1, FaultDecision::DropAck)
            .script(FaultPoint::OffsetCommitAckLost, 2, FaultDecision::DropRequest);
        let c = Cluster::builder().brokers(1).replication(1).faults(plan.clone()).build();
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        produce_n(&c, "t", 6);
        let mut cons = Consumer::new(c.clone(), "m1", ConsumerConfig::grouped("g"));
        cons.subscribe(&["t"]).unwrap();
        assert_eq!(cons.poll().unwrap().len(), 6);
        cons.commit_sync().unwrap();
        assert_eq!(plan.observed(FaultPoint::OffsetCommitAckLost), 3, "two faults + one delivery");
        assert_eq!(plan.injected(FaultPoint::OffsetCommitAckLost), 2);
        assert_eq!(
            c.group_committed_offset("g", &TopicPartition::new("t", 0)).unwrap(),
            Some(6),
            "commit survives lost ack and lost request"
        );
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
}
