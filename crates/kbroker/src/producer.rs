//! The producer client: batching, retries, idempotence, transactions.
//!
//! The retry loop is where §2.1's RPC-failure class becomes concrete: when
//! the fault plan drops an acknowledgement the producer *must* resend (it
//! cannot distinguish a lost request from a lost ack), and only the
//! idempotent sequence numbers keep the resend from duplicating records.
//! Benchmarks flip [`ProducerConfig::idempotent`] off to measure exactly
//! what the paper's §4.3 calls the "few extra numeric fields" overhead, and
//! tests flip it off to demonstrate the duplicates it prevents.

use crate::cluster::Cluster;
use crate::error::BrokerError;
use crate::topic::{default_partition, TopicPartition};
use bytes::Bytes;
use klog::batch::BatchMeta;
use klog::{Offset, Record, NO_SEQUENCE};
use simkit::{FaultDecision, FaultPoint};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Producer configuration.
#[derive(Debug, Clone)]
pub struct ProducerConfig {
    /// Enable idempotent (sequenced) writes (§4.1).
    pub idempotent: bool,
    /// Transactional id; enables transactions (implies idempotence, §4.2).
    pub transactional_id: Option<String>,
    /// Records buffered per partition before an automatic flush.
    pub batch_size: usize,
    /// Send attempts per batch before giving up.
    pub max_retries: u32,
    /// Transaction timeout registered with the coordinator.
    pub txn_timeout_ms: i64,
}

impl Default for ProducerConfig {
    fn default() -> Self {
        Self {
            idempotent: true,
            transactional_id: None,
            batch_size: 16,
            max_retries: 10,
            txn_timeout_ms: 60_000,
        }
    }
}

impl ProducerConfig {
    /// At-least-once: no idempotence, no transactions. Retries can
    /// duplicate records — the §2.1 failure the paper's design eliminates.
    pub fn at_least_once() -> Self {
        Self { idempotent: false, ..Self::default() }
    }

    /// Idempotent-only (no cross-partition transactions).
    pub fn idempotent_only() -> Self {
        Self::default()
    }

    /// Transactional producer with the given transactional id.
    pub fn transactional(tid: impl Into<String>) -> Self {
        Self { transactional_id: Some(tid.into()), ..Self::default() }
    }

    pub fn with_batch_size(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.batch_size = n;
        self
    }

    pub fn with_txn_timeout_ms(mut self, ms: i64) -> Self {
        self.txn_timeout_ms = ms;
        self
    }
}

/// Client-side counters (observable in benches and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProducerStats {
    /// Records handed to `send`.
    pub records_sent: u64,
    /// Batches appended (excluding duplicate-acked retries).
    pub batches_appended: u64,
    /// Resend attempts after a missing acknowledgement.
    pub retries: u64,
    /// Retried batches the broker recognised as duplicates (idempotence
    /// working as intended).
    pub duplicates_acked: u64,
}

/// A Kafka-like producer client bound to one cluster.
pub struct Producer {
    cluster: Cluster,
    config: ProducerConfig,
    producer_id: i64,
    epoch: i32,
    /// Next sequence per partition (idempotent mode).
    sequences: HashMap<TopicPartition, i64>,
    /// Per-partition record buffers, in partition order: the order a
    /// flush sends them in.
    buffers: BTreeMap<TopicPartition, Vec<Record>>,
    /// Partitions registered with the current transaction.
    registered: HashSet<TopicPartition>,
    /// Each topic's partition addresses, built at the first `send` to it.
    /// Topics are create-only with a fixed partition count, so an entry
    /// never goes stale.
    topic_partitions: HashMap<String, Arc<[TopicPartition]>>,
    in_transaction: bool,
    txn_inited: bool,
    stats: ProducerStats,
}

impl Producer {
    pub fn new(cluster: Cluster, config: ProducerConfig) -> Self {
        let producer_id = if config.idempotent && config.transactional_id.is_none() {
            cluster.alloc_producer_id()
        } else {
            -1
        };
        Self {
            cluster,
            config,
            producer_id,
            epoch: 0,
            sequences: HashMap::new(),
            buffers: BTreeMap::new(),
            registered: HashSet::new(),
            topic_partitions: HashMap::new(),
            in_transaction: false,
            txn_inited: false,
            stats: ProducerStats::default(),
        }
    }

    /// Client-side counters.
    pub fn stats(&self) -> ProducerStats {
        self.stats
    }

    /// The broker-assigned producer id (`-1` for plain producers).
    pub fn producer_id(&self) -> i64 {
        self.producer_id
    }

    /// Current producer epoch.
    pub fn producer_epoch(&self) -> i32 {
        self.epoch
    }

    fn tid(&self) -> Result<&str, BrokerError> {
        self.config
            .transactional_id
            .as_deref()
            .ok_or_else(|| BrokerError::InvalidOperation("producer is not transactional".into()))
    }

    /// Register the transactional id with its coordinator, obtaining the
    /// producer id and a bumped epoch — fencing all older incarnations
    /// (§4.2.1, Figure 4.b).
    pub fn init_transactions(&mut self) -> Result<(), BrokerError> {
        let tid = self.tid()?.to_string();
        let (pid, epoch) = self.cluster.txn_init_producer(&tid, self.config.txn_timeout_ms)?;
        self.producer_id = pid;
        self.epoch = epoch;
        self.sequences.clear();
        self.registered.clear();
        self.in_transaction = false;
        self.txn_inited = true;
        Ok(())
    }

    /// Begin a transaction. All subsequent sends (and offset commits) are
    /// part of it until `commit_transaction` / `abort_transaction`.
    pub fn begin_transaction(&mut self) -> Result<(), BrokerError> {
        self.tid()?;
        if !self.txn_inited {
            return Err(BrokerError::InvalidOperation(
                "init_transactions must be called first".into(),
            ));
        }
        if self.in_transaction {
            return Err(BrokerError::InvalidOperation("transaction already open".into()));
        }
        self.in_transaction = true;
        self.registered.clear();
        Ok(())
    }

    fn is_transactional(&self) -> bool {
        self.config.transactional_id.is_some()
    }

    /// Send a record to a topic, partitioned by [`default_partition`].
    pub fn send(
        &mut self,
        topic: &str,
        key: impl Into<Option<Bytes>>,
        value: impl Into<Option<Bytes>>,
        timestamp: i64,
    ) -> Result<(), BrokerError> {
        let key = key.into();
        let partitions = self.partitions_of(topic)?;
        let partition = default_partition(key.as_deref(), partitions.len() as u32);
        self.send_to_partition(
            &partitions[partition as usize],
            Record { key, value: value.into(), timestamp },
        )
    }

    fn partitions_of(&mut self, topic: &str) -> Result<Arc<[TopicPartition]>, BrokerError> {
        if let Some(partitions) = self.topic_partitions.get(topic) {
            return Ok(partitions.clone());
        }
        let partitions: Arc<[TopicPartition]> = self.cluster.partitions_of(topic)?.into();
        self.topic_partitions.insert(topic.to_string(), partitions.clone());
        Ok(partitions)
    }

    /// Send a pre-built record to an explicit partition.
    pub fn send_to_partition(
        &mut self,
        tp: &TopicPartition,
        record: Record,
    ) -> Result<(), BrokerError> {
        if self.is_transactional() && !self.in_transaction {
            return Err(BrokerError::InvalidOperation(
                "transactional producer must begin_transaction before send".into(),
            ));
        }
        self.stats.records_sent += 1;
        // The partition's buffer is found by reference; only the first
        // record ever sent to a partition pays for an owned key.
        let buffered = match self.buffers.get_mut(tp) {
            Some(buf) => {
                buf.push(record);
                buf.len()
            }
            None => {
                self.buffers.insert(tp.clone(), vec![record]);
                1
            }
        };
        if buffered >= self.config.batch_size {
            self.flush_partition(tp)?;
        }
        Ok(())
    }

    /// Flush all buffered records, in partition order (the simulation
    /// harness replays byte-identically from a seed, so no client may
    /// iterate a `HashMap` into an observable effect). A flush that finds
    /// every buffer empty allocates nothing and clones no partition name.
    pub fn flush(&mut self) -> Result<(), BrokerError> {
        // The buffers leave `self` for the loop, so each batch is sent under
        // its own key; they come back however the loop ends.
        let mut buffers = std::mem::take(&mut self.buffers);
        let flushed = self.flush_buffers(&mut buffers);
        self.buffers = buffers;
        flushed
    }

    fn flush_buffers(
        &mut self,
        buffers: &mut BTreeMap<TopicPartition, Vec<Record>>,
    ) -> Result<(), BrokerError> {
        // The unregistered partitions are registered in one request when
        // the flush reaches the first of them, as `flush_partition` would.
        let pending = if self.is_transactional() {
            Self::unregistered(buffers, &self.registered)
        } else {
            Vec::new()
        };
        for (tp, buffer) in buffers.iter_mut().filter(|(_, b)| !b.is_empty()) {
            if self.is_transactional() && !self.registered.contains(tp) {
                self.register_with_retries(&pending)?;
            }
            let records = Self::take_batch(buffer);
            self.send_batch(tp, records)?;
        }
        Ok(())
    }

    fn flush_partition(&mut self, tp: &TopicPartition) -> Result<(), BrokerError> {
        if self.is_transactional() && !self.registered.contains(tp) {
            let pending = Self::unregistered(&self.buffers, &self.registered);
            self.register_with_retries(&pending)?;
        }
        let records = match self.buffers.get_mut(tp) {
            Some(b) if !b.is_empty() => Self::take_batch(b),
            _ => return Ok(()),
        };
        self.send_batch(tp, records)
    }

    /// A buffer's records, leaving it empty. The next batch's buffer is
    /// sized like this one, so a partition in a steady state grows its
    /// buffer once per batch.
    fn take_batch(buffer: &mut Vec<Record>) -> Vec<Record> {
        let next = Vec::with_capacity(buffer.len());
        std::mem::replace(buffer, next)
    }

    fn send_batch(&mut self, tp: &TopicPartition, records: Vec<Record>) -> Result<(), BrokerError> {
        let base_seq = if self.config.idempotent || self.is_transactional() {
            self.sequences.get(tp).copied().unwrap_or(0)
        } else {
            NO_SEQUENCE
        };
        let meta = BatchMeta {
            producer_id: self.producer_id,
            producer_epoch: self.epoch,
            base_sequence: base_seq,
            transactional: self.is_transactional(),
            control: None,
        };
        let n = records.len() as i64;
        let outcome = self.send_with_retries(tp, meta, records)?;
        if base_seq != NO_SEQUENCE {
            match self.sequences.get_mut(tp) {
                Some(next) => *next = base_seq + n,
                None => {
                    self.sequences.insert(tp.clone(), base_seq + n);
                }
            }
        }
        if outcome.duplicate {
            self.stats.duplicates_acked += 1;
        } else {
            self.stats.batches_appended += 1;
        }
        Ok(())
    }

    /// Every partition that holds unsent records and is not yet part of the
    /// open transaction, in partition order: registered in one
    /// AddPartitionsToTxn, so one flush costs the coordinator one
    /// transaction-log record however many partitions it first touches, as
    /// Kafka's client batches them.
    fn unregistered(
        buffers: &BTreeMap<TopicPartition, Vec<Record>>,
        registered: &HashSet<TopicPartition>,
    ) -> Vec<TopicPartition> {
        let pending = buffers.iter().filter(|(tp, b)| !b.is_empty() && !registered.contains(*tp));
        pending.map(|(tp, _)| tp.clone()).collect()
    }

    /// Register partitions with the transaction coordinator, retrying
    /// through lost AddPartitionsToTxn acks. A `DropAck` retry re-registers
    /// already-registered partitions — idempotent at the coordinator, so the
    /// retry is harmless (§4.2).
    fn register_with_retries(&mut self, partitions: &[TopicPartition]) -> Result<(), BrokerError> {
        let Some(first) = partitions.first() else { return Ok(()) };
        let tid = self.tid()?.to_string();
        let mut attempts = 0;
        loop {
            let decision = self.cluster.faults().decide(FaultPoint::TxnAddPartitionsAckLost);
            // A dropped request never reaches the coordinator; a dropped ack
            // registers the partitions without the client learning it.
            if decision != FaultDecision::DropRequest {
                self.cluster.txn_add_partitions(&tid, self.producer_id, self.epoch, partitions)?;
            }
            if decision == FaultDecision::Deliver {
                self.registered.extend(partitions.iter().cloned());
                return Ok(());
            }
            attempts += 1;
            self.stats.retries += 1;
            if attempts > self.config.max_retries {
                return Err(BrokerError::RetriesExhausted {
                    topic: first.topic.clone(),
                    partition: first.partition,
                });
            }
        }
    }

    /// The retry loop: a dropped request or dropped ack looks identical to
    /// the client, so both trigger a resend of the *same* batch (same
    /// sequence numbers). Returns the final acknowledged outcome.
    fn send_with_retries(
        &mut self,
        tp: &TopicPartition,
        meta: BatchMeta,
        records: Vec<Record>,
    ) -> Result<klog::AppendOutcome, BrokerError> {
        for attempt in 0..=self.config.max_retries {
            if attempt > 0 {
                self.stats.retries += 1;
            }
            // The request may vanish before reaching the broker (§2.1's
            // RPC-failure class, request side): nothing is appended, the
            // client times out and resends the identical batch.
            if self.cluster.faults().decide(FaultPoint::ProduceRequestLost)
                != FaultDecision::Deliver
            {
                continue;
            }
            match self.cluster.faults().decide(FaultPoint::ProduceAckLost) {
                FaultDecision::DropRequest => {} // never reached broker
                FaultDecision::DropAck => {
                    // The broker applies the append but the client never
                    // learns — it must retry the identical batch, so this
                    // is the one attempt that sends a copy and keeps the
                    // original.
                    self.cluster.produce(tp, meta.clone(), records.clone())?;
                }
                FaultDecision::Deliver => {
                    // The batch moves into the attempt that is acknowledged.
                    // A retry of an earlier DropAck attempt is flagged as a
                    // duplicate only when idempotence is on; without it the
                    // broker really re-appended.
                    return self.cluster.produce(tp, meta, records);
                }
            }
        }
        // If an append actually landed but every ack was dropped, the data
        // is in the log while the client sees an error — the fundamental
        // ambiguity of §2.1.
        Err(BrokerError::RetriesExhausted { topic: tp.topic.clone(), partition: tp.partition })
    }

    /// Add the group's consumed offsets to the current transaction
    /// (`sendOffsetsToTransaction`) so that input-progress, state updates,
    /// and outputs commit atomically (§4.2).
    pub fn send_offsets_to_transaction(
        &mut self,
        group: &str,
        offsets: &[(TopicPartition, Offset)],
        generation: Option<(&str, i32)>,
    ) -> Result<(), BrokerError> {
        self.tid()?;
        if !self.in_transaction {
            return Err(BrokerError::InvalidOperation("no open transaction".into()));
        }
        let offsets_tp = self.cluster.offsets_partition_for_group(group);
        if !self.registered.contains(&offsets_tp) {
            self.register_with_retries(std::slice::from_ref(&offsets_tp))?;
        }
        self.cluster.group_txn_commit_offsets(
            group,
            offsets,
            self.producer_id,
            self.epoch,
            generation,
        )
    }

    /// Commit the open transaction: flush, then drive the coordinator's
    /// two-phase commit (§4.2.2). Lost coordinator acks are retried; the
    /// coordinator treats retried commits idempotently.
    pub fn commit_transaction(&mut self) -> Result<(), BrokerError> {
        self.end_transaction(true)
    }

    /// Abort the open transaction; buffered unsent records are discarded.
    pub fn abort_transaction(&mut self) -> Result<(), BrokerError> {
        self.end_transaction(false)
    }

    fn end_transaction(&mut self, commit: bool) -> Result<(), BrokerError> {
        let tid = self.tid()?.to_string();
        if !self.in_transaction {
            return Err(BrokerError::InvalidOperation("no open transaction".into()));
        }
        if commit {
            self.flush()?;
        } else {
            self.buffers.clear();
        }
        // A transaction that never registered a partition (nothing sent, no
        // offsets) has nothing at the coordinator to end — real Kafka skips
        // the EndTxn RPC in this case.
        if self.registered.is_empty() {
            self.in_transaction = false;
            return Ok(());
        }
        let mut attempts = 0;
        loop {
            match self.cluster.faults().decide(FaultPoint::TxnRpcAckLost) {
                FaultDecision::DropRequest => {}
                FaultDecision::DropAck => {
                    self.cluster.txn_end(&tid, self.producer_id, self.epoch, commit)?;
                }
                FaultDecision::Deliver => {
                    // Completion bumped the epoch (KIP-890-style fencing);
                    // adopt it and restart the sequence space, as the broker
                    // resets per-epoch sequences.
                    let new_epoch =
                        self.cluster.txn_end(&tid, self.producer_id, self.epoch, commit)?;
                    if new_epoch != self.epoch {
                        self.epoch = new_epoch;
                        self.sequences.clear();
                    }
                    break;
                }
            }
            attempts += 1;
            self.stats.retries += 1;
            if attempts > self.config.max_retries {
                return Err(BrokerError::InvalidOperation(
                    "transaction end retries exhausted".into(),
                ));
            }
        }
        self.in_transaction = false;
        self.registered.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{TxnMetadata, TxnState};
    use crate::topic::TopicConfig;
    use klog::IsolationLevel;
    use simkit::FaultPlan;
    use std::collections::BTreeSet;

    fn cluster_with(faults: FaultPlan) -> Cluster {
        Cluster::builder().brokers(1).replication(1).faults(faults).build()
    }

    fn count(c: &Cluster, topic: &str, iso: IsolationLevel) -> usize {
        let mut total = 0;
        for tp in c.partitions_of(topic).unwrap() {
            total += c.fetch(&tp, 0, 100_000, iso).unwrap().count();
        }
        total
    }

    #[test]
    fn plain_send_lands() {
        let c = cluster_with(FaultPlan::none());
        c.create_topic("t", TopicConfig::new(4)).unwrap();
        let mut p = Producer::new(c.clone(), ProducerConfig::default());
        for i in 0..100 {
            p.send("t", Some(Bytes::from(format!("k{i}"))), Some(Bytes::from_static(b"v")), i)
                .unwrap();
        }
        p.flush().unwrap();
        assert_eq!(count(&c, "t", IsolationLevel::ReadUncommitted), 100);
        assert_eq!(p.stats().records_sent, 100);
    }

    #[test]
    fn same_key_same_partition() {
        let c = cluster_with(FaultPlan::none());
        c.create_topic("t", TopicConfig::new(8)).unwrap();
        let mut p = Producer::new(c.clone(), ProducerConfig::default().with_batch_size(1));
        for i in 0..10 {
            p.send("t", Some(Bytes::from_static(b"fixed")), Some(Bytes::from(format!("{i}"))), i)
                .unwrap();
        }
        p.flush().unwrap();
        let nonempty: Vec<u32> = c
            .partitions_of("t")
            .unwrap()
            .into_iter()
            .filter(|tp| c.fetch(tp, 0, 100, IsolationLevel::ReadUncommitted).unwrap().count() > 0)
            .map(|tp| tp.partition)
            .collect();
        assert_eq!(nonempty.len(), 1, "one key must map to one partition");
    }

    #[test]
    fn lost_ack_without_idempotence_duplicates() {
        // §2.1: the resend after a lost ack re-appends.
        let faults =
            FaultPlan::none().script(FaultPoint::ProduceAckLost, 1, FaultDecision::DropAck);
        let c = cluster_with(faults);
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let mut p = Producer::new(c.clone(), ProducerConfig::at_least_once());
        p.send("t", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"v")), 0).unwrap();
        p.flush().unwrap();
        assert_eq!(
            count(&c, "t", IsolationLevel::ReadUncommitted),
            2,
            "at-least-once duplicates on retry"
        );
        assert_eq!(p.stats().retries, 1);
    }

    #[test]
    fn lost_ack_with_idempotence_deduped() {
        // §4.1: the same scenario with idempotence appends exactly once.
        let faults =
            FaultPlan::none().script(FaultPoint::ProduceAckLost, 1, FaultDecision::DropAck);
        let c = cluster_with(faults);
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let mut p = Producer::new(c.clone(), ProducerConfig::idempotent_only());
        p.send("t", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"v")), 0).unwrap();
        p.flush().unwrap();
        assert_eq!(count(&c, "t", IsolationLevel::ReadUncommitted), 1);
        assert_eq!(p.stats().duplicates_acked, 1);
    }

    #[test]
    fn repeated_ack_loss_still_exactly_once() {
        let faults = FaultPlan::none()
            .script(FaultPoint::ProduceAckLost, 1, FaultDecision::DropAck)
            .script(FaultPoint::ProduceAckLost, 2, FaultDecision::DropAck)
            .script(FaultPoint::ProduceAckLost, 3, FaultDecision::DropRequest);
        let c = cluster_with(faults);
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let mut p = Producer::new(c.clone(), ProducerConfig::idempotent_only());
        p.send("t", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"v")), 0).unwrap();
        p.flush().unwrap();
        assert_eq!(count(&c, "t", IsolationLevel::ReadUncommitted), 1);
    }

    #[test]
    fn scripted_produce_request_loss_resends_without_duplicating() {
        // Script: the 1st and 2nd produce requests vanish before reaching
        // the broker. The producer resends the identical batch until one
        // lands; nothing is duplicated because nothing was appended.
        let faults = FaultPlan::none()
            .script(FaultPoint::ProduceRequestLost, 1, FaultDecision::DropRequest)
            .script(FaultPoint::ProduceRequestLost, 2, FaultDecision::DropRequest);
        let c = cluster_with(faults.clone());
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let mut p = Producer::new(c.clone(), ProducerConfig::idempotent_only());
        p.send("t", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"v")), 0).unwrap();
        p.flush().unwrap();
        assert_eq!(count(&c, "t", IsolationLevel::ReadUncommitted), 1);
        assert_eq!(p.stats().retries, 2);
        assert_eq!(p.stats().duplicates_acked, 0, "lost requests never reach the broker");
        assert_eq!(faults.injected(FaultPoint::ProduceRequestLost), 2);
    }

    #[test]
    fn scripted_txn_add_partitions_ack_loss_retry_is_idempotent() {
        // Script: the coordinator registers the partition but the ack is
        // lost, then the retry's request is lost, then the 3rd attempt
        // delivers. The double-registration must be harmless and the
        // transaction must commit exactly the records sent.
        let faults = FaultPlan::none()
            .script(FaultPoint::TxnAddPartitionsAckLost, 1, FaultDecision::DropAck)
            .script(FaultPoint::TxnAddPartitionsAckLost, 2, FaultDecision::DropRequest);
        let c = cluster_with(faults.clone());
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let mut p = Producer::new(c.clone(), ProducerConfig::transactional("app"));
        p.init_transactions().unwrap();
        p.begin_transaction().unwrap();
        p.send("t", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"v")), 0).unwrap();
        p.commit_transaction().unwrap();
        assert_eq!(count(&c, "t", IsolationLevel::ReadCommitted), 1);
        assert_eq!(faults.observed(FaultPoint::TxnAddPartitionsAckLost), 3);
        assert_eq!(faults.injected(FaultPoint::TxnAddPartitionsAckLost), 2);
    }

    /// Every value in the transaction log, in log order (the tests use one
    /// transactional id, so one txn-log partition holds them all).
    fn txn_log(c: &Cluster) -> Vec<Bytes> {
        let mut values = Vec::new();
        for tp in c.partitions_of(crate::TXN_TOPIC).unwrap() {
            let f = c.fetch(&tp, 0, 1_000_000, IsolationLevel::ReadUncommitted).unwrap();
            values.extend(f.records().filter_map(|(_, r)| r.value.clone()));
        }
        values
    }

    /// Open a transaction on a fresh producer and send one record to each
    /// of `t`'s partitions.
    fn send_to_every_partition(c: &Cluster, partitions: u32) -> Producer {
        let mut p = Producer::new(c.clone(), ProducerConfig::transactional("app"));
        p.init_transactions().unwrap();
        p.begin_transaction().unwrap();
        for i in 0..partitions {
            p.send_to_partition(&TopicPartition::new("t", i), Record::of_str("k", "v", 0)).unwrap();
        }
        p
    }

    #[test]
    fn one_flush_registers_all_its_partitions_in_one_txn_log_record() {
        const P: u32 = 1_000;
        let c = cluster_with(FaultPlan::none());
        c.create_topic("t", TopicConfig::new(P)).unwrap();
        let mut p = send_to_every_partition(&c, P);
        let before = txn_log(&c).len();
        p.flush().unwrap();
        p.commit_transaction().unwrap();
        assert_eq!(count(&c, "t", IsolationLevel::ReadCommitted), P as usize);

        let written = &txn_log(&c)[before..];
        assert_eq!(written.len(), 3, "txn-log records for one transaction");
        let states: Vec<TxnState> =
            written.iter().map(|v| TxnMetadata::decode(v).unwrap().state).collect();
        assert_eq!(
            states,
            [TxnState::Ongoing, TxnState::PrepareCommit, TxnState::CompleteCommit],
            "one registration, the prepare barrier and the completion"
        );
        // Registering one partition per call logs the growing set once per
        // partition: P records carrying O(P²) partition names.
        let mut meta = TxnMetadata::decode(&written[0]).unwrap();
        assert_eq!(meta.partitions.len(), P as usize);
        let mut one_per_call = 0;
        for tp in std::mem::take(&mut meta.partitions) {
            meta.partitions.insert(tp);
            one_per_call += meta.encode().len();
        }
        let bytes: usize = written.iter().map(Bytes::len).sum();
        assert!(
            bytes * 100 <= one_per_call,
            "{bytes} B logged; one per call logs {one_per_call} B"
        );
    }

    #[test]
    fn lost_ack_on_a_multi_partition_registration_registers_each_partition_once() {
        // Script: the coordinator registers all eight partitions but the ack
        // is lost; the retry carries the same set and is acked.
        const P: u32 = 8;
        let faults = FaultPlan::none()
            .script(FaultPoint::TxnAddPartitionsAckLost, 1, FaultDecision::DropAck)
            .script(FaultPoint::TxnAddPartitionsAckLost, 2, FaultDecision::Deliver);
        let c = cluster_with(faults.clone());
        c.create_topic("t", TopicConfig::new(P)).unwrap();
        let mut p = send_to_every_partition(&c, P);
        p.commit_transaction().unwrap();
        assert_eq!(faults.observed(FaultPoint::TxnAddPartitionsAckLost), 2);
        assert_eq!(faults.injected(FaultPoint::TxnAddPartitionsAckLost), 1);
        assert_eq!(p.stats().retries, 1);

        let all: BTreeSet<TopicPartition> = c.partitions_of("t").unwrap().into_iter().collect();
        let registrations: Vec<TxnMetadata> = txn_log(&c)
            .iter()
            .map(|v| TxnMetadata::decode(v).unwrap())
            .filter(|m| m.state == TxnState::Ongoing)
            .collect();
        assert_eq!(registrations.len(), 2, "the lost-ack attempt and its retry");
        assert!(registrations.iter().all(|m| m.partitions == all));
        for tp in &all {
            // The record, then exactly one commit marker.
            assert_eq!(c.latest_offset(tp).unwrap(), 2, "{tp}");
        }
        assert_eq!(count(&c, "t", IsolationLevel::ReadCommitted), P as usize);
    }

    #[test]
    fn retries_exhausted_surfaces_error() {
        let faults = FaultPlan::seeded(1).with_request_loss(FaultPoint::ProduceAckLost, 1.0);
        let c = cluster_with(faults);
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let mut p = Producer::new(c.clone(), ProducerConfig::default());
        p.send("t", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"v")), 0).unwrap();
        assert!(matches!(p.flush(), Err(BrokerError::RetriesExhausted { .. })));
    }

    #[test]
    fn transactional_happy_path() {
        let c = cluster_with(FaultPlan::none());
        c.create_topic("t", TopicConfig::new(2)).unwrap();
        let mut p = Producer::new(c.clone(), ProducerConfig::transactional("app"));
        p.init_transactions().unwrap();
        p.begin_transaction().unwrap();
        p.send("t", Some(Bytes::from_static(b"a")), Some(Bytes::from_static(b"1")), 0).unwrap();
        p.send("t", Some(Bytes::from_static(b"b")), Some(Bytes::from_static(b"2")), 0).unwrap();
        p.flush().unwrap();
        assert_eq!(count(&c, "t", IsolationLevel::ReadCommitted), 0);
        p.commit_transaction().unwrap();
        assert_eq!(count(&c, "t", IsolationLevel::ReadCommitted), 2);
    }

    #[test]
    fn abort_discards() {
        let c = cluster_with(FaultPlan::none());
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let mut p = Producer::new(c.clone(), ProducerConfig::transactional("app"));
        p.init_transactions().unwrap();
        p.begin_transaction().unwrap();
        p.send("t", Some(Bytes::from_static(b"a")), Some(Bytes::from_static(b"1")), 0).unwrap();
        p.flush().unwrap();
        p.abort_transaction().unwrap();
        assert_eq!(count(&c, "t", IsolationLevel::ReadCommitted), 0);
        // Next transaction works fine.
        p.begin_transaction().unwrap();
        p.send("t", Some(Bytes::from_static(b"a")), Some(Bytes::from_static(b"2")), 0).unwrap();
        p.commit_transaction().unwrap();
        assert_eq!(count(&c, "t", IsolationLevel::ReadCommitted), 1);
    }

    #[test]
    fn abort_with_unsent_buffer_then_new_transaction_is_clean() {
        // Abort while records sit in the client buffer, partly flushed:
        // batch 1 reached the broker (sequence advanced), batch 2 never
        // left the client. The abort must discard the unsent buffer
        // *without* rolling client sequences back — they track what the
        // broker's producer-state saw, which includes the flushed (now
        // aborted) batch — so the next transaction neither trips
        // OutOfOrderSequence nor gets falsely deduplicated.
        let c = cluster_with(FaultPlan::none());
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let mut p = Producer::new(c.clone(), ProducerConfig::transactional("app"));
        p.init_transactions().unwrap();
        p.begin_transaction().unwrap();
        p.send("t", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"flushed")), 0)
            .unwrap();
        p.flush().unwrap();
        p.send("t", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"buffered")), 1)
            .unwrap();
        p.abort_transaction().unwrap();

        p.begin_transaction().unwrap();
        p.send("t", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"next")), 2).unwrap();
        p.commit_transaction().unwrap();

        let f =
            c.fetch(&TopicPartition::new("t", 0), 0, 100, IsolationLevel::ReadCommitted).unwrap();
        let values: Vec<&[u8]> = f.records().map(|(_, r)| r.value.as_deref().unwrap()).collect();
        assert_eq!(
            values,
            vec![b"next".as_slice()],
            "committed view: the aborted flushed batch is hidden, the buffered one was never \
             appended, the new transaction's record is present exactly once"
        );
        assert_eq!(
            p.stats().duplicates_acked,
            0,
            "the post-abort batch must not be mistaken for a retry of the aborted one"
        );
    }

    #[test]
    fn scripted_ack_loss_then_abort_keeps_next_transaction_exactly_once() {
        // Script: the first produce ack is lost (the broker appended batch
        // 1 but the client retried it — duplicate-acked). The transaction
        // is then aborted with another record still buffered. The producer
        // state at the broker now holds sequences for an aborted batch; the
        // next transaction must continue the sequence from there.
        let faults =
            FaultPlan::none().script(FaultPoint::ProduceAckLost, 1, FaultDecision::DropAck);
        let c = cluster_with(faults);
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let mut p = Producer::new(c.clone(), ProducerConfig::transactional("app"));
        p.init_transactions().unwrap();
        p.begin_transaction().unwrap();
        p.send("t", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"lost-ack")), 0)
            .unwrap();
        p.flush().unwrap();
        assert_eq!(p.stats().duplicates_acked, 1, "the retry was deduplicated by the broker");
        p.send("t", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"buffered")), 1)
            .unwrap();
        p.abort_transaction().unwrap();

        p.begin_transaction().unwrap();
        p.send("t", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"next")), 2).unwrap();
        p.commit_transaction().unwrap();

        let f =
            c.fetch(&TopicPartition::new("t", 0), 0, 100, IsolationLevel::ReadCommitted).unwrap();
        let values: Vec<&[u8]> = f.records().map(|(_, r)| r.value.as_deref().unwrap()).collect();
        assert_eq!(values, vec![b"next".as_slice()]);
        assert_eq!(p.stats().duplicates_acked, 1, "no false dedup after the abort");
    }

    #[test]
    fn zombie_producer_fenced_after_new_incarnation() {
        let c = cluster_with(FaultPlan::none());
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let mut old = Producer::new(c.clone(), ProducerConfig::transactional("app"));
        old.init_transactions().unwrap();
        old.begin_transaction().unwrap();
        old.send("t", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"old")), 0).unwrap();
        // New incarnation starts (instance migration, §2.1's zombies).
        let mut new = Producer::new(c.clone(), ProducerConfig::transactional("app"));
        new.init_transactions().unwrap();
        // Zombie tries to finish its work: fenced.
        assert!(matches!(
            old.commit_transaction(),
            Err(BrokerError::ProducerFenced { .. } | BrokerError::Log(_))
        ));
        // New incarnation proceeds normally.
        new.begin_transaction().unwrap();
        new.send("t", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"new")), 0).unwrap();
        new.commit_transaction().unwrap();
        let f =
            c.fetch(&TopicPartition::new("t", 0), 0, 100, IsolationLevel::ReadCommitted).unwrap();
        let values: Vec<&[u8]> = f.records().map(|(_, r)| r.value.as_deref().unwrap()).collect();
        assert_eq!(values, vec![b"new".as_slice()], "only the new incarnation's write commits");
    }

    #[test]
    fn commit_ack_lost_retry_is_safe() {
        let faults = FaultPlan::none().script(FaultPoint::TxnRpcAckLost, 1, FaultDecision::DropAck);
        let c = cluster_with(faults);
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let mut p = Producer::new(c.clone(), ProducerConfig::transactional("app"));
        p.init_transactions().unwrap();
        p.begin_transaction().unwrap();
        p.send("t", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"v")), 0).unwrap();
        p.commit_transaction().unwrap();
        assert_eq!(count(&c, "t", IsolationLevel::ReadCommitted), 1);
    }

    #[test]
    fn send_before_begin_rejected() {
        let c = cluster_with(FaultPlan::none());
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let mut p = Producer::new(c.clone(), ProducerConfig::transactional("app"));
        p.init_transactions().unwrap();
        assert!(matches!(
            p.send("t", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"v")), 0),
            Err(BrokerError::InvalidOperation(_))
        ));
    }

    #[test]
    fn begin_before_init_rejected() {
        let c = cluster_with(FaultPlan::none());
        let mut p = Producer::new(c, ProducerConfig::transactional("app"));
        assert!(matches!(p.begin_transaction(), Err(BrokerError::InvalidOperation(_))));
    }

    #[test]
    fn offsets_in_transaction_atomic_with_output() {
        let c = cluster_with(FaultPlan::none());
        c.create_topic("src", TopicConfig::new(1)).unwrap();
        c.create_topic("out", TopicConfig::new(1)).unwrap();
        let src = TopicPartition::new("src", 0);
        let mut p = Producer::new(c.clone(), ProducerConfig::transactional("app"));
        p.init_transactions().unwrap();
        p.begin_transaction().unwrap();
        p.send("out", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"v")), 0).unwrap();
        p.send_offsets_to_transaction("g", &[(src.clone(), 7)], None).unwrap();
        assert_eq!(c.group_committed_offset("g", &src).unwrap(), None);
        p.commit_transaction().unwrap();
        assert_eq!(c.group_committed_offset("g", &src).unwrap(), Some(7));
        assert_eq!(count(&c, "out", IsolationLevel::ReadCommitted), 1);
    }

    #[test]
    fn aborted_offsets_and_output_both_invisible() {
        let c = cluster_with(FaultPlan::none());
        c.create_topic("src", TopicConfig::new(1)).unwrap();
        c.create_topic("out", TopicConfig::new(1)).unwrap();
        let src = TopicPartition::new("src", 0);
        let mut p = Producer::new(c.clone(), ProducerConfig::transactional("app"));
        p.init_transactions().unwrap();
        p.begin_transaction().unwrap();
        p.send("out", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"v")), 0).unwrap();
        p.send_offsets_to_transaction("g", &[(src.clone(), 7)], None).unwrap();
        p.abort_transaction().unwrap();
        assert_eq!(c.group_committed_offset("g", &src).unwrap(), None);
        assert_eq!(count(&c, "out", IsolationLevel::ReadCommitted), 0);
    }

    #[test]
    fn batching_appends_fewer_batches() {
        let c = cluster_with(FaultPlan::none());
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let mut p = Producer::new(c.clone(), ProducerConfig::default().with_batch_size(50));
        for i in 0..100 {
            p.send("t", Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"v")), i).unwrap();
        }
        p.flush().unwrap();
        assert_eq!(p.stats().batches_appended, 2);
    }
}
