//! The simulated broker cluster: topics, partition leadership, replication,
//! broker failure/recovery, and maintenance (compaction, record deletion).
//!
//! The cluster is the reliable primitive layer: operations either apply or
//! return an error. *Unreliable delivery* (lost acks, retries, duplicates —
//! §2.1's RPC failure class) is modelled in the clients
//! ([`crate::producer::Producer`]) via `simkit::FaultPlan`, so the broker-
//! side dedup and fencing machinery is exercised exactly as in real Kafka.

use crate::error::BrokerError;
use crate::group::GroupsRegistry;
use crate::replica::ReplicaSet;
use crate::topic::{partition_for_key, TopicConfig, TopicPartition};
use crate::txn::TxnRegistry;
use crate::{OFFSETS_TOPIC, TXN_TOPIC};
use klog::batch::{BatchMeta, ControlType};
use klog::compaction::{compact, CompactionStats};
use klog::{AppendOutcome, FetchResult, IsolationLevel, Offset, Record, StorageMode};
use parking_lot::{Mutex, RwLock};
use simkit::{FaultPlan, SharedClock, WallClock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

pub(crate) struct TopicMeta {
    pub config: TopicConfig,
    pub partitions: Vec<Arc<Mutex<ReplicaSet>>>,
}

/// Stripe count of the topic registry. A topic-name hash picks the stripe,
/// so the registry lock a produce/fetch takes (briefly, to clone the
/// partition's `Arc<Mutex<ReplicaSet>>` out) is almost never the one a
/// concurrent create/lookup of an unrelated topic holds.
const TOPIC_STRIPES: u32 = 16;

/// The cluster's topic table, striped by topic-name hash. Values are
/// `Arc`ed: a lookup clones the handle out and drops the stripe lock, so
/// the data path never holds registry and partition locks together.
pub(crate) struct TopicRegistry {
    stripes: Vec<RwLock<HashMap<String, Arc<TopicMeta>>>>,
}

impl TopicRegistry {
    fn new() -> Self {
        Self { stripes: (0..TOPIC_STRIPES).map(|_| RwLock::new(HashMap::new())).collect() }
    }

    fn stripe(&self, name: &str) -> &RwLock<HashMap<String, Arc<TopicMeta>>> {
        &self.stripes[partition_for_key(name.as_bytes(), TOPIC_STRIPES) as usize]
    }

    pub(crate) fn get(&self, name: &str) -> Option<Arc<TopicMeta>> {
        self.stripe(name).read().get(name).cloned()
    }

    fn contains(&self, name: &str) -> bool {
        self.stripe(name).read().contains_key(name)
    }

    /// Insert unless present (idempotent topic creation); returns whether
    /// the topic was inserted. The stripe write lock spans the existence
    /// check and the insert, so two racing creators cannot both build.
    fn insert_if_absent(
        &self,
        name: &str,
        build: impl FnOnce() -> Result<TopicMeta, BrokerError>,
    ) -> Result<(), BrokerError> {
        let mut stripe = self.stripe(name).write();
        if !stripe.contains_key(name) {
            stripe.insert(name.to_string(), Arc::new(build()?));
        }
        Ok(())
    }

    /// Every `(name, meta)` pair in name order — whole-cluster sweeps
    /// (failure propagation, retention) stay deterministic for seed replay.
    fn metas_sorted(&self) -> Vec<(String, Arc<TopicMeta>)> {
        let mut out: Vec<(String, Arc<TopicMeta>)> = Vec::new();
        for stripe in &self.stripes {
            // detlint:allow[unordered-iter] collected then sorted below
            out.extend(stripe.read().iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

pub(crate) struct ClusterInner {
    pub clock: SharedClock,
    pub faults: FaultPlan,
    pub num_brokers: usize,
    pub default_replication: usize,
    /// Liveness flag per broker; atomic so the data path's reads never
    /// serialize against failure injection.
    pub broker_alive: Vec<AtomicBool>,
    pub topics: TopicRegistry,
    pub pid_counter: AtomicI64,
    pub txn: TxnRegistry,
    pub groups: GroupsRegistry,
    /// Default transaction timeout for producers that do not override it.
    pub txn_timeout_ms: i64,
    /// Storage backend new topics are created with.
    pub storage: StorageMode,
}

/// Handle to the simulated cluster. Cheap to clone; all clones address the
/// same brokers.
#[derive(Clone)]
pub struct Cluster {
    pub(crate) inner: Arc<ClusterInner>,
}

/// Builder for [`Cluster`].
pub struct ClusterBuilder {
    brokers: usize,
    replication: usize,
    txn_partitions: u32,
    offsets_partitions: u32,
    txn_timeout_ms: i64,
    clock: Option<SharedClock>,
    faults: FaultPlan,
    storage: StorageMode,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self {
            brokers: 3,
            replication: 3,
            txn_partitions: 4,
            offsets_partitions: 4,
            txn_timeout_ms: 60_000,
            clock: None,
            faults: FaultPlan::none(),
            storage: StorageMode::Memory,
        }
    }
}

impl ClusterBuilder {
    /// Number of brokers (the paper's evaluation uses a 3-node cluster).
    pub fn brokers(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.brokers = n;
        self
    }

    /// Default replication factor for new topics (clamped to broker count).
    pub fn replication(mut self, r: usize) -> Self {
        assert!(r >= 1);
        self.replication = r;
        self
    }

    /// Partition count of the internal transaction log.
    pub fn txn_partitions(mut self, n: u32) -> Self {
        self.txn_partitions = n;
        self
    }

    /// Partition count of the internal offsets topic.
    pub fn offsets_partitions(mut self, n: u32) -> Self {
        self.offsets_partitions = n;
        self
    }

    /// Default transaction timeout.
    pub fn txn_timeout_ms(mut self, ms: i64) -> Self {
        self.txn_timeout_ms = ms;
        self
    }

    /// Clock used for timestamps and transaction expiry.
    pub fn clock(mut self, clock: SharedClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Fault plan consulted by clients.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Storage backend for every topic's partition logs. The default is
    /// [`StorageMode::Memory`] (the seed behaviour); [`StorageMode::Disk`]
    /// writes real segment files and makes broker kill/restore an honest
    /// crash-and-recover cycle.
    pub fn storage(mut self, storage: StorageMode) -> Self {
        self.storage = storage;
        self
    }

    pub fn build(self) -> Cluster {
        let replication = self.replication.min(self.brokers);
        let cluster = Cluster {
            inner: Arc::new(ClusterInner {
                clock: self.clock.unwrap_or_else(WallClock::shared),
                faults: self.faults,
                num_brokers: self.brokers,
                default_replication: replication,
                broker_alive: (0..self.brokers).map(|_| AtomicBool::new(true)).collect(),
                topics: TopicRegistry::new(),
                pid_counter: AtomicI64::new(0),
                txn: TxnRegistry::new(self.txn_partitions),
                groups: GroupsRegistry::new(self.offsets_partitions),
                txn_timeout_ms: self.txn_timeout_ms,
                storage: self.storage,
            }),
        };
        cluster
            .create_topic(TXN_TOPIC, TopicConfig::new(self.txn_partitions).compacted())
            .expect("internal topic");
        cluster
            .create_topic(OFFSETS_TOPIC, TopicConfig::new(self.offsets_partitions).compacted())
            .expect("internal topic");
        cluster
    }
}

impl Cluster {
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// Current time per the cluster's clock.
    pub fn now_ms(&self) -> i64 {
        self.inner.clock.now_ms()
    }

    /// The fault plan clients consult.
    pub fn faults(&self) -> &FaultPlan {
        &self.inner.faults
    }

    pub fn num_brokers(&self) -> usize {
        self.inner.num_brokers
    }

    /// Allocate a fresh producer id (idempotent producers, §4.1).
    pub fn alloc_producer_id(&self) -> i64 {
        self.inner.pid_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Cluster-default transaction timeout.
    pub fn default_txn_timeout_ms(&self) -> i64 {
        self.inner.txn_timeout_ms
    }

    // ------------------------------------------------------------------
    // Topics
    // ------------------------------------------------------------------

    /// Create a topic. Replica assignment round-robins leaders across
    /// brokers so load spreads (leader of partition `p` is broker
    /// `p % num_brokers`).
    ///
    /// The name must match Kafka's `[A-Za-z0-9._-]{1,249}`: the transaction
    /// log writes `topic:partition` lists joined by `;` and `|`, so a name
    /// holding one of those would make a record failover cannot decode.
    pub fn create_topic(&self, name: &str, mut config: TopicConfig) -> Result<(), BrokerError> {
        let invalid = |detail| Err(BrokerError::InvalidTopic { topic: name.to_string(), detail });
        if name.is_empty() || name.len() > 249 {
            return invalid("name must be 1 to 249 characters long");
        }
        if !name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-')) {
            return invalid("name may hold only ASCII letters, digits, '.', '_' and '-'");
        }
        if config.partitions == 0 {
            return invalid("a topic needs at least one partition");
        }
        if config.replication == 0 {
            config.replication = self.inner.default_replication;
        }
        config.replication = config.replication.min(self.inner.num_brokers);
        // Idempotent creation: insert_if_absent holds the stripe lock across
        // check and insert, so racing creators agree on one TopicMeta.
        self.inner.topics.insert_if_absent(name, || {
            let partitions = (0..config.partitions)
                .map(|p| {
                    let brokers: Vec<usize> = (0..config.replication)
                        .map(|i| (p as usize + i) % self.inner.num_brokers)
                        .collect();
                    let set = ReplicaSet::new_with_storage(
                        TopicPartition::new(name, p),
                        brokers,
                        self.inner.storage.clone(),
                    )?;
                    Ok(Arc::new(Mutex::new(set)))
                })
                .collect::<Result<_, BrokerError>>()?;
            Ok(TopicMeta { config, partitions })
        })
    }

    /// Partition count of a topic.
    pub fn partition_count(&self, topic: &str) -> Result<u32, BrokerError> {
        self.inner
            .topics
            .get(topic)
            .map(|m| m.config.partitions)
            .ok_or_else(|| BrokerError::UnknownTopic(topic.to_string()))
    }

    /// Whether a topic exists.
    pub fn topic_exists(&self, topic: &str) -> bool {
        self.inner.topics.contains(topic)
    }

    /// All partitions of a topic.
    pub fn partitions_of(&self, topic: &str) -> Result<Vec<TopicPartition>, BrokerError> {
        let n = self.partition_count(topic)?;
        Ok((0..n).map(|p| TopicPartition::new(topic, p)).collect())
    }

    pub(crate) fn replica_set(
        &self,
        tp: &TopicPartition,
    ) -> Result<Arc<Mutex<ReplicaSet>>, BrokerError> {
        let meta = self
            .inner
            .topics
            .get(&tp.topic)
            .ok_or_else(|| BrokerError::UnknownTopic(tp.topic.clone()))?;
        meta.partitions.get(tp.partition as usize).cloned().ok_or_else(|| {
            BrokerError::UnknownPartition { topic: tp.topic.clone(), partition: tp.partition }
        })
    }

    // ------------------------------------------------------------------
    // Data path
    // ------------------------------------------------------------------

    /// Append a batch to a partition (through its leader, replicated to the
    /// ISR before the call returns — `acks=all` semantics).
    pub fn produce(
        &self,
        tp: &TopicPartition,
        meta: BatchMeta,
        records: Vec<Record>,
    ) -> Result<AppendOutcome, BrokerError> {
        kobs::count("kbroker.produce.batches", 1);
        kobs::count("kbroker.produce.records", records.len() as u64);
        self.replica_set(tp)?.lock().append(meta, records)
    }

    /// Append a transaction control marker (coordinator-only path, §4.2.2).
    pub(crate) fn append_control_marker(
        &self,
        tp: &TopicPartition,
        producer_id: i64,
        epoch: i32,
        ctl: ControlType,
    ) -> Result<Offset, BrokerError> {
        let ts = self.now_ms();
        self.replica_set(tp)?.lock().append_control(producer_id, epoch, ctl, ts)
    }

    /// Fetch records from a partition leader.
    pub fn fetch(
        &self,
        tp: &TopicPartition,
        from: Offset,
        max_records: usize,
        isolation: IsolationLevel,
    ) -> Result<FetchResult, BrokerError> {
        let result = self.replica_set(tp)?.lock().fetch(from, max_records, isolation)?;
        kobs::count("kbroker.fetch.requests", 1);
        kobs::count("kbroker.fetch.records", result.count() as u64);
        Ok(result)
    }

    /// Earliest retained offset of a partition.
    pub fn earliest_offset(&self, tp: &TopicPartition) -> Result<Offset, BrokerError> {
        Ok(self.replica_set(tp)?.lock().leader_log()?.log_start())
    }

    /// High watermark (exclusive upper bound of readable offsets).
    pub fn latest_offset(&self, tp: &TopicPartition) -> Result<Offset, BrokerError> {
        Ok(self.replica_set(tp)?.lock().leader_log()?.high_watermark())
    }

    /// Last stable offset (read-committed bound).
    pub fn last_stable_offset(&self, tp: &TopicPartition) -> Result<Offset, BrokerError> {
        Ok(self.replica_set(tp)?.lock().leader_log()?.last_stable_offset())
    }

    // ------------------------------------------------------------------
    // Failure injection & recovery
    // ------------------------------------------------------------------

    /// Kill a broker: all partitions it led elect new leaders (which rebuild
    /// their producer state from their logs), and transaction coordinators
    /// it hosted fail over by replaying the transaction log (§4.2.1).
    pub fn kill_broker(&self, broker: usize) {
        // swap returns the previous liveness: false means already dead.
        if !self.inner.broker_alive[broker].swap(false, Ordering::AcqRel) {
            return;
        }
        kobs::count("kbroker.broker_kills", 1);
        let now = self.now_ms();
        // Name order, not hash order: the per-partition ISR/leader events
        // this emits must replay byte-identically for a fixed seed.
        for (_, meta) in self.inner.topics.metas_sorted() {
            for part in &meta.partitions {
                part.lock().on_broker_down(broker, now);
            }
        }
        // Transaction coordinators on the failed broker fail over: rebuild
        // from the (replicated) transaction log and finish any transaction
        // already past its PrepareCommit/PrepareAbort barrier.
        self.txn_recover_all();
    }

    /// Restore a previously killed broker: its replicas catch up from the
    /// current leaders and rejoin the ISR. A replica whose storage fails to
    /// recover stays out of its ISR; the others rejoin, and the first such
    /// error is returned. The broker is alive from then on, and restoring it
    /// again retries exactly the replicas still out of their ISR.
    pub fn restore_broker(&self, broker: usize) -> Result<(), BrokerError> {
        // swap returns the previous liveness: false means it was dead.
        if !self.inner.broker_alive[broker].swap(true, Ordering::AcqRel) {
            kobs::count("kbroker.broker_restores", 1);
        }
        let now = self.now_ms();
        let mut first_error = None;
        // Name order, matching kill_broker: deterministic event replay.
        for (_, meta) in self.inner.topics.metas_sorted() {
            for part in &meta.partitions {
                if let Err(e) = part.lock().on_broker_up(broker, now) {
                    first_error.get_or_insert(e);
                }
            }
        }
        self.txn_recover_all();
        first_error.map_or(Ok(()), Err)
    }

    /// Whether a broker is alive.
    pub fn broker_alive(&self, broker: usize) -> bool {
        self.inner.broker_alive[broker].load(Ordering::Acquire)
    }

    /// Current leader broker of a partition (None if leaderless).
    pub fn leader_of(&self, tp: &TopicPartition) -> Result<Option<usize>, BrokerError> {
        Ok(self.replica_set(tp)?.lock().leader())
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// Run a compaction pass over every partition of `topic` (all replicas,
    /// so a later failover serves the same compacted log). Returns per-
    /// partition stats.
    pub fn compact_topic(&self, topic: &str) -> Result<Vec<CompactionStats>, BrokerError> {
        let parts = self.partitions_of(topic)?;
        let mut stats = Vec::with_capacity(parts.len());
        for tp in &parts {
            let set = self.replica_set(tp)?;
            // Replica logs are identical, so running the same deterministic
            // pass on each yields identical compacted logs; report the
            // leader's stats.
            stats.push(set.lock().for_each_log(compact)?);
        }
        Ok(stats)
    }

    /// Delete records below `before` on a partition (repartition-topic
    /// purging, §3.2).
    pub fn delete_records(&self, tp: &TopicPartition, before: Offset) -> Result<(), BrokerError> {
        let set = self.replica_set(tp)?;
        set.lock().for_each_log(|log| log.truncate_prefix(before))?;
        Ok(())
    }

    /// Run one retention pass over every topic with a retention policy:
    /// expired prefixes are deleted on all replicas (compacted topics are
    /// skipped — compaction manages them). Returns the number of partitions
    /// that were trimmed.
    pub fn enforce_retention(&self) -> Result<usize, BrokerError> {
        let now = self.now_ms();
        let mut trimmed = 0;
        // Name order (not hash order): trim events replay deterministically.
        let topics: Vec<(String, Option<i64>, Option<usize>, bool)> = self
            .inner
            .topics
            .metas_sorted()
            .into_iter()
            .map(|(name, meta)| {
                (name, meta.config.retention_ms, meta.config.retention_bytes, meta.config.compacted)
            })
            .collect();
        for (topic, ret_ms, ret_bytes, compacted) in topics {
            if compacted || (ret_ms.is_none() && ret_bytes.is_none()) {
                continue;
            }
            let Ok(parts) = self.partitions_of(&topic) else { continue };
            for tp in parts {
                let Ok(set) = self.replica_set(&tp) else { continue };
                let mut set = set.lock();
                let cutoff = match set.leader_log() {
                    Ok(log) => log.retention_cutoff(now, ret_ms, ret_bytes),
                    Err(_) => None,
                };
                if let Some(cutoff) = cutoff {
                    set.for_each_log(|log| log.truncate_prefix(cutoff))?;
                    trimmed += 1;
                }
            }
        }
        Ok(trimmed)
    }

    /// Total retained data-record count across all partitions of a topic
    /// (metrics for benches: suppression/compaction I/O savings).
    pub fn topic_record_count(&self, topic: &str) -> Result<usize, BrokerError> {
        let mut total = 0;
        for tp in self.partitions_of(topic)? {
            total += self.replica_set(&tp)?.lock().leader_log()?.record_count();
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Cluster {
        Cluster::builder().brokers(3).replication(3).build()
    }

    fn recs(n: usize) -> Vec<Record> {
        (0..n).map(|i| Record::of_str(&format!("k{i}"), "v", i as i64)).collect()
    }

    #[test]
    fn create_topic_rejects_names_the_txn_log_cannot_encode() {
        let c = cluster();
        let long = "x".repeat(250);
        for name in ["a;b", "a|b", "a:b", "a b", "", "tōpic", long.as_str()] {
            assert!(
                matches!(
                    c.create_topic(name, TopicConfig::new(1)),
                    Err(BrokerError::InvalidTopic { ref topic, .. }) if topic == name
                ),
                "{name:?} must be rejected"
            );
            assert!(matches!(c.partitions_of(name), Err(BrokerError::UnknownTopic(_))));
        }
        c.create_topic(&"x".repeat(249), TopicConfig::new(1)).unwrap();
        c.create_topic("Orders-v2.by_key", TopicConfig::new(1)).unwrap();
    }

    #[test]
    fn create_topic_rejects_zero_partitions() {
        let c = cluster();
        assert!(matches!(
            c.create_topic("t", TopicConfig::new(0)),
            Err(BrokerError::InvalidTopic { .. })
        ));
        assert!(matches!(c.partitions_of("t"), Err(BrokerError::UnknownTopic(_))));
    }

    #[test]
    fn create_topic_and_produce_fetch() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(2)).unwrap();
        let tp = TopicPartition::new("t", 0);
        let out = c.produce(&tp, BatchMeta::plain(), recs(3)).unwrap();
        assert_eq!(out.base_offset, 0);
        let f = c.fetch(&tp, 0, 100, IsolationLevel::ReadUncommitted).unwrap();
        assert_eq!(f.count(), 3);
        assert_eq!(c.latest_offset(&tp).unwrap(), 3);
    }

    #[test]
    fn unknown_topic_errors() {
        let c = cluster();
        let tp = TopicPartition::new("nope", 0);
        assert!(matches!(
            c.produce(&tp, BatchMeta::plain(), recs(1)),
            Err(BrokerError::UnknownTopic(_))
        ));
    }

    #[test]
    fn unknown_partition_errors() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let tp = TopicPartition::new("t", 5);
        assert!(matches!(
            c.fetch(&tp, 0, 1, IsolationLevel::ReadUncommitted),
            Err(BrokerError::UnknownPartition { .. })
        ));
    }

    #[test]
    fn leaders_round_robin_across_brokers() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(6)).unwrap();
        let leaders: Vec<usize> =
            (0..6).map(|p| c.leader_of(&TopicPartition::new("t", p)).unwrap().unwrap()).collect();
        assert_eq!(leaders, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn broker_failure_keeps_data_available() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(3)).unwrap();
        for p in 0..3 {
            c.produce(&TopicPartition::new("t", p), BatchMeta::plain(), recs(4)).unwrap();
        }
        c.kill_broker(0);
        for p in 0..3 {
            let tp = TopicPartition::new("t", p);
            let f = c.fetch(&tp, 0, 100, IsolationLevel::ReadUncommitted).unwrap();
            assert_eq!(f.count(), 4, "partition {p} lost data");
            assert_ne!(c.leader_of(&tp).unwrap(), Some(0));
        }
    }

    #[test]
    fn restore_broker_rejoins() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let tp = TopicPartition::new("t", 0);
        c.produce(&tp, BatchMeta::plain(), recs(2)).unwrap();
        c.kill_broker(0);
        c.produce(&tp, BatchMeta::plain(), recs(2)).unwrap();
        c.restore_broker(0).unwrap();
        // Kill the two other brokers: broker 0 must now lead with full data.
        c.kill_broker(1);
        c.kill_broker(2);
        assert_eq!(c.leader_of(&tp).unwrap(), Some(0));
        let f = c.fetch(&tp, 0, 100, IsolationLevel::ReadUncommitted).unwrap();
        assert_eq!(f.count(), 4);
    }

    #[test]
    fn a_failed_restore_is_retried_by_restoring_again() {
        let dir =
            std::env::temp_dir().join(format!("kbroker-restore-retry-{}", std::process::id()));
        let storage = StorageMode::Disk(klog::DiskConfig::at(&dir));
        let c = Cluster::builder().brokers(2).replication(2).storage(storage).build();
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let tp = TopicPartition::new("t", 0);
        c.produce(&tp, BatchMeta::plain(), recs(2)).unwrap();
        c.kill_broker(1);
        // A file in place of broker 1's directory keeps its replicas from
        // recovering.
        let broker_dir = dir.join("broker-1");
        std::fs::remove_dir_all(&broker_dir).unwrap();
        std::fs::write(&broker_dir, b"not a directory").unwrap();
        assert!(matches!(c.restore_broker(1), Err(BrokerError::Log(_))));
        assert!(c.broker_alive(1));
        assert_eq!(c.replica_set(&tp).unwrap().lock().isr(), &[0]);
        // Once its storage is back, restoring it again rejoins the replica.
        std::fs::remove_file(&broker_dir).unwrap();
        c.restore_broker(1).unwrap();
        assert_eq!(c.replica_set(&tp).unwrap().lock().isr(), &[0, 1]);
        c.kill_broker(0);
        assert_eq!(c.fetch(&tp, 0, 100, IsolationLevel::ReadUncommitted).unwrap().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replication_factor_one_partition_unavailable_when_broker_down() {
        let c = Cluster::builder().brokers(3).replication(1).build();
        c.create_topic("t", TopicConfig::new(3)).unwrap();
        let tp0 = TopicPartition::new("t", 0); // leader broker 0, sole replica
        c.produce(&tp0, BatchMeta::plain(), recs(1)).unwrap();
        c.kill_broker(0);
        assert!(matches!(
            c.produce(&tp0, BatchMeta::plain(), recs(1)),
            Err(BrokerError::NoLeader { .. })
        ));
    }

    #[test]
    fn delete_records_purges_prefix() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let tp = TopicPartition::new("t", 0);
        c.produce(&tp, BatchMeta::plain(), recs(10)).unwrap();
        c.delete_records(&tp, 5).unwrap();
        assert_eq!(c.earliest_offset(&tp).unwrap(), 5);
        // Old offsets now out of range even after failover.
        c.kill_broker(0);
        assert!(c.fetch(&tp, 0, 10, IsolationLevel::ReadUncommitted).is_err());
        assert_eq!(c.fetch(&tp, 5, 10, IsolationLevel::ReadUncommitted).unwrap().count(), 5);
    }

    #[test]
    fn compaction_applies_to_all_replicas() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(1).compacted()).unwrap();
        let tp = TopicPartition::new("t", 0);
        for i in 0..10 {
            c.produce(
                &tp,
                BatchMeta::plain(),
                vec![Record::of_str("same-key", &format!("v{i}"), i)],
            )
            .unwrap();
        }
        let stats = c.compact_topic("t").unwrap();
        assert_eq!(stats[0].records_after, 1);
        // Failover: the follower must serve the compacted log.
        c.kill_broker(0);
        let f = c.fetch(&tp, 0, 100, IsolationLevel::ReadUncommitted).unwrap();
        assert_eq!(f.count(), 1);
        assert_eq!(f.records().next().unwrap().1.value.as_deref(), Some(b"v9".as_slice()));
    }

    #[test]
    fn internal_topics_exist() {
        let c = cluster();
        assert!(c.topic_exists(TXN_TOPIC));
        assert!(c.topic_exists(OFFSETS_TOPIC));
    }

    #[test]
    fn producer_ids_unique() {
        let c = cluster();
        let a = c.alloc_producer_id();
        let b = c.alloc_producer_id();
        assert_ne!(a, b);
    }

    #[test]
    fn topic_creation_idempotent() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(2)).unwrap();
        let tp = TopicPartition::new("t", 0);
        c.produce(&tp, BatchMeta::plain(), recs(1)).unwrap();
        c.create_topic("t", TopicConfig::new(2)).unwrap();
        assert_eq!(c.latest_offset(&tp).unwrap(), 1, "re-create must not wipe data");
    }
}

#[cfg(test)]
mod retention_tests {
    use super::*;
    use simkit::ManualClock;

    fn recs_at(ts: i64, n: usize) -> Vec<Record> {
        (0..n).map(|i| Record::of_str(&format!("k{i}"), "value-payload", ts)).collect()
    }

    #[test]
    fn time_retention_deletes_old_prefix() {
        let clock = ManualClock::new();
        let c = Cluster::builder().brokers(1).replication(1).clock(clock.shared()).build();
        c.create_topic("t", TopicConfig::new(1).with_retention_ms(1_000)).unwrap();
        let tp = TopicPartition::new("t", 0);
        c.produce(&tp, BatchMeta::plain(), recs_at(0, 3)).unwrap();
        c.produce(&tp, BatchMeta::plain(), recs_at(500, 3)).unwrap();
        clock.advance(1_200); // now=1200: horizon=200 ⇒ only the ts=0 batch expires
        assert_eq!(c.enforce_retention().unwrap(), 1);
        assert_eq!(c.earliest_offset(&tp).unwrap(), 3);
        assert_eq!(c.topic_record_count("t").unwrap(), 3);
        // Second pass is a no-op.
        assert_eq!(c.enforce_retention().unwrap(), 0);
    }

    #[test]
    fn size_retention_bounds_partition_bytes() {
        let c = Cluster::builder().brokers(1).replication(1).build();
        c.create_topic("t", TopicConfig::new(1).with_retention_bytes(500)).unwrap();
        let tp = TopicPartition::new("t", 0);
        for ts in 0..20 {
            c.produce(&tp, BatchMeta::plain(), recs_at(ts, 2)).unwrap();
        }
        assert!(c.enforce_retention().unwrap() >= 1);
        let set = c.replica_set(&tp).unwrap();
        let size = set.lock().leader_log().unwrap().size_bytes();
        assert!(size <= 700, "retained size {size} should be near the 500-byte budget");
        assert!(c.earliest_offset(&tp).unwrap() > 0);
    }

    #[test]
    fn compacted_topics_are_skipped() {
        let clock = ManualClock::new();
        let c = Cluster::builder().brokers(1).replication(1).clock(clock.shared()).build();
        c.create_topic("t", TopicConfig::new(1).compacted().with_retention_ms(10)).unwrap();
        let tp = TopicPartition::new("t", 0);
        c.produce(&tp, BatchMeta::plain(), recs_at(0, 2)).unwrap();
        clock.advance(1_000);
        assert_eq!(c.enforce_retention().unwrap(), 0);
        assert_eq!(c.topic_record_count("t").unwrap(), 2);
    }

    #[test]
    fn retention_never_cuts_open_transactions() {
        let clock = ManualClock::new();
        let c = Cluster::builder().brokers(1).replication(1).clock(clock.shared()).build();
        c.create_topic("t", TopicConfig::new(1).with_retention_ms(100)).unwrap();
        let tp = TopicPartition::new("t", 0);
        let (pid, epoch) = c.txn_init_producer("app", 600_000).unwrap();
        c.txn_add_partitions("app", pid, epoch, std::slice::from_ref(&tp)).unwrap();
        c.produce(&tp, BatchMeta::transactional(pid, epoch, 0), recs_at(0, 2)).unwrap();
        clock.advance(10_000);
        assert_eq!(c.enforce_retention().unwrap(), 0, "open txn pins the log prefix");
        c.txn_end("app", pid, epoch, true).unwrap();
        assert_eq!(c.enforce_retention().unwrap(), 1, "after commit the prefix may expire");
    }

    #[test]
    fn retention_applies_to_all_replicas() {
        let clock = ManualClock::new();
        let c = Cluster::builder().brokers(3).replication(3).clock(clock.shared()).build();
        c.create_topic("t", TopicConfig::new(1).with_retention_ms(50)).unwrap();
        let tp = TopicPartition::new("t", 0);
        c.produce(&tp, BatchMeta::plain(), recs_at(0, 4)).unwrap();
        clock.advance(1_000);
        c.produce(&tp, BatchMeta::plain(), recs_at(1_000, 1)).unwrap();
        assert_eq!(c.enforce_retention().unwrap(), 1);
        // Failover: the follower serves the trimmed log.
        c.kill_broker(0);
        assert_eq!(c.earliest_offset(&tp).unwrap(), 4);
    }
}
