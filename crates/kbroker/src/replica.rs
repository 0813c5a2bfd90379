//! Replica sets: leader/follower logs, synchronous replication, ISR
//! tracking, and leader election (§4 intro).
//!
//! The paper: "every record written to a topic partition is persisted and
//! replicated on n different broker machines … once a record has been
//! appended successfully to the leader replica, it will be replicated to all
//! available replicas", and a failed leader is replaced by electing a
//! follower. We model replication synchronously (equivalent to `acks=all`
//! with all ISR members fetching immediately): an append lands on the leader
//! log, is copied to every alive follower, and then the high watermark
//! advances. A new leader rebuilds its producer dedup/transaction state from
//! its local log, exactly as §4.1 describes.

use crate::error::BrokerError;
use crate::protocol::replication;
use crate::topic::TopicPartition;
use klog::batch::{BatchMeta, ControlType};
use klog::{
    invariant, AppendOutcome, DiskConfig, DiskLog, FetchResult, IsolationLevel, LogError, Offset,
    PartitionLog, Record, StorageMode, StoredBatch,
};

/// All replicas of one partition. Lives behind a per-partition mutex in the
/// cluster, so methods take `&mut self`.
#[derive(Debug)]
pub struct ReplicaSet {
    tp: TopicPartition,
    /// Broker id of the current leader. `None` when every replica's broker
    /// is down.
    leader: Option<usize>,
    /// `(broker_id, log)` for every assigned replica, leader included.
    replicas: Vec<(usize, PartitionLog)>,
    /// Brokers currently in sync (alive and caught up).
    isr: Vec<usize>,
    /// Leader epoch, bumped on every election (observable by tests).
    leader_epoch: u32,
    /// Storage backend shared by all replicas of this partition. In disk
    /// mode each replica writes `<root>/broker-<id>/<topic>-<partition>/`.
    storage: StorageMode,
}

impl ReplicaSet {
    /// Create an in-memory replica set on `brokers` (first entry is the
    /// initial leader). All brokers are assumed alive at creation.
    pub fn new(tp: TopicPartition, brokers: Vec<usize>) -> Self {
        assert!(!brokers.is_empty(), "a partition needs at least one replica");
        let replicas =
            brokers.iter().map(|&b| (b, PartitionLog::new().with_managed_watermark())).collect();
        Self {
            tp,
            leader: Some(brokers[0]),
            isr: brokers.clone(),
            replicas,
            leader_epoch: 0,
            storage: StorageMode::Memory,
        }
    }

    /// Create a replica set with an explicit storage backend. In
    /// [`StorageMode::Disk`] every replica log writes through to its own
    /// segment directory, and broker kill/restore become honest crashes:
    /// the in-memory state is discarded and rebuilt from the files.
    pub fn new_with_storage(
        tp: TopicPartition,
        brokers: Vec<usize>,
        storage: StorageMode,
    ) -> Result<Self, BrokerError> {
        let mut set = Self::new(tp, brokers);
        if let StorageMode::Disk(cfg) = &storage {
            for (b, log) in &mut set.replicas {
                let rcfg = cfg.for_replica(*b, &set.tp.topic, set.tp.partition);
                log.attach_disk(DiskLog::open_clean(rcfg)?);
            }
        }
        set.storage = storage;
        Ok(set)
    }

    /// True when `candidate`'s retained batches are exactly the leader's
    /// batches below the candidate's log end, from the same log start: the
    /// candidate can then catch up by installing the leader's suffix
    /// verbatim.
    fn is_prefix_of(candidate: &PartitionLog, leader: &PartitionLog) -> bool {
        if candidate.log_start() != leader.log_start() || candidate.log_end() > leader.log_end() {
            return false;
        }
        let end = candidate.log_end();
        candidate.batches().eq(leader.batches().filter(|b| b.last_offset() < end))
    }

    /// This replica's per-broker disk config, when in disk mode.
    fn replica_disk_config(&self, broker: usize) -> Option<DiskConfig> {
        match &self.storage {
            StorageMode::Disk(cfg) => {
                Some(cfg.for_replica(broker, &self.tp.topic, self.tp.partition))
            }
            StorageMode::Memory => None,
        }
    }

    pub fn leader(&self) -> Option<usize> {
        self.leader
    }

    pub fn leader_epoch(&self) -> u32 {
        self.leader_epoch
    }

    pub fn isr(&self) -> &[usize] {
        &self.isr
    }

    /// Brokers assigned to this partition.
    pub fn assigned_brokers(&self) -> Vec<usize> {
        self.replicas.iter().map(|(b, _)| *b).collect()
    }

    fn no_leader(&self) -> BrokerError {
        BrokerError::NoLeader { topic: self.tp.topic, partition: self.tp.partition }
    }

    fn leader_log_mut(&mut self) -> Result<&mut PartitionLog, BrokerError> {
        let leader = self.leader.ok_or_else(|| self.no_leader())?;
        Ok(self
            .replicas
            .iter_mut()
            .find(|(b, _)| *b == leader)
            .map(|(_, l)| l)
            .expect("leader is always an assigned replica"))
    }

    /// Leader log, read-only.
    pub fn leader_log(&self) -> Result<&PartitionLog, BrokerError> {
        let leader = self.leader.ok_or_else(|| self.no_leader())?;
        Ok(self
            .replicas
            .iter()
            .find(|(b, _)| *b == leader)
            .map(|(_, l)| l)
            .expect("leader is always an assigned replica"))
    }

    /// Append a data batch through the leader and replicate to the ISR.
    pub fn append(
        &mut self,
        meta: BatchMeta,
        records: Vec<Record>,
    ) -> Result<AppendOutcome, BrokerError> {
        let outcome = self.leader_log_mut()?.append(meta, records)?;
        if !outcome.duplicate {
            self.replicate_last_batch()?;
        }
        self.advance_watermarks()?;
        Ok(outcome)
    }

    /// Append a transaction control marker through the leader (§4.2.2).
    pub fn append_control(
        &mut self,
        producer_id: i64,
        epoch: i32,
        ctl: ControlType,
        timestamp: i64,
    ) -> Result<Offset, BrokerError> {
        let off = self.leader_log_mut()?.append_control(producer_id, epoch, ctl, timestamp)?;
        self.replicate_last_batch()?;
        self.advance_watermarks()?;
        Ok(off)
    }

    /// Hand the batch the leader just stored to every in-sync follower. The
    /// followers install the leader's batch itself — one stored batch, each
    /// replica holding a pointer to it — instead of appending copies of its
    /// records: the leader already decided the append (dedup, fencing,
    /// offsets), and an install at the follower's log end moves its producer
    /// and transaction state exactly as the leader's moved.
    ///
    /// A follower that cannot take the batch (its log end is not where the
    /// leader's was) fails the append with a typed error; the other
    /// followers still receive the batch, so the replicas that are in sync
    /// stay identical, and the high watermark does not pass the batch.
    fn replicate_last_batch(&mut self) -> Result<(), BrokerError> {
        let Some(batch) = self.leader_log()?.last_batch().cloned() else { return Ok(()) };
        let mut first_error = None;
        for (b, log) in &mut self.replicas {
            if Some(*b) != self.leader && self.isr.contains(b) {
                if let Err(e) = log.install_batch(batch.clone()) {
                    first_error.get_or_insert(e);
                }
            }
        }
        first_error.map_or(Ok(()), |e| Err(e.into()))
    }

    /// Advance the high watermark to the minimum log-end offset across the
    /// ISR (all of which just replicated synchronously).
    ///
    /// Afterward every ISR replica must satisfy the §4.2 offset ordering
    /// `last stable offset ≤ high watermark ≤ log end offset`: synchronous
    /// replication leaves all ISR logs identical, so the watermark reaches
    /// the log end, and the LSO never passes the log end by construction.
    ///
    /// A replica that cannot persist its watermark fails the call with a
    /// typed error; the others still advance.
    fn advance_watermarks(&mut self) -> Result<(), BrokerError> {
        let min_leo = replication::replicated_high_watermark(
            self.replicas.iter().filter(|(b, _)| self.isr.contains(b)).map(|(_, l)| l.log_end()),
        );
        let mut first_error = None;
        for (b, log) in &mut self.replicas {
            if self.isr.contains(b) {
                if let Err(e) = log.advance_high_watermark(min_leo) {
                    first_error.get_or_insert(e);
                }
                invariant!(
                    replication::offsets_legal(
                        log.last_stable_offset(),
                        log.high_watermark(),
                        log.log_end()
                    ),
                    "offset-ordering",
                    "{} replica on broker {b}: require LSO {} <= HW {} <= LEO {}",
                    self.tp,
                    log.last_stable_offset(),
                    log.high_watermark(),
                    log.log_end()
                );
            }
        }
        // LSO lag: records visible to read-uncommitted but still pending a
        // transaction outcome (§4.2's read-committed wait). Open
        // transactions hold the LSO back, so a growing lag means markers
        // are outstanding. The lag is per partition; the process-wide name
        // keeps the worst any partition reached.
        if let Ok(log) = self.leader_log() {
            let lag = log.high_watermark() - log.last_stable_offset();
            kobs::gauge!("kbroker.lso_lag_peak").max(lag);
        }
        first_error.map_or(Ok(()), |e| Err(e.into()))
    }

    /// Fetch from the leader.
    pub fn fetch(
        &self,
        from: Offset,
        max_records: usize,
        isolation: IsolationLevel,
    ) -> Result<FetchResult, BrokerError> {
        Ok(self.leader_log()?.fetch(from, max_records, isolation)?)
    }

    /// Apply a maintenance operation to every replica log (compaction,
    /// record deletion) and return the leader's result — or, with no leader,
    /// the first replica's. A replica's storage error fails the call after
    /// every replica ran the operation.
    pub fn for_each_log<T>(
        &mut self,
        mut f: impl FnMut(&mut PartitionLog) -> Result<T, LogError>,
    ) -> Result<T, BrokerError> {
        let leader = self.leader.unwrap_or_else(|| self.replicas[0].0);
        let mut leader_result = None;
        let mut first_error = None;
        for (b, log) in &mut self.replicas {
            match f(log) {
                Ok(r) if *b == leader => leader_result = Some(r),
                Ok(_) => {}
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        match first_error {
            Some(e) => Err(e.into()),
            None => leader_result.ok_or_else(|| self.no_leader()),
        }
    }

    /// A broker died: remove it from the ISR; if it led this partition,
    /// elect the first remaining ISR member (rebuilding its producer state
    /// from its local log, §4.1). `now_ms` timestamps the emitted
    /// shrink/election trace events.
    pub fn on_broker_down(&mut self, broker: usize, now_ms: i64) {
        // Honest crash in disk mode: the dead broker loses ALL in-memory
        // state right now. Its segment files survive on disk (deliberately
        // not re-attached — a dead broker must not write), and
        // [`Self::on_broker_up`] rebuilds from them through real recovery.
        if self.replica_disk_config(broker).is_some() {
            if let Some((_, log)) = self.replicas.iter_mut().find(|(b, _)| *b == broker) {
                *log = PartitionLog::new().with_managed_watermark();
            }
        }
        let was_member = self.isr.contains(&broker);
        self.isr.retain(|&b| b != broker);
        if was_member {
            kobs::counter!("kbroker.isr.shrinks").add(1);
            kobs::event!(
                now_ms,
                "kbroker.isr",
                "isr_shrink",
                tp = self.tp.to_string(),
                broker = broker,
                isr_size = self.isr.len(),
            );
        }
        if self.leader == Some(broker) {
            self.leader = self.isr.first().copied();
            self.leader_epoch += 1;
            if self.leader.is_some() {
                self.leader_log_mut().expect("just elected").recover_producer_state();
            }
            kobs::event!(
                now_ms,
                "kbroker.isr",
                "leader_elected",
                tp = self.tp.to_string(),
                leader = self.leader.map_or(-1, |b| b as i64),
                epoch = self.leader_epoch,
            );
        }
    }

    /// A broker came back: catch its replica up from the leader and restore
    /// it to the ISR.
    ///
    /// In memory mode we copy the leader log wholesale — the simulation
    /// equivalent of follower truncation + re-fetch. In disk mode the
    /// replica is rebuilt from its own segment files first (real recovery:
    /// CRC scan, torn-tail truncation, snapshot-seeded producer state); if
    /// the recovered log is a prefix of the leader's, only the missing
    /// suffix is installed on top, otherwise (e.g. compaction ran while it
    /// was down) we fall back to a full re-clone plus disk resync. `now_ms`
    /// timestamps the emitted expand/election trace events.
    ///
    /// A replica whose files cannot be recovered or caught up stays out of
    /// the ISR, and the storage error is returned.
    pub fn on_broker_up(&mut self, broker: usize, now_ms: i64) -> Result<(), BrokerError> {
        if !self.assigned_brokers().contains(&broker) || self.isr.contains(&broker) {
            return Ok(());
        }
        let recovered = match self.replica_disk_config(broker) {
            Some(cfg) => Some((PartitionLog::recover(cfg.clone())?.with_managed_watermark(), cfg)),
            None => None,
        };
        if let Some(leader) = self.leader {
            let leader_log = self
                .replicas
                .iter()
                .find(|(b, _)| *b == leader)
                .map(|(_, l)| l.clone())
                .expect("leader is assigned");
            let caught_up = match recovered {
                Some((mut rec, cfg)) => {
                    if Self::is_prefix_of(&rec, &leader_log) {
                        // Fast path: install only the suffix the replica
                        // missed while it was down (written to its disk).
                        let suffix: Vec<StoredBatch> = leader_log
                            .batches()
                            .filter(|b| b.base_offset() >= rec.log_end())
                            .cloned()
                            .collect();
                        for b in suffix {
                            rec.install_batch(b)?;
                        }
                        rec.advance_high_watermark(leader_log.high_watermark())?;
                        kobs::counter!("kbroker.disk.suffix_catchups").add(1);
                        rec
                    } else {
                        // Divergence (compaction/retention while down): the
                        // only safe repair is a full re-clone + disk resync.
                        let mut log = leader_log;
                        log.resync_disk(cfg)?;
                        kobs::counter!("kbroker.disk.full_resyncs").add(1);
                        log
                    }
                }
                None => leader_log,
            };
            if let Some((_, log)) = self.replicas.iter_mut().find(|(b, _)| *b == broker) {
                *log = caught_up;
            }
            self.isr.push(broker);
        } else {
            // Everyone was down; the recovered broker becomes leader. In
            // memory mode it leads with whatever it had (it was in sync
            // when it died — synchronous replication keeps replicas
            // identical); in disk mode it leads with what its files held.
            self.leader = Some(broker);
            self.leader_epoch += 1;
            self.isr.push(broker);
            match recovered {
                Some((rec, _)) => {
                    // `recover` already rebuilt producer state
                    // (snapshot + suffix replay); a full rescan here would
                    // lose entries for batches retention truncated away.
                    if let Some((_, log)) = self.replicas.iter_mut().find(|(b, _)| *b == broker) {
                        *log = rec;
                    }
                }
                None => self.leader_log_mut().expect("just elected").recover_producer_state(),
            }
        }
        kobs::counter!("kbroker.isr.expands").add(1);
        kobs::event!(
            now_ms,
            "kbroker.isr",
            "isr_expand",
            tp = self.tp.to_string(),
            broker = broker,
            isr_size = self.isr.len(),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klog::batch::BatchMeta;

    fn tp() -> TopicPartition {
        TopicPartition::new("t", 0)
    }

    fn recs(n: usize) -> Vec<Record> {
        (0..n).map(|i| Record::of_str("k", &format!("v{i}"), i as i64)).collect()
    }

    #[test]
    fn append_replicates_to_all() {
        let mut rs = ReplicaSet::new(tp(), vec![0, 1, 2]);
        rs.append(BatchMeta::plain(), recs(3)).unwrap();
        for (_, log) in &rs.replicas {
            assert_eq!(log.log_end(), 3);
            assert_eq!(log.high_watermark(), 3);
        }
    }

    #[test]
    fn leader_failure_elects_follower_with_full_log() {
        let mut rs = ReplicaSet::new(tp(), vec![0, 1, 2]);
        rs.append(BatchMeta::plain(), recs(5)).unwrap();
        rs.on_broker_down(0, 0);
        assert_eq!(rs.leader(), Some(1));
        assert_eq!(rs.leader_epoch(), 1);
        let f = rs.fetch(0, 100, IsolationLevel::ReadUncommitted).unwrap();
        assert_eq!(f.count(), 5, "no records lost on failover");
    }

    #[test]
    fn survives_n_minus_1_failures() {
        let mut rs = ReplicaSet::new(tp(), vec![0, 1, 2]);
        rs.append(BatchMeta::plain(), recs(2)).unwrap();
        rs.on_broker_down(0, 0);
        rs.on_broker_down(1, 0);
        assert_eq!(rs.leader(), Some(2));
        rs.append(BatchMeta::plain(), recs(1)).unwrap();
        assert_eq!(rs.fetch(0, 100, IsolationLevel::ReadUncommitted).unwrap().count(), 3);
        rs.on_broker_down(2, 0);
        assert_eq!(rs.leader(), None);
        assert!(matches!(
            rs.append(BatchMeta::plain(), recs(1)),
            Err(BrokerError::NoLeader { .. })
        ));
    }

    #[test]
    fn new_leader_dedups_like_old_leader() {
        // §4.1: the new leader re-populates its sequence cache from the log.
        let mut rs = ReplicaSet::new(tp(), vec![0, 1]);
        rs.append(BatchMeta::idempotent(7, 0, 0), recs(2)).unwrap();
        rs.on_broker_down(0, 0);
        let retry = rs.append(BatchMeta::idempotent(7, 0, 0), recs(2)).unwrap();
        assert!(retry.duplicate, "retried batch must be deduped by new leader");
        assert_eq!(rs.leader_log().unwrap().log_end(), 2);
    }

    #[test]
    fn recovered_broker_catches_up_and_rejoins() {
        let mut rs = ReplicaSet::new(tp(), vec![0, 1]);
        rs.append(BatchMeta::plain(), recs(1)).unwrap();
        rs.on_broker_down(1, 0);
        rs.append(BatchMeta::plain(), recs(2)).unwrap(); // broker 1 misses these
        rs.on_broker_up(1, 0).unwrap();
        assert_eq!(rs.isr(), &[0, 1]);
        // Fail the leader; the recovered follower must serve the full log.
        rs.on_broker_down(0, 0);
        assert_eq!(rs.leader(), Some(1));
        assert_eq!(rs.fetch(0, 100, IsolationLevel::ReadUncommitted).unwrap().count(), 3);
    }

    #[test]
    fn total_outage_then_recovery() {
        let mut rs = ReplicaSet::new(tp(), vec![0, 1]);
        rs.append(BatchMeta::plain(), recs(4)).unwrap();
        rs.on_broker_down(0, 0);
        rs.on_broker_down(1, 0);
        rs.on_broker_up(1, 0).unwrap();
        assert_eq!(rs.leader(), Some(1));
        assert_eq!(rs.fetch(0, 100, IsolationLevel::ReadUncommitted).unwrap().count(), 4);
    }

    #[test]
    fn control_markers_replicate() {
        let mut rs = ReplicaSet::new(tp(), vec![0, 1]);
        rs.append(BatchMeta::transactional(9, 0, 0), recs(2)).unwrap();
        rs.append_control(9, 0, ControlType::Commit, 0).unwrap();
        rs.on_broker_down(0, 0);
        // New leader must expose the committed data to read-committed.
        let f = rs.fetch(0, 100, IsolationLevel::ReadCommitted).unwrap();
        assert_eq!(f.count(), 2);
    }

    #[test]
    fn down_follower_does_not_block_appends() {
        let mut rs = ReplicaSet::new(tp(), vec![0, 1, 2]);
        rs.on_broker_down(2, 0);
        rs.append(BatchMeta::plain(), recs(3)).unwrap();
        assert_eq!(rs.leader_log().unwrap().high_watermark(), 3);
    }

    fn log_mut(rs: &mut ReplicaSet, broker: usize) -> &mut PartitionLog {
        &mut rs.replicas.iter_mut().find(|(b, _)| *b == broker).unwrap().1
    }

    fn contents(log: &PartitionLog) -> Vec<(Offset, Record)> {
        let f = log.fetch(log.log_start(), usize::MAX, IsolationLevel::ReadUncommitted).unwrap();
        f.records().map(|(o, r)| (o, r.clone())).collect()
    }

    #[test]
    fn every_isr_replica_holds_the_leaders_batch() {
        let mut rs = ReplicaSet::new(tp(), vec![0, 1, 2]);
        rs.append(BatchMeta::transactional(9, 0, 0), recs(3)).unwrap();
        rs.append_control(9, 0, ControlType::Commit, 5).unwrap();
        rs.on_broker_down(2, 0);
        rs.append(BatchMeta::plain(), recs(2)).unwrap(); // broker 2 misses this one
        let leader: Vec<StoredBatch> = rs.leader_log().unwrap().batches().cloned().collect();
        assert_eq!(leader.len(), 3, "data, marker, data");
        for (b, log) in &rs.replicas {
            let held = if *b == 2 { 2 } else { 3 };
            assert_eq!(log.batches().count(), held);
            for (mine, leaders) in log.batches().zip(&leader) {
                assert!(
                    StoredBatch::ptr_eq(mine, leaders),
                    "broker {b} copied the batch at offset {}",
                    mine.base_offset()
                );
            }
        }
    }

    #[test]
    fn maintenance_on_one_replica_never_shows_through_the_shared_batches() {
        let mut rs = ReplicaSet::new(tp(), vec![0, 1, 2]);
        for _ in 0..3 {
            // `recs` repeats one key, so compaction has records to remove.
            rs.append(BatchMeta::plain(), recs(4)).unwrap();
        }
        let before = contents(rs.leader_log().unwrap());
        assert_eq!(before.len(), 12);
        let others_unchanged = |rs: &ReplicaSet, what: &str| {
            for (b, log) in &rs.replicas {
                if *b != 1 {
                    assert_eq!(contents(log), before, "broker {b} changed after {what}");
                }
            }
        };
        klog::compaction::compact(log_mut(&mut rs, 1)).unwrap();
        assert_eq!(contents(log_mut(&mut rs, 1)).len(), 1, "one key survives compaction");
        others_unchanged(&rs, "compacting broker 1");

        log_mut(&mut rs, 1).truncate_suffix(0).unwrap();
        assert!(contents(log_mut(&mut rs, 1)).is_empty());
        others_unchanged(&rs, "truncating broker 1");

        rs.on_broker_down(1, 0);
        rs.on_broker_up(1, 0).unwrap();
        assert_eq!(contents(log_mut(&mut rs, 1)), before, "restore re-clones the leader");
        others_unchanged(&rs, "killing and restoring broker 1");
    }

    #[test]
    fn diverged_follower_fails_the_append_with_an_error_not_a_panic() {
        let mut rs = ReplicaSet::new(tp(), vec![0, 1, 2]);
        rs.append(BatchMeta::idempotent(7, 0, 0), recs(3)).unwrap();
        // Behind the leader's back, broker 1 loses its log: the leader's
        // next batch no longer starts at that follower's log end.
        log_mut(&mut rs, 1).truncate_suffix(0).unwrap();
        let err = rs.append(BatchMeta::idempotent(7, 0, 3), recs(2)).unwrap_err();
        assert!(matches!(err, BrokerError::Log(LogError::CorruptBatch(_))), "{err:?}");
        let err = rs.append_control(7, 0, ControlType::Commit, 0).unwrap_err();
        assert!(matches!(err, BrokerError::Log(LogError::CorruptBatch(_))), "{err:?}");
        // The healthy follower still took both batches: it and the leader
        // stay identical, and neither batch passed the high watermark.
        let log_of = |broker| &rs.replicas.iter().find(|(b, _)| *b == broker).unwrap().1;
        assert_eq!(log_of(0).log_end(), 6);
        assert!(log_of(0).batches().eq(log_of(2).batches()));
        assert_eq!(log_of(0).high_watermark(), 3);
        assert_eq!(log_of(1).log_end(), 0, "the diverged follower was not written to");
    }

    mod disk {
        use super::*;
        use klog::StorageMode;
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicUsize, Ordering};

        fn disk_rs(root: &PathBuf, brokers: Vec<usize>) -> ReplicaSet {
            let cfg = DiskConfig::at(root).with_roll_records(3);
            ReplicaSet::new_with_storage(tp(), brokers, StorageMode::Disk(cfg)).unwrap()
        }

        fn root() -> PathBuf {
            static N: AtomicUsize = AtomicUsize::new(0);
            let n = N.fetch_add(1, Ordering::Relaxed);
            std::env::temp_dir().join(format!("kbroker-replica-{}-{n}", std::process::id()))
        }

        #[test]
        fn killed_broker_loses_memory_but_recovers_from_files() {
            let dir = root();
            let mut rs = disk_rs(&dir, vec![0, 1]);
            rs.append(BatchMeta::plain(), recs(4)).unwrap();
            rs.on_broker_down(1, 0);
            // The dead replica's in-memory log really is empty now.
            let dead = &rs.replicas.iter().find(|(b, _)| *b == 1).unwrap().1;
            assert_eq!(dead.log_end(), 0, "crash must discard in-memory state");
            // More data while broker 1 is down.
            rs.append(BatchMeta::plain(), recs(2)).unwrap();
            rs.on_broker_up(1, 0).unwrap();
            // Fail the old leader: the recovered follower serves everything.
            rs.on_broker_down(0, 0);
            assert_eq!(rs.leader(), Some(1));
            assert_eq!(rs.fetch(0, 100, IsolationLevel::ReadUncommitted).unwrap().count(), 6);
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn every_replica_writes_the_frames_of_the_leaders_batches() {
            use klog::storage::format::{encode_batch, frame};
            let dir = root();
            let mut rs = disk_rs(&dir, vec![0, 1, 2]);
            rs.append(BatchMeta::transactional(5, 0, 0), recs(4)).unwrap();
            rs.append_control(5, 0, ControlType::Abort, 9).unwrap();
            rs.append(BatchMeta::plain(), recs(2)).unwrap();
            // What a log that appended these records itself writes: each
            // stored batch as one CRC frame, in offset order.
            let expected: Vec<u8> =
                rs.leader_log().unwrap().batches().flat_map(|b| frame(&encode_batch(b))).collect();
            for broker in 0..3 {
                let replica_dir = rs.replica_disk_config(broker).unwrap().dir;
                let mut segments: Vec<PathBuf> = std::fs::read_dir(&replica_dir)
                    .unwrap()
                    .map(|e| e.unwrap().path())
                    .filter(|p| p.extension().is_some_and(|ext| ext == "log"))
                    .collect();
                segments.sort();
                assert!(segments.len() > 1, "roll=3 splits 7 records over several files");
                let written: Vec<u8> =
                    segments.iter().flat_map(|p| std::fs::read(p).unwrap()).collect();
                assert_eq!(written, expected, "broker {broker}'s segment bytes");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn total_outage_recovers_from_segment_files() {
            let dir = root();
            let mut rs = disk_rs(&dir, vec![0, 1]);
            rs.append(BatchMeta::transactional(5, 0, 0), recs(3)).unwrap();
            rs.append_control(5, 0, ControlType::Commit, 0).unwrap();
            rs.on_broker_down(0, 0);
            rs.on_broker_down(1, 0);
            // Both in-memory logs are gone; only the files remain.
            for (_, log) in &rs.replicas {
                assert_eq!(log.log_end(), 0);
            }
            rs.on_broker_up(1, 0).unwrap();
            assert_eq!(rs.leader(), Some(1));
            let f = rs.fetch(0, 100, IsolationLevel::ReadCommitted).unwrap();
            assert_eq!(f.count(), 3, "committed data must survive a full-cluster crash");
            // Dedup state also survived via the producer snapshot.
            let retry = rs.append(BatchMeta::transactional(5, 0, 0), recs(3)).unwrap();
            assert!(retry.duplicate);
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn unrecoverable_replica_stays_out_of_the_isr() {
            let dir = root();
            let mut rs = disk_rs(&dir, vec![0, 1]);
            rs.append(BatchMeta::plain(), recs(4)).unwrap();
            rs.on_broker_down(1, 0);
            // Broker 1's directory is gone, and a file in its place keeps
            // recovery from even recreating it.
            let replica_dir = rs.replica_disk_config(1).unwrap().dir;
            std::fs::remove_dir_all(&replica_dir).unwrap();
            std::fs::write(&replica_dir, b"not a directory").unwrap();
            let err = rs.on_broker_up(1, 0).unwrap_err();
            assert!(matches!(err, BrokerError::Log(LogError::Io(_))), "{err:?}");
            assert_eq!(rs.isr(), &[0], "the ISR is unchanged");
            // The leader keeps serving without it.
            rs.append(BatchMeta::plain(), recs(1)).unwrap();
            assert_eq!(rs.leader_log().unwrap().high_watermark(), 5);
            // Once its storage is back, bringing it up again is the retry.
            std::fs::remove_file(&replica_dir).unwrap();
            rs.on_broker_up(1, 0).unwrap();
            assert_eq!(rs.isr(), &[0, 1]);
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Base offsets of `broker`'s segment files.
        fn file_bases(rs: &ReplicaSet, broker: usize) -> Vec<Offset> {
            let dir = rs.replica_disk_config(broker).unwrap().dir;
            let mut bases: Vec<Offset> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|ext| ext == "log"))
                .map(|p| p.file_stem().unwrap().to_str().unwrap().parse().unwrap())
                .collect();
            bases.sort_unstable();
            bases
        }

        #[test]
        fn diverged_replica_full_resyncs() {
            let dir = root();
            let mut rs = disk_rs(&dir, vec![0, 1]);
            for _ in 0..4 {
                rs.append(BatchMeta::plain(), recs(2)).unwrap();
            }
            rs.on_broker_down(1, 0);
            // Retention moves the leader's log start while 1 is down, so
            // the recovered files no longer share a log start with it. The
            // cut falls inside the head segment (0..=3), which keeps base 0.
            rs.for_each_log(|l| l.truncate_prefix(2)).unwrap();
            rs.on_broker_up(1, 0).unwrap();
            let bases = |rs: &ReplicaSet, broker: usize| -> Vec<Offset> {
                let log = &rs.replicas.iter().find(|(b, _)| *b == broker).unwrap().1;
                log.segment_bases().collect()
            };
            assert_eq!(bases(&rs, 1), vec![0, 4]);
            assert_eq!(file_bases(&rs, 1), bases(&rs, 1), "resync names files by segment base");
            // Retention runs again on the resynced replica: the head's file
            // goes, and the next segment is trimmed.
            rs.append(BatchMeta::plain(), recs(2)).unwrap();
            rs.for_each_log(|l| l.truncate_prefix(6)).unwrap();
            assert_eq!(file_bases(&rs, 1), vec![4, 8]);
            assert_eq!(file_bases(&rs, 1), bases(&rs, 1));
            // Broker 1 crashes and recovers from those files alone.
            rs.on_broker_down(1, 0);
            rs.on_broker_up(1, 0).unwrap();
            rs.on_broker_down(0, 0);
            assert_eq!(rs.leader(), Some(1));
            assert_eq!(rs.leader_log().unwrap().log_start(), 6);
            let f = rs.fetch(6, 100, IsolationLevel::ReadUncommitted).unwrap();
            assert_eq!(f.records().map(|(o, _)| o).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
