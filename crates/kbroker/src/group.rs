//! Consumer groups: membership, generations and progress (§3.1, §4.2.3).
//!
//! The coordinator tracks who is in a group and bumps its generation on
//! every membership change. Each bump freezes the member list and each
//! member's opaque metadata into the view every member reads. It computes
//! no assignment: as in Kafka, the assignor is client code — here the
//! Streams layer's sticky task assignor, run on every member from the same
//! frozen view. Progress (committed offsets) is stored as appends to the
//! internal `__consumer_offsets` topic.
//! Because an offset commit is just a log append, a *transactional* offset
//! commit participates in the producer's transaction: it only becomes
//! visible when the transaction's commit marker lands, and rolls back with
//! an abort — which is exactly how the read-process-write cycle commits all
//! three of its actions atomically (§4.2).
//!
//! Generation fencing: every rebalance bumps the group generation; commits
//! carrying a stale generation are rejected. This is what stops a *zombie
//! consumer* (a member that was kicked out but keeps running, §2.1) from
//! corrupting progress tracking.

use crate::cluster::Cluster;
use crate::error::BrokerError;
use crate::topic::{partition_for_key, Topic, TopicPartition};
use crate::OFFSETS_TOPIC;
use bytes::Bytes;
use klog::batch::BatchMeta;
use klog::codec::{Reader, Writer};
use klog::{IsolationLevel, Offset, Record};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Default member session timeout: members that have not heartbeated (via
/// [`Cluster::group_view`]) for this long are evicted by
/// [`Cluster::group_expire_members`].
pub const SESSION_TIMEOUT_MS: i64 = 30_000;

#[derive(Debug, Clone)]
struct MemberInfo {
    last_seen_ms: i64,
    /// Opaque client metadata (streams-layer assignors encode task
    /// ownership and standby warm-up readiness here). Set at join, updated
    /// live via [`Cluster::group_update_metadata`]; snapshotted into the
    /// frozen view at each rebalance.
    metadata: Vec<String>,
}

#[derive(Debug, Default)]
struct GroupState {
    members: BTreeMap<String, MemberInfo>,
    /// The view frozen at the last generation bump. Members read this
    /// snapshot (not the live set), so every member of generation G
    /// computes its assignment from identical inputs even while later
    /// joins are being debounced; a check-in hands out the handle, not a
    /// copy.
    view: Arc<GroupView>,
    /// Coalescing window for join/request-triggered rebalances (0 = bump
    /// immediately, the historical behavior). Leaves and expirations always
    /// rebalance immediately.
    debounce_ms: i64,
    /// Virtual-clock instant the first pending (debounced) trigger arrived;
    /// the rebalance fires once `now - pending_since >= debounce_ms`.
    pending_since: Option<i64>,
}

/// A member's view of its group after a join or poll-time check: the same
/// for every member of one generation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupView {
    pub generation: i32,
    /// Member ids frozen at this generation's rebalance, sorted
    /// (streams-layer assignors use this).
    pub members: Vec<String>,
    /// Each frozen member's metadata at the rebalance instant — the shared
    /// input from which streams-layer assignors recover previous task
    /// ownership and warm-up readiness.
    pub member_metadata: BTreeMap<String, Vec<String>>,
}

/// Broker-side group coordinator state plus the offsets materialization
/// cache.
///
/// Striped by the group's offsets-topic partition (the same shard key the
/// real coordinator uses): operations on groups living on different
/// `__consumer_offsets` partitions never contend, so instance threads
/// committing for distinct groups don't serialize here. Mirrors
/// the [`crate::txn`] registry's per-shard locking.
pub struct GroupsRegistry {
    /// Group state, sharded by `offsets_partition_for(group)`.
    stripes: Vec<Mutex<HashMap<String, GroupState>>>,
    offsets_partitions: u32,
    /// Offsets materialization cache, one shard per offsets-topic
    /// partition (each shard tracks its own log position).
    cache: Vec<Mutex<OffsetsCacheShard>>,
}

#[derive(Default)]
struct OffsetsCacheShard {
    /// How far this offsets-topic partition has been materialized.
    position: Offset,
    /// Latest committed offset per group and partition, for groups whose
    /// commits land on this shard's offsets partition.
    offsets: HashMap<String, HashMap<TopicPartition, Offset>>,
}

impl GroupsRegistry {
    pub fn new(offsets_partitions: u32) -> Self {
        assert!(offsets_partitions > 0, "offsets topic needs at least one partition");
        Self {
            stripes: (0..offsets_partitions).map(|_| Mutex::new(HashMap::new())).collect(),
            offsets_partitions,
            cache: (0..offsets_partitions)
                .map(|_| Mutex::new(OffsetsCacheShard::default()))
                .collect(),
        }
    }

    fn offsets_partition_for(&self, group: &str) -> u32 {
        partition_for_key(group.as_bytes(), self.offsets_partitions)
    }

    /// The stripe holding `group`'s coordinator state.
    fn stripe(&self, group: &str) -> &Mutex<HashMap<String, GroupState>> {
        &self.stripes[self.offsets_partition_for(group) as usize]
    }
}

fn unknown_member(group: &str, member: &str) -> BrokerError {
    BrokerError::UnknownMember { group: group.to_string(), member: member.to_string() }
}

/// The `__consumer_offsets` record of `group`'s committed `offset` on `tp`:
/// the key is the group id and the topic name behind their lengths, then
/// the partition; the value is the offset.
pub fn encode_offset_commit(group: &str, tp: &TopicPartition, offset: Offset) -> (Bytes, Bytes) {
    let mut key = Writer::with_capacity(12 + group.len() + tp.topic.len());
    key.put_bytes(group.as_bytes());
    key.put_bytes(tp.topic.as_bytes());
    key.put_u32(tp.partition);
    let mut value = Writer::with_capacity(8);
    value.put_i64(offset);
    (Bytes::from(key.finish()), Bytes::from(value.finish()))
}

/// The group, partition and offset an offsets record commits.
pub fn decode_offset_commit<'k>(
    key: &'k [u8],
    value: &[u8],
) -> Option<(&'k str, TopicPartition, Offset)> {
    let (mut k, mut v) = (Reader::new(key), Reader::new(value));
    let (group, topic, partition, offset) = (k.str()?, k.str()?, k.u32()?, v.i64()?);
    k.end(())?;
    v.end(())?;
    Some((group, TopicPartition { topic: Topic::new(topic), partition }, offset))
}

impl Cluster {
    fn rebalance(&self, state: &mut GroupState) {
        state.pending_since = None;
        // Freeze the membership and metadata for this generation: every
        // member's view of generation G carries this exact snapshot, so
        // leaderless assignors compute from identical inputs even while
        // later joins are still being debounced.
        let members = &state.members;
        state.view = Arc::new(GroupView {
            generation: state.view.generation + 1,
            members: members.keys().cloned().collect(),
            member_metadata: members.iter().map(|(m, i)| (m.clone(), i.metadata.clone())).collect(),
        });
        kobs::counter!("kbroker.group.rebalances").add(1);
        kobs::event!(
            self.now_ms(),
            "kbroker.group",
            "rebalance",
            generation = state.view.generation,
            members = state.members.len(),
        );
    }

    /// Register a debounced rebalance trigger (join or member request):
    /// with no window configured it fires immediately; otherwise the first
    /// trigger opens the window and [`Self::fire_pending_rebalance`] bumps
    /// the generation once the window has elapsed, coalescing every trigger
    /// that arrived in between into a single generation bump.
    fn trigger_rebalance(&self, state: &mut GroupState, now: i64) {
        if state.debounce_ms <= 0 {
            self.rebalance(state);
            return;
        }
        if state.pending_since.is_none() {
            state.pending_since = Some(now);
            kobs::counter!("kbroker.group.rebalances_deferred").add(1);
        }
        self.fire_pending_rebalance(state, now);
    }

    /// Fire an overdue debounced rebalance, if any.
    fn fire_pending_rebalance(&self, state: &mut GroupState, now: i64) {
        if let Some(t0) = state.pending_since {
            if now - t0 >= state.debounce_ms {
                self.rebalance(state);
            }
        }
    }

    /// Force a rebalance of the group with its current membership: the
    /// generation is bumped and the view re-frozen, so every member's
    /// next heartbeat observes membership churn (the simulation harness
    /// uses this as a cluster-level fault event). No-op on an unknown or
    /// empty group.
    pub fn group_force_rebalance(&self, group: &str) {
        let mut groups = self.inner.groups.stripe(group).lock();
        let Some(state) = groups.get_mut(group) else { return };
        if state.members.is_empty() {
            return;
        }
        self.rebalance(state);
    }

    /// Join (or re-join) a group with the member's opaque `metadata`
    /// (streams assignors encode previous task ownership here), triggering
    /// a rebalance — immediately, or after the group's debounce window.
    /// The metadata is frozen into the view at the next generation bump.
    /// With a debounce window configured, back-to-back joins coalesce into
    /// one bump; the view returned to a still-pending joiner carries the
    /// *previous* generation's frozen membership (which may not include the
    /// joiner yet).
    pub fn group_join(
        &self,
        group: &str,
        member: &str,
        metadata: &[String],
    ) -> Result<Arc<GroupView>, BrokerError> {
        let now = self.now_ms();
        let mut groups = self.inner.groups.stripe(group).lock();
        let state = groups.entry(group.to_string()).or_default();
        state.members.insert(
            member.to_string(),
            MemberInfo { last_seen_ms: now, metadata: metadata.to_vec() },
        );
        self.trigger_rebalance(state, now);
        Ok(state.view.clone())
    }

    /// Update a member's metadata in place — no generation bump. The new
    /// metadata becomes visible to assignors at the *next* rebalance, when
    /// it is frozen into the group view.
    pub fn group_update_metadata(
        &self,
        group: &str,
        member: &str,
        metadata: &[String],
    ) -> Result<(), BrokerError> {
        let mut groups = self.inner.groups.stripe(group).lock();
        let state = groups.get_mut(group).ok_or_else(|| unknown_member(group, member))?;
        let info = state.members.get_mut(member).ok_or_else(|| unknown_member(group, member))?;
        info.metadata = metadata.to_vec();
        Ok(())
    }

    /// A member asks for a rebalance (e.g. a streams instance whose warming
    /// standby caught up and wants the deferred task transfer to happen).
    /// Honors the group's debounce window like a join does.
    pub fn group_request_rebalance(&self, group: &str, member: &str) -> Result<(), BrokerError> {
        let now = self.now_ms();
        let mut groups = self.inner.groups.stripe(group).lock();
        let state = groups.get_mut(group).ok_or_else(|| unknown_member(group, member))?;
        if !state.members.contains_key(member) {
            return Err(unknown_member(group, member));
        }
        self.trigger_rebalance(state, now);
        Ok(())
    }

    /// Configure the group's rebalance debounce window (virtual-clock ms).
    /// Joins and member requests within the window coalesce into a single
    /// generation bump; 0 restores immediate rebalancing. Creates the group
    /// if it does not exist yet.
    pub fn group_set_rebalance_debounce_ms(&self, group: &str, debounce_ms: i64) {
        let mut groups = self.inner.groups.stripe(group).lock();
        groups.entry(group.to_string()).or_default().debounce_ms = debounce_ms;
    }

    /// Leave a group, triggering a rebalance.
    pub fn group_leave(&self, group: &str, member: &str) -> Result<(), BrokerError> {
        let mut groups = self.inner.groups.stripe(group).lock();
        let state = groups.get_mut(group).ok_or_else(|| unknown_member(group, member))?;
        if state.members.remove(member).is_none() {
            return Err(unknown_member(group, member));
        }
        self.rebalance(state);
        Ok(())
    }

    /// Poll-time check-in: refreshes the member's heartbeat and returns the
    /// current view (the consumer compares generations to detect a
    /// rebalance). Errors if the member was evicted.
    pub fn group_view(&self, group: &str, member: &str) -> Result<Arc<GroupView>, BrokerError> {
        let now = self.now_ms();
        let mut groups = self.inner.groups.stripe(group).lock();
        let state = groups.get_mut(group).ok_or_else(|| unknown_member(group, member))?;
        let info = state.members.get_mut(member).ok_or_else(|| unknown_member(group, member))?;
        info.last_seen_ms = now;
        // Heartbeats drive the debounce clock: an overdue coalesced
        // rebalance fires on the next check-in.
        self.fire_pending_rebalance(state, now);
        Ok(state.view.clone())
    }

    /// Evict members that have not checked in within the session timeout —
    /// how a *disconnected* (but still running) instance becomes a zombie
    /// (§2.1). Returns the evicted member ids.
    pub fn group_expire_members(&self, group: &str) -> Vec<String> {
        let now = self.now_ms();
        let mut groups = self.inner.groups.stripe(group).lock();
        let Some(state) = groups.get_mut(group) else { return Vec::new() };
        let expired: Vec<String> = state
            .members
            .iter()
            .filter(|(_, i)| now - i.last_seen_ms > SESSION_TIMEOUT_MS)
            .map(|(m, _)| m.clone())
            .collect();
        if !expired.is_empty() {
            for m in &expired {
                state.members.remove(m);
            }
            self.rebalance(state);
        }
        expired
    }

    /// Current generation of a group (0 if the group does not exist yet).
    pub fn group_generation(&self, group: &str) -> i32 {
        self.inner.groups.stripe(group).lock().get(group).map_or(0, |s| s.view.generation)
    }

    fn check_generation(
        &self,
        group: &str,
        member: &str,
        generation: i32,
    ) -> Result<(), BrokerError> {
        let groups = self.inner.groups.stripe(group).lock();
        let state = groups.get(group).ok_or_else(|| unknown_member(group, member))?;
        if !state.members.contains_key(member) {
            return Err(unknown_member(group, member));
        }
        if state.view.generation != generation {
            return Err(BrokerError::IllegalGeneration {
                group: group.to_string(),
                expected: state.view.generation,
                got: generation,
            });
        }
        Ok(())
    }

    fn offset_records(&self, group: &str, offsets: &[(TopicPartition, Offset)]) -> Vec<Record> {
        let ts = self.now_ms();
        offsets
            .iter()
            .map(|(tp, off)| {
                let (key, value) = encode_offset_commit(group, tp, *off);
                Record { key: Some(key), value: Some(value), timestamp: ts }
            })
            .collect()
    }

    /// Plain (at-least-once mode) offset commit: generation-fenced, then
    /// appended to the offsets topic.
    pub fn group_commit_offsets(
        &self,
        group: &str,
        member: &str,
        generation: i32,
        offsets: &[(TopicPartition, Offset)],
    ) -> Result<(), BrokerError> {
        self.check_generation(group, member, generation)?;
        if offsets.is_empty() {
            return Ok(());
        }
        let records = self.offset_records(group, offsets);
        self.produce(&self.offsets_partition_for_group(group), BatchMeta::plain(), records)?;
        Ok(())
    }

    /// Transactional offset commit (`sendOffsetsToTransaction`): the append
    /// carries the producer's id/epoch and becomes visible only when the
    /// transaction commits (§4.2.3). The offsets partition must already be
    /// registered in the transaction (the producer client does this).
    pub fn group_txn_commit_offsets(
        &self,
        group: &str,
        offsets: &[(TopicPartition, Offset)],
        producer_id: i64,
        producer_epoch: i32,
        generation: Option<(&str, i32)>,
    ) -> Result<(), BrokerError> {
        if let Some((member, gen)) = generation {
            self.check_generation(group, member, gen)?;
        }
        if offsets.is_empty() {
            return Ok(());
        }
        let records = self.offset_records(group, offsets);
        let meta = BatchMeta {
            producer_id,
            producer_epoch,
            base_sequence: klog::NO_SEQUENCE,
            transactional: true,
            control: None,
        };
        self.produce(&self.offsets_partition_for_group(group), meta, records)?;
        Ok(())
    }

    /// The offsets-topic partition a group's commits land on (needed by the
    /// producer client to register it in the transaction).
    pub fn offsets_partition_for_group(&self, group: &str) -> TopicPartition {
        TopicPartition {
            topic: OFFSETS_TOPIC,
            partition: self.inner.groups.offsets_partition_for(group),
        }
    }

    /// Latest committed offset for `(group, tp)`, materialized from the
    /// offsets topic with read-committed isolation — so an in-flight
    /// transactional commit is invisible and an aborted one rolls back
    /// "effectively roll\[ing\] back to the last committed transaction"
    /// (§4.2.3).
    pub fn group_committed_offset(
        &self,
        group: &str,
        tp: &TopicPartition,
    ) -> Result<Option<Offset>, BrokerError> {
        let part = self.inner.groups.offsets_partition_for(group);
        let log_tp = TopicPartition { topic: OFFSETS_TOPIC, partition: part };
        // Per-partition cache shard: readers of groups on different offsets
        // partitions materialize concurrently without sharing a lock.
        let mut cache = self.inner.groups.cache[part as usize].lock();
        let shard = &mut *cache;
        let isolation = IsolationLevel::ReadCommitted;
        self.read_log(&log_tp, &mut shard.position, Offset::MAX, 1024, isolation, |rec| {
            let (Some(k), Some(v)) = (&rec.key, &rec.value) else { return };
            let Some((g, tp, off)) = decode_offset_commit(k, v) else { return };
            if let Some(committed) = shard.offsets.get_mut(g) {
                committed.insert(tp, off);
            } else {
                shard.offsets.insert(g.to_owned(), HashMap::from([(tp, off)]));
            }
        })?;
        Ok(cache.offsets.get(group).and_then(|committed| committed.get(tp)).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topic::TopicConfig;

    fn cluster() -> Cluster {
        Cluster::builder().brokers(3).replication(3).build()
    }

    fn members(ids: &[&str]) -> Vec<String> {
        ids.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn offset_commit_round_trips() {
        let tp = TopicPartition::new("orders", 7);
        for offset in [-1, 0, i64::MAX] {
            let (key, value) = encode_offset_commit("g1", &tp, offset);
            assert_eq!(decode_offset_commit(&key, &value), Some(("g1", tp, offset)));
        }
    }

    /// Offset keys frame each field by its length, so a group id holding
    /// a NUL commits and reads back like any other: a commit that could not
    /// be read back would make a restart re-read its input from the
    /// earliest offset.
    #[test]
    fn group_ids_holding_a_nul_commit_and_read_back() {
        let c = cluster();
        c.create_topic("src", TopicConfig::new(1)).unwrap();
        let tp = TopicPartition::new("src", 0);
        let v = c.group_join("g\0x", "m", &[]).unwrap();
        c.group_commit_offsets("g\0x", "m", v.generation, &[(tp, 5)]).unwrap();
        assert_eq!(c.group_committed_offset("g\0x", &tp).unwrap(), Some(5));
        // The transactional path writes the same records.
        let (pid, epoch) = c.txn_init_producer("app", 60_000).unwrap();
        let offsets_tp = c.offsets_partition_for_group("g\0x");
        c.txn_add_partitions("app", pid, epoch, &[offsets_tp]).unwrap();
        c.group_txn_commit_offsets("g\0x", &[(tp, 9)], pid, epoch, None).unwrap();
        c.txn_end("app", pid, epoch, true).unwrap();
        assert_eq!(c.group_committed_offset("g\0x", &tp).unwrap(), Some(9));
        // Neither is read as a group whose id the NUL would have cut short.
        assert_eq!(c.group_committed_offset("g", &tp).unwrap(), None);
    }

    #[test]
    fn first_join_bumps_to_generation_one() {
        let c = cluster();
        let v = c.group_join("g", "m1", &[]).unwrap();
        assert_eq!(v.generation, 1);
        assert_eq!(v.members, members(&["m1"]));
    }

    #[test]
    fn second_member_bumps_and_both_see_one_view() {
        let c = cluster();
        c.group_join("g", "m1", &[]).unwrap();
        let v2 = c.group_join("g", "m2", &[]).unwrap();
        assert_eq!(v2.generation, 2);
        assert_eq!(v2.members, members(&["m1", "m2"]));
        assert_eq!(c.group_view("g", "m1").unwrap(), v2, "one frozen view per generation");
    }

    #[test]
    fn leave_bumps_and_drops_the_member() {
        let c = cluster();
        c.group_join("g", "a", &[]).unwrap();
        c.group_join("g", "b", &[]).unwrap();
        c.group_leave("g", "a").unwrap();
        let vb = c.group_view("g", "b").unwrap();
        assert_eq!(vb.generation, 3);
        assert_eq!(vb.members, members(&["b"]));
    }

    #[test]
    fn commit_and_fetch_offsets() {
        let c = cluster();
        let v = c.group_join("g", "m", &[]).unwrap();
        let tp = TopicPartition::new("t", 0);
        assert_eq!(c.group_committed_offset("g", &tp).unwrap(), None);
        c.group_commit_offsets("g", "m", v.generation, &[(tp, 42)]).unwrap();
        assert_eq!(c.group_committed_offset("g", &tp).unwrap(), Some(42));
        c.group_commit_offsets("g", "m", v.generation, &[(tp, 100)]).unwrap();
        assert_eq!(c.group_committed_offset("g", &tp).unwrap(), Some(100));
    }

    #[test]
    fn stale_generation_commit_rejected() {
        let c = cluster();
        let v1 = c.group_join("g", "m1", &[]).unwrap();
        c.group_join("g", "m2", &[]).unwrap(); // bumps generation
        let tp = TopicPartition::new("t", 0);
        assert!(matches!(
            c.group_commit_offsets("g", "m1", v1.generation, &[(tp, 5)]),
            Err(BrokerError::IllegalGeneration { .. })
        ));
    }

    #[test]
    fn evicted_member_commit_rejected() {
        let c = cluster();
        let v = c.group_join("g", "m", &[]).unwrap();
        c.group_leave("g", "m").unwrap();
        let tp = TopicPartition::new("t", 0);
        assert!(matches!(
            c.group_commit_offsets("g", "m", v.generation, &[(tp, 5)]),
            Err(BrokerError::UnknownMember { .. })
        ));
    }

    #[test]
    fn session_timeout_evicts_silent_members() {
        let clock = simkit::ManualClock::new();
        let c = Cluster::builder().brokers(1).replication(1).clock(clock.shared()).build();
        c.group_join("g", "a", &[]).unwrap();
        c.group_join("g", "b", &[]).unwrap();
        clock.advance(SESSION_TIMEOUT_MS / 2);
        c.group_view("g", "a").unwrap(); // a heartbeats, b stays silent
        clock.advance(SESSION_TIMEOUT_MS / 2 + 1);
        let evicted = c.group_expire_members("g");
        assert_eq!(evicted, members(&["b"]));
        let va = c.group_view("g", "a").unwrap();
        assert_eq!(va.generation, 3, "eviction bumps the generation");
        assert_eq!(va.members, members(&["a"]));
    }

    #[test]
    fn simultaneous_joins_coalesce_into_one_generation_bump() {
        let clock = simkit::ManualClock::new();
        let c = Cluster::builder().brokers(1).replication(1).clock(clock.shared()).build();
        c.group_set_rebalance_debounce_ms("g", 50);
        // Three back-to-back joins inside the window: zero bumps yet.
        for m in ["a", "b", "c"] {
            c.group_join("g", m, &[]).unwrap();
        }
        assert_eq!(c.group_generation("g"), 0, "joins are pending inside the window");
        clock.advance(50);
        let v = c.group_view("g", "a").unwrap();
        assert_eq!(v.generation, 1, "exactly one bump for the whole burst");
        assert_eq!(v.members, members(&["a", "b", "c"]));
        assert_eq!(c.group_view("g", "c").unwrap(), v, "all three were frozen together");
    }

    #[test]
    fn undebounced_group_keeps_immediate_rebalances() {
        let c = cluster();
        c.group_join("g", "a", &[]).unwrap();
        let v = c.group_join("g", "b", &[]).unwrap();
        assert_eq!(v.generation, 2, "no window configured: every join bumps");
    }

    #[test]
    fn leave_fires_immediately_even_with_debounce() {
        let clock = simkit::ManualClock::new();
        let c = Cluster::builder().brokers(1).replication(1).clock(clock.shared()).build();
        c.group_join("g", "a", &[]).unwrap();
        c.group_join("g", "b", &[]).unwrap();
        c.group_set_rebalance_debounce_ms("g", 1000);
        c.group_leave("g", "b").unwrap();
        let v = c.group_view("g", "a").unwrap();
        assert_eq!(v.generation, 3, "leave is not debounced");
        assert_eq!(v.members, members(&["a"]));
    }

    #[test]
    fn metadata_is_frozen_until_the_next_rebalance() {
        let c = cluster();
        c.group_join("g", "m", &["o:0_0".to_string()]).unwrap();
        c.group_update_metadata("g", "m", &["o:0_1".to_string()]).unwrap();
        let v = c.group_view("g", "m").unwrap();
        assert_eq!(
            v.member_metadata["m"],
            vec!["o:0_0".to_string()],
            "live update invisible until frozen by a rebalance"
        );
        c.group_force_rebalance("g");
        let v = c.group_view("g", "m").unwrap();
        assert_eq!(v.member_metadata["m"], vec!["o:0_1".to_string()]);
    }

    #[test]
    fn member_requested_rebalance_bumps_generation() {
        let c = cluster();
        let v = c.group_join("g", "m", &[]).unwrap();
        c.group_request_rebalance("g", "m").unwrap();
        let v2 = c.group_view("g", "m").unwrap();
        assert_eq!(v2.generation, v.generation + 1);
        assert!(matches!(
            c.group_request_rebalance("g", "ghost"),
            Err(BrokerError::UnknownMember { .. })
        ));
    }

    #[test]
    fn transactional_offsets_visible_only_after_commit() {
        let c = cluster();
        c.create_topic("src", TopicConfig::new(1)).unwrap();
        c.create_topic("out", TopicConfig::new(1)).unwrap();
        let src = TopicPartition::new("src", 0);
        let (pid, epoch) = c.txn_init_producer("app", 60_000).unwrap();
        let offsets_tp = c.offsets_partition_for_group("g");
        c.txn_add_partitions("app", pid, epoch, &[offsets_tp]).unwrap();
        c.group_txn_commit_offsets("g", &[(src, 10)], pid, epoch, None).unwrap();
        assert_eq!(
            c.group_committed_offset("g", &src).unwrap(),
            None,
            "invisible while transaction is open"
        );
        c.txn_end("app", pid, epoch, true).unwrap();
        assert_eq!(c.group_committed_offset("g", &src).unwrap(), Some(10));
    }

    #[test]
    fn aborted_transactional_offsets_roll_back() {
        let c = cluster();
        c.create_topic("src", TopicConfig::new(1)).unwrap();
        let src = TopicPartition::new("src", 0);
        let (pid, epoch) = c.txn_init_producer("app", 60_000).unwrap();
        let offsets_tp = c.offsets_partition_for_group("g");
        // First, a committed offset at 5.
        c.txn_add_partitions("app", pid, epoch, std::slice::from_ref(&offsets_tp)).unwrap();
        c.group_txn_commit_offsets("g", &[(src, 5)], pid, epoch, None).unwrap();
        // Completion bumps the epoch; the next transaction adopts it.
        let epoch = c.txn_end("app", pid, epoch, true).unwrap();
        // Then an aborted attempt at 10.
        c.txn_add_partitions("app", pid, epoch, &[offsets_tp]).unwrap();
        c.group_txn_commit_offsets("g", &[(src, 10)], pid, epoch, None).unwrap();
        c.txn_end("app", pid, epoch, false).unwrap();
        assert_eq!(
            c.group_committed_offset("g", &src).unwrap(),
            Some(5),
            "offset rolls back to last committed transaction (§4.2.3)"
        );
    }

    #[test]
    fn groups_are_isolated() {
        let c = cluster();
        let v1 = c.group_join("g1", "m", &[]).unwrap();
        let tp = TopicPartition::new("t", 0);
        c.group_commit_offsets("g1", "m", v1.generation, &[(tp, 7)]).unwrap();
        assert_eq!(c.group_committed_offset("g2", &tp).unwrap(), None);
        assert_eq!(c.group_committed_offset("g1", &tp).unwrap(), Some(7));
    }
}
