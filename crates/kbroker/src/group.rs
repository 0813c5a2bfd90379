//! Consumer groups and durable progress tracking (§3.1, §4.2.3).
//!
//! "Kafka consumer groups handle task assignment, rebalancing due to
//! membership changes, and durable progress tracking." Progress (committed
//! offsets) is stored as appends to the internal `__consumer_offsets` topic.
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
use crate::topic::{partition_for_key, TopicPartition};
use crate::OFFSETS_TOPIC;
use bytes::Bytes;
use klog::batch::BatchMeta;
use klog::{IsolationLevel, Offset, Record};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Default member session timeout: members that have not heartbeated (via
/// [`Cluster::group_view`]) for this long are evicted by
/// [`Cluster::group_expire_members`].
pub const SESSION_TIMEOUT_MS: i64 = 30_000;

#[derive(Debug, Clone)]
struct MemberInfo {
    subscribed: BTreeSet<String>,
    last_seen_ms: i64,
    /// Opaque client metadata (streams-layer assignors encode task
    /// ownership and standby warm-up readiness here). Updated live via
    /// [`Cluster::group_update_metadata`]; snapshotted into the frozen view
    /// at each rebalance.
    metadata: Vec<String>,
}

/// Partition assignment strategy for a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssignmentStrategy {
    /// Contiguous per-topic chunks in member order.
    #[default]
    Range,
    /// Keep existing member→partition pairs where possible; only orphaned
    /// partitions move, to the least-loaded members (minimizes state
    /// migration for plain consumers, the same goal as §3.3's task
    /// stickiness).
    Sticky,
}

#[derive(Debug, Default)]
struct GroupState {
    generation: i32,
    members: BTreeMap<String, MemberInfo>,
    assignment: HashMap<String, Vec<TopicPartition>>,
    strategy: AssignmentStrategy,
    /// Member ids frozen at the last generation bump. Views expose this
    /// snapshot (not the live set), so every member of generation G
    /// computes its assignment from identical inputs even while later
    /// joins are being debounced.
    frozen_members: Vec<String>,
    /// Member metadata frozen alongside `frozen_members`.
    frozen_metadata: BTreeMap<String, Vec<String>>,
    /// Coalescing window for join/request-triggered rebalances (0 = bump
    /// immediately, the historical behavior). Leaves and expirations always
    /// rebalance immediately.
    debounce_ms: i64,
    /// Virtual-clock instant the first pending (debounced) trigger arrived;
    /// the rebalance fires once `now - pending_since >= debounce_ms`.
    pending_since: Option<i64>,
}

/// A member's view of its group after a join or poll-time check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupView {
    pub generation: i32,
    /// Member ids frozen at this generation's rebalance, sorted
    /// (streams-layer assignors use this).
    pub members: Vec<String>,
    /// Each frozen member's metadata at the rebalance instant — the shared
    /// input from which streams-layer assignors recover previous task
    /// ownership and warm-up readiness.
    pub member_metadata: BTreeMap<String, Vec<String>>,
    /// Partitions assigned to *this* member.
    pub assignment: Vec<TopicPartition>,
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
    /// Latest committed offset per (group, partition), for groups whose
    /// commits land on this shard's offsets partition.
    offsets: HashMap<(String, TopicPartition), Offset>,
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

fn encode_offset_key(group: &str, tp: &TopicPartition) -> Bytes {
    Bytes::from(format!("{group}\u{0}{}\u{0}{}", tp.topic, tp.partition))
}

fn decode_offset_key(key: &[u8]) -> Option<(String, TopicPartition)> {
    let s = std::str::from_utf8(key).ok()?;
    let mut it = s.split('\u{0}');
    let group = it.next()?.to_string();
    let topic = it.next()?;
    let partition = it.next()?.parse().ok()?;
    Some((group, TopicPartition::new(topic, partition)))
}

/// Sticky assignment: start from the previous assignment, drop entries for
/// departed members and unsubscribed topics, then hand every unassigned
/// partition to the least-loaded subscribed member.
fn sticky_assign(
    previous: &HashMap<String, Vec<TopicPartition>>,
    members: &BTreeMap<String, MemberInfo>,
    topics: &BTreeSet<String>,
    partition_count: impl Fn(&str) -> Option<u32>,
) -> HashMap<String, Vec<TopicPartition>> {
    let mut assignment: HashMap<String, Vec<TopicPartition>> =
        members.keys().map(|m| (m.clone(), Vec::new())).collect();
    let mut taken: BTreeSet<TopicPartition> = BTreeSet::new();
    // Phase 1: keep what survives.
    // Prior assignments are disjoint per partition, so visit order cannot
    // change which member keeps a partition.
    // detlint:allow[unordered-iter] disjoint per partition; order-insensitive
    for (member, parts) in previous {
        let Some(info) = members.get(member) else { continue };
        for tp in parts {
            if info.subscribed.contains(&tp.topic) && !taken.contains(tp) {
                assignment.get_mut(member).expect("initialized").push(tp.clone());
                taken.insert(tp.clone());
            }
        }
    }
    // Phase 2: place orphans on the least-loaded subscribed member
    // (member-id order breaks ties, so the result is deterministic).
    for topic in topics {
        let Some(nparts) = partition_count(topic) else { continue };
        for p in 0..nparts {
            let tp = TopicPartition::new(topic.as_str(), p);
            if taken.contains(&tp) {
                continue;
            }
            let target = members
                .iter()
                .filter(|(_, i)| i.subscribed.contains(topic))
                .map(|(m, _)| m)
                .min_by_key(|m| (assignment[m.as_str()].len(), m.as_str()))
                .cloned();
            if let Some(member) = target {
                assignment.get_mut(&member).expect("initialized").push(tp.clone());
                taken.insert(tp);
            }
        }
    }
    // Rebalance gross imbalance: move partitions from the most- to the
    // least-loaded member until within one (stickiness yields to balance,
    // same priority order Kafka's sticky assignor uses).
    while let Some((max_m, max_n)) = assignment
        .iter()
        .max_by_key(|(m, v)| (v.len(), m.as_str()))
        .map(|(m, v)| (m.clone(), v.len()))
    {
        let (min_m, min_n) = assignment
            .iter()
            .min_by_key(|(m, v)| (v.len(), m.as_str()))
            .map(|(m, v)| (m.clone(), v.len()))
            .expect("non-empty: a max exists");
        if max_n <= min_n + 1 {
            break;
        }
        let moved = assignment.get_mut(&max_m).expect("present").pop().expect("non-empty");
        assignment.get_mut(&min_m).expect("present").push(moved);
    }
    assignment
}

/// Range assignment: per topic, contiguous partition chunks to subscribed
/// members in member-id order.
fn range_assign(
    members: &BTreeMap<String, MemberInfo>,
    topics: &BTreeSet<String>,
    partition_count: impl Fn(&str) -> Option<u32>,
) -> HashMap<String, Vec<TopicPartition>> {
    let mut assignment: HashMap<String, Vec<TopicPartition>> =
        members.keys().map(|m| (m.clone(), Vec::new())).collect();
    for topic in topics {
        let Some(nparts) = partition_count(topic) else { continue };
        let subscribed: Vec<&String> =
            members.iter().filter(|(_, i)| i.subscribed.contains(topic)).map(|(m, _)| m).collect();
        if subscribed.is_empty() {
            continue;
        }
        let n = subscribed.len() as u32;
        let per = nparts / n;
        let extra = nparts % n;
        let mut next = 0u32;
        for (i, member) in subscribed.iter().enumerate() {
            let take = per + if (i as u32) < extra { 1 } else { 0 };
            for p in next..next + take {
                assignment
                    .get_mut(*member)
                    .expect("initialized above")
                    .push(TopicPartition::new(topic.as_str(), p));
            }
            next += take;
        }
    }
    assignment
}

impl Cluster {
    fn rebalance(&self, state: &mut GroupState) {
        state.generation += 1;
        state.pending_since = None;
        // Freeze the membership and metadata for this generation: every
        // member's view of generation G carries this exact snapshot, so
        // leaderless assignors compute from identical inputs even while
        // later joins are still being debounced.
        state.frozen_members = state.members.keys().cloned().collect();
        state.frozen_metadata =
            state.members.iter().map(|(m, i)| (m.clone(), i.metadata.clone())).collect();
        kobs::count("kbroker.group.rebalances", 1);
        kobs::event!(
            self.now_ms(),
            "kbroker.group",
            "rebalance",
            generation = state.generation,
            members = state.members.len(),
        );
        let topics: BTreeSet<String> =
            state.members.values().flat_map(|m| m.subscribed.iter().cloned()).collect();
        state.assignment = match state.strategy {
            AssignmentStrategy::Range => {
                range_assign(&state.members, &topics, |t| self.partition_count(t).ok())
            }
            AssignmentStrategy::Sticky => {
                sticky_assign(&state.assignment, &state.members, &topics, |t| {
                    self.partition_count(t).ok()
                })
            }
        };
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
            kobs::count("kbroker.group.rebalances_deferred", 1);
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

    fn view_for(state: &GroupState, member: &str) -> GroupView {
        GroupView {
            generation: state.generation,
            members: state.frozen_members.clone(),
            member_metadata: state.frozen_metadata.clone(),
            assignment: state.assignment.get(member).cloned().unwrap_or_default(),
        }
    }

    /// Set a group's assignment strategy (takes effect on the next
    /// rebalance). Creates the group if it does not exist yet.
    pub fn group_set_strategy(&self, group: &str, strategy: AssignmentStrategy) {
        let mut groups = self.inner.groups.stripe(group).lock();
        groups.entry(group.to_string()).or_default().strategy = strategy;
    }

    /// Force a rebalance of the group with its current membership: the
    /// generation is bumped and partitions reassigned, so every member's
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

    /// Join (or re-join) a group, triggering a rebalance (immediately, or
    /// after the group's debounce window). Returns the member's view.
    pub fn group_join(
        &self,
        group: &str,
        member: &str,
        topics: &[String],
    ) -> Result<GroupView, BrokerError> {
        self.group_join_with_metadata(group, member, topics, &[])
    }

    /// [`Self::group_join`] carrying client metadata (streams assignors
    /// encode previous task ownership here). With a debounce window
    /// configured, back-to-back joins coalesce into one generation bump;
    /// the view returned to a still-pending joiner carries the *previous*
    /// generation's frozen membership (which may not include the joiner
    /// yet).
    pub fn group_join_with_metadata(
        &self,
        group: &str,
        member: &str,
        topics: &[String],
        metadata: &[String],
    ) -> Result<GroupView, BrokerError> {
        let now = self.now_ms();
        let mut groups = self.inner.groups.stripe(group).lock();
        let state = groups.entry(group.to_string()).or_default();
        state.members.insert(
            member.to_string(),
            MemberInfo {
                subscribed: topics.iter().cloned().collect(),
                last_seen_ms: now,
                metadata: metadata.to_vec(),
            },
        );
        self.trigger_rebalance(state, now);
        Ok(Self::view_for(state, member))
    }

    /// Update a member's metadata in place — no generation bump, no
    /// re-assignment. The new metadata becomes visible to assignors at the
    /// *next* rebalance, when it is frozen into the group view.
    pub fn group_update_metadata(
        &self,
        group: &str,
        member: &str,
        metadata: &[String],
    ) -> Result<(), BrokerError> {
        let mut groups = self.inner.groups.stripe(group).lock();
        let state = groups.get_mut(group).ok_or_else(|| BrokerError::UnknownMember {
            group: group.to_string(),
            member: member.to_string(),
        })?;
        let info = state.members.get_mut(member).ok_or_else(|| BrokerError::UnknownMember {
            group: group.to_string(),
            member: member.to_string(),
        })?;
        info.metadata = metadata.to_vec();
        Ok(())
    }

    /// A member asks for a rebalance (e.g. a streams instance whose warming
    /// standby caught up and wants the deferred task transfer to happen).
    /// Honors the group's debounce window like a join does.
    pub fn group_request_rebalance(&self, group: &str, member: &str) -> Result<(), BrokerError> {
        let now = self.now_ms();
        let mut groups = self.inner.groups.stripe(group).lock();
        let state = groups.get_mut(group).ok_or_else(|| BrokerError::UnknownMember {
            group: group.to_string(),
            member: member.to_string(),
        })?;
        if !state.members.contains_key(member) {
            return Err(BrokerError::UnknownMember {
                group: group.to_string(),
                member: member.to_string(),
            });
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
        let state = groups.get_mut(group).ok_or_else(|| BrokerError::UnknownMember {
            group: group.to_string(),
            member: member.to_string(),
        })?;
        if state.members.remove(member).is_none() {
            return Err(BrokerError::UnknownMember {
                group: group.to_string(),
                member: member.to_string(),
            });
        }
        self.rebalance(state);
        Ok(())
    }

    /// Poll-time check-in: refreshes the member's heartbeat and returns the
    /// current view (the consumer compares generations to detect a
    /// rebalance). Errors if the member was evicted.
    pub fn group_view(&self, group: &str, member: &str) -> Result<GroupView, BrokerError> {
        let now = self.now_ms();
        let mut groups = self.inner.groups.stripe(group).lock();
        let state = groups.get_mut(group).ok_or_else(|| BrokerError::UnknownMember {
            group: group.to_string(),
            member: member.to_string(),
        })?;
        let info = state.members.get_mut(member).ok_or_else(|| BrokerError::UnknownMember {
            group: group.to_string(),
            member: member.to_string(),
        })?;
        info.last_seen_ms = now;
        // Heartbeats drive the debounce clock: an overdue coalesced
        // rebalance fires on the next check-in.
        self.fire_pending_rebalance(state, now);
        Ok(Self::view_for(state, member))
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
        self.inner.groups.stripe(group).lock().get(group).map_or(0, |s| s.generation)
    }

    fn check_generation(
        &self,
        group: &str,
        member: &str,
        generation: i32,
    ) -> Result<(), BrokerError> {
        let groups = self.inner.groups.stripe(group).lock();
        let state = groups.get(group).ok_or_else(|| BrokerError::UnknownMember {
            group: group.to_string(),
            member: member.to_string(),
        })?;
        if !state.members.contains_key(member) {
            return Err(BrokerError::UnknownMember {
                group: group.to_string(),
                member: member.to_string(),
            });
        }
        if state.generation != generation {
            return Err(BrokerError::IllegalGeneration {
                group: group.to_string(),
                expected: state.generation,
                got: generation,
            });
        }
        Ok(())
    }

    fn offset_records(&self, group: &str, offsets: &[(TopicPartition, Offset)]) -> Vec<Record> {
        let ts = self.now_ms();
        offsets
            .iter()
            .map(|(tp, off)| Record {
                key: Some(encode_offset_key(group, tp)),
                value: Some(Bytes::from(off.to_string())),
                timestamp: ts,
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
        let tp = TopicPartition::new(OFFSETS_TOPIC, self.inner.groups.offsets_partition_for(group));
        self.produce(&tp, BatchMeta::plain(), self.offset_records(group, offsets))?;
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
        let tp = TopicPartition::new(OFFSETS_TOPIC, self.inner.groups.offsets_partition_for(group));
        let meta = BatchMeta {
            producer_id,
            producer_epoch,
            base_sequence: klog::NO_SEQUENCE,
            transactional: true,
            control: None,
        };
        self.produce(&tp, meta, self.offset_records(group, offsets))?;
        Ok(())
    }

    /// The offsets-topic partition a group's commits land on (needed by the
    /// producer client to register it in the transaction).
    pub fn offsets_partition_for_group(&self, group: &str) -> TopicPartition {
        TopicPartition::new(OFFSETS_TOPIC, self.inner.groups.offsets_partition_for(group))
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
        let log_tp = TopicPartition::new(OFFSETS_TOPIC, part);
        // Per-partition cache shard: readers of groups on different offsets
        // partitions materialize concurrently without sharing a lock.
        let mut cache = self.inner.groups.cache[part as usize].lock();
        let mut pos = cache.position;
        loop {
            let fetch = self.fetch(&log_tp, pos, 1024, IsolationLevel::ReadCommitted)?;
            if fetch.count() == 0 && fetch.next_offset == pos {
                break;
            }
            for (_, rec) in fetch.records() {
                let (Some(k), Some(v)) = (&rec.key, &rec.value) else { continue };
                let Some((g, tp)) = decode_offset_key(k) else { continue };
                let Ok(off) = std::str::from_utf8(v).unwrap_or("").parse::<Offset>() else {
                    continue;
                };
                cache.offsets.insert((g, tp), off);
            }
            pos = fetch.next_offset;
        }
        cache.position = pos;
        Ok(cache.offsets.get(&(group.to_string(), tp.clone())).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topic::TopicConfig;

    fn cluster() -> Cluster {
        Cluster::builder().brokers(3).replication(3).build()
    }

    #[test]
    fn offset_key_round_trip() {
        let tp = TopicPartition::new("orders", 7);
        let key = encode_offset_key("g1", &tp);
        assert_eq!(decode_offset_key(&key), Some(("g1".to_string(), tp)));
    }

    #[test]
    fn join_assigns_all_partitions_to_sole_member() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(4)).unwrap();
        let v = c.group_join("g", "m1", &["t".to_string()]).unwrap();
        assert_eq!(v.generation, 1);
        assert_eq!(v.assignment.len(), 4);
        assert_eq!(v.members, vec!["m1".to_string()]);
    }

    #[test]
    fn second_member_triggers_rebalance_and_splits() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(4)).unwrap();
        c.group_join("g", "m1", &["t".to_string()]).unwrap();
        let v2 = c.group_join("g", "m2", &["t".to_string()]).unwrap();
        assert_eq!(v2.generation, 2);
        assert_eq!(v2.assignment.len(), 2);
        let v1 = c.group_view("g", "m1").unwrap();
        assert_eq!(v1.assignment.len(), 2);
        // Disjoint and complete.
        let mut all: Vec<TopicPartition> =
            v1.assignment.iter().chain(v2.assignment.iter()).cloned().collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn uneven_split_gives_extra_to_first_members() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(5)).unwrap();
        c.group_join("g", "a", &["t".to_string()]).unwrap();
        c.group_join("g", "b", &["t".to_string()]).unwrap();
        let va = c.group_view("g", "a").unwrap();
        let vb = c.group_view("g", "b").unwrap();
        assert_eq!(va.assignment.len(), 3);
        assert_eq!(vb.assignment.len(), 2);
    }

    #[test]
    fn leave_redistributes() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(2)).unwrap();
        c.group_join("g", "a", &["t".to_string()]).unwrap();
        c.group_join("g", "b", &["t".to_string()]).unwrap();
        c.group_leave("g", "a").unwrap();
        let vb = c.group_view("g", "b").unwrap();
        assert_eq!(vb.assignment.len(), 2);
        assert_eq!(vb.generation, 3);
    }

    #[test]
    fn commit_and_fetch_offsets() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let v = c.group_join("g", "m", &["t".to_string()]).unwrap();
        let tp = TopicPartition::new("t", 0);
        assert_eq!(c.group_committed_offset("g", &tp).unwrap(), None);
        c.group_commit_offsets("g", "m", v.generation, &[(tp.clone(), 42)]).unwrap();
        assert_eq!(c.group_committed_offset("g", &tp).unwrap(), Some(42));
        c.group_commit_offsets("g", "m", v.generation, &[(tp.clone(), 100)]).unwrap();
        assert_eq!(c.group_committed_offset("g", &tp).unwrap(), Some(100));
    }

    #[test]
    fn stale_generation_commit_rejected() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let v1 = c.group_join("g", "m1", &["t".to_string()]).unwrap();
        c.group_join("g", "m2", &["t".to_string()]).unwrap(); // bumps generation
        let tp = TopicPartition::new("t", 0);
        assert!(matches!(
            c.group_commit_offsets("g", "m1", v1.generation, &[(tp, 5)]),
            Err(BrokerError::IllegalGeneration { .. })
        ));
    }

    #[test]
    fn evicted_member_commit_rejected() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let v = c.group_join("g", "m", &["t".to_string()]).unwrap();
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
        c.create_topic("t", TopicConfig::new(2)).unwrap();
        c.group_join("g", "a", &["t".to_string()]).unwrap();
        c.group_join("g", "b", &["t".to_string()]).unwrap();
        clock.advance(SESSION_TIMEOUT_MS / 2);
        c.group_view("g", "a").unwrap(); // a heartbeats, b stays silent
        clock.advance(SESSION_TIMEOUT_MS / 2 + 1);
        let evicted = c.group_expire_members("g");
        assert_eq!(evicted, vec!["b".to_string()]);
        let va = c.group_view("g", "a").unwrap();
        assert_eq!(va.assignment.len(), 2, "a inherits b's partitions");
    }

    #[test]
    fn simultaneous_joins_coalesce_into_one_generation_bump() {
        let clock = simkit::ManualClock::new();
        let c = Cluster::builder().brokers(1).replication(1).clock(clock.shared()).build();
        c.create_topic("t", TopicConfig::new(6)).unwrap();
        c.group_set_rebalance_debounce_ms("g", 50);
        // Three back-to-back joins inside the window: zero bumps yet.
        for m in ["a", "b", "c"] {
            c.group_join("g", m, &["t".to_string()]).unwrap();
        }
        assert_eq!(c.group_generation("g"), 0, "joins are pending inside the window");
        clock.advance(50);
        let v = c.group_view("g", "a").unwrap();
        assert_eq!(v.generation, 1, "exactly one bump for the whole burst");
        assert_eq!(v.members, vec!["a".to_string(), "b".to_string(), "c".to_string()]);
        assert_eq!(v.assignment.len(), 2, "all three members were assigned together");
    }

    #[test]
    fn undebounced_group_keeps_immediate_rebalances() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(4)).unwrap();
        c.group_join("g", "a", &["t".to_string()]).unwrap();
        let v = c.group_join("g", "b", &["t".to_string()]).unwrap();
        assert_eq!(v.generation, 2, "no window configured: every join bumps");
    }

    #[test]
    fn leave_fires_immediately_even_with_debounce() {
        let clock = simkit::ManualClock::new();
        let c = Cluster::builder().brokers(1).replication(1).clock(clock.shared()).build();
        c.create_topic("t", TopicConfig::new(2)).unwrap();
        c.group_join("g", "a", &["t".to_string()]).unwrap();
        c.group_join("g", "b", &["t".to_string()]).unwrap();
        c.group_set_rebalance_debounce_ms("g", 1000);
        c.group_leave("g", "b").unwrap();
        let v = c.group_view("g", "a").unwrap();
        assert_eq!(v.generation, 3, "leave is not debounced");
        assert_eq!(v.members, vec!["a".to_string()]);
    }

    #[test]
    fn metadata_is_frozen_until_the_next_rebalance() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        c.group_join_with_metadata("g", "m", &["t".to_string()], &["o:0_0".to_string()]).unwrap();
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
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let v = c.group_join("g", "m", &["t".to_string()]).unwrap();
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
        c.group_txn_commit_offsets("g", &[(src.clone(), 10)], pid, epoch, None).unwrap();
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
        c.group_txn_commit_offsets("g", &[(src.clone(), 5)], pid, epoch, None).unwrap();
        // Completion bumps the epoch; the next transaction adopts it.
        let epoch = c.txn_end("app", pid, epoch, true).unwrap();
        // Then an aborted attempt at 10.
        c.txn_add_partitions("app", pid, epoch, &[offsets_tp]).unwrap();
        c.group_txn_commit_offsets("g", &[(src.clone(), 10)], pid, epoch, None).unwrap();
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
        c.create_topic("t", TopicConfig::new(1)).unwrap();
        let v1 = c.group_join("g1", "m", &["t".to_string()]).unwrap();
        let tp = TopicPartition::new("t", 0);
        c.group_commit_offsets("g1", "m", v1.generation, &[(tp.clone(), 7)]).unwrap();
        assert_eq!(c.group_committed_offset("g2", &tp).unwrap(), None);
        assert_eq!(c.group_committed_offset("g1", &tp).unwrap(), Some(7));
    }
}

#[cfg(test)]
mod sticky_tests {
    use super::*;
    use crate::topic::TopicConfig;

    fn cluster() -> Cluster {
        Cluster::builder().brokers(1).replication(1).build()
    }

    fn assignment_of(c: &Cluster, group: &str, member: &str) -> Vec<TopicPartition> {
        let mut a = c.group_view(group, member).unwrap().assignment;
        a.sort();
        a
    }

    #[test]
    fn sticky_keeps_partitions_on_member_join() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(4)).unwrap();
        c.group_set_strategy("g", AssignmentStrategy::Sticky);
        c.group_join("g", "a", &["t".to_string()]).unwrap();
        let before = assignment_of(&c, "g", "a");
        assert_eq!(before.len(), 4);
        // b joins: a must keep exactly 2 of its ORIGINAL partitions (sticky
        // yields to balance but moves the minimum).
        c.group_join("g", "b", &["t".to_string()]).unwrap();
        let a_after = assignment_of(&c, "g", "a");
        let b_after = assignment_of(&c, "g", "b");
        assert_eq!(a_after.len(), 2);
        assert_eq!(b_after.len(), 2);
        assert!(a_after.iter().all(|tp| before.contains(tp)), "a kept its own partitions");
    }

    #[test]
    fn sticky_moves_only_departed_members_partitions() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(6)).unwrap();
        c.group_set_strategy("g", AssignmentStrategy::Sticky);
        c.group_join("g", "a", &["t".to_string()]).unwrap();
        c.group_join("g", "b", &["t".to_string()]).unwrap();
        c.group_join("g", "c", &["t".to_string()]).unwrap();
        let a_before = assignment_of(&c, "g", "a");
        let b_before = assignment_of(&c, "g", "b");
        c.group_leave("g", "c").unwrap();
        let a_after = assignment_of(&c, "g", "a");
        let b_after = assignment_of(&c, "g", "b");
        assert!(a_before.iter().all(|tp| a_after.contains(tp)), "a kept everything it had");
        assert!(b_before.iter().all(|tp| b_after.contains(tp)), "b kept everything it had");
        assert_eq!(a_after.len() + b_after.len(), 6, "orphans redistributed");
        assert!(a_after.len().abs_diff(b_after.len()) <= 1, "balanced");
    }

    #[test]
    fn sticky_assignment_is_complete_and_disjoint() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(7)).unwrap();
        c.group_set_strategy("g", AssignmentStrategy::Sticky);
        for m in ["a", "b", "c"] {
            c.group_join("g", m, &["t".to_string()]).unwrap();
        }
        let mut all: Vec<TopicPartition> =
            ["a", "b", "c"].iter().flat_map(|m| assignment_of(&c, "g", m)).collect();
        all.sort();
        let len = all.len();
        all.dedup();
        assert_eq!(all.len(), len, "disjoint");
        assert_eq!(all.len(), 7, "complete");
    }

    #[test]
    fn range_remains_the_default() {
        let c = cluster();
        c.create_topic("t", TopicConfig::new(4)).unwrap();
        c.group_join("g", "a", &["t".to_string()]).unwrap();
        c.group_join("g", "b", &["t".to_string()]).unwrap();
        // Range gives contiguous chunks.
        assert_eq!(
            assignment_of(&c, "g", "a"),
            vec![TopicPartition::new("t", 0), TopicPartition::new("t", 1)]
        );
    }
}
