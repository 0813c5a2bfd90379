//! Standby tasks: warm state replicas for fast failover (§3.3).
//!
//! The paper notes that Kafka Streams aims for "task stickiness to minimize
//! the amount of state migration required"; the complementary mechanism in
//! Kafka Streams (and the enabler of its future-work goal of "consistent
//! state query serving", §8) is the **standby replica**: an instance that
//! does not own a task still tails the task's changelog topics into local
//! store copies. When a rebalance moves the active task to that instance,
//! only the un-replayed changelog *suffix* needs applying — instead of the
//! whole (compacted) changelog.
//!
//! A standby is pure replay: it never processes input records, never
//! produces, and never commits — so it has no effect on exactly-once
//! semantics. Its stores are disposable views like any other (§4).

use crate::error::StreamsError;
use crate::processor::StoreEntry;
use crate::task::{query_kv, replay_stores};
use crate::topology::{TaskId, Topology};
use kbroker::{Cluster, IsolationLevel};
use std::collections::{BTreeMap, HashMap};

/// A warm replica of one task's stores, fed by changelog tailing.
pub struct StandbyTask {
    pub id: TaskId,
    /// The task's store table ([`StoreEntry::table`]), each store's
    /// position the next changelog offset to apply.
    stores: Vec<StoreEntry>,
    /// Changelog records applied so far (metrics/tests).
    records_applied: u64,
}

impl StandbyTask {
    /// Create an empty standby for `id` with the sub-topology's stores.
    pub fn new(topology: &Topology, id: TaskId, app_id: &str) -> Result<Self, StreamsError> {
        Ok(Self { id, stores: StoreEntry::table(topology, id, app_id, 0)?, records_applied: 0 })
    }

    /// Tail the changelogs: apply all newly committed records. Returns how
    /// many were applied. A standby knows no committed input offsets, so
    /// it replays changelog-backed stores only.
    pub fn poll(
        &mut self,
        cluster: &Cluster,
        isolation: IsolationLevel,
    ) -> Result<u64, StreamsError> {
        let mut applied = 0;
        replay_stores(&mut self.stores, cluster, isolation, &HashMap::new(), &mut applied)?;
        self.records_applied += applied;
        Ok(applied)
    }

    /// Total changelog records applied over this standby's lifetime.
    pub fn records_applied(&self) -> u64 {
        self.records_applied
    }

    /// Changelog records not yet applied: the distance between this
    /// standby's positions and the changelog log-end offsets. The warm-up
    /// gate compares this against `KafkaStreamsApp::MAX_WARMUP_LAG` before
    /// allowing a deferred task transfer (KIP-441-style recovery lag).
    pub fn replay_lag(&self, cluster: &Cluster) -> i64 {
        let mut lag = 0;
        for entry in &self.stores {
            let Some(tp) = entry.changelog.filter(|tp| cluster.topic_exists(&tp.topic)) else {
                continue;
            };
            let start = entry.position.max(cluster.earliest_offset(&tp).unwrap_or(0));
            if let Ok(end) = cluster.latest_offset(&tp) {
                lag += (end - start).max(0);
            }
        }
        lag
    }

    /// Hand the warm store table to a task being promoted to active
    /// ([`StreamTask::adopt_warm_stores`](crate::task::StreamTask::adopt_warm_stores)).
    /// The promotion replays only the suffix past each store's position.
    pub fn into_stores(self) -> Vec<StoreEntry> {
        self.stores
    }

    /// Read a key from a standby KV store (remote-queryable replicas — the
    /// §8 future-work pattern).
    pub fn query_kv(&mut self, store: &str, key: &[u8]) -> Option<bytes::Bytes> {
        query_kv(&mut self.stores, store, key)
    }
}

/// Standby assignment, derived from the *actual* active assignment: each
/// task's standbys land on the `replicas` members after its active owner in
/// the sorted member ring — so a standby is never colocated with its active
/// task no matter how stickiness shaped the active placement.
pub fn assign_standbys(
    active: &BTreeMap<String, Vec<TaskId>>,
    replicas: usize,
) -> BTreeMap<String, Vec<TaskId>> {
    let members: Vec<&String> = active.keys().collect();
    let mut out: BTreeMap<String, Vec<TaskId>> =
        members.iter().map(|m| ((*m).clone(), Vec::new())).collect();
    let n = members.len();
    if n <= 1 || replicas == 0 {
        return out;
    }
    for (idx, (_, tasks)) in active.iter().enumerate() {
        for task in tasks {
            for r in 1..=replicas.min(n - 1) {
                let member = members[(idx + r) % n];
                out.get_mut(member.as_str()).expect("initialized").push(*task);
            }
        }
    }
    for v in out.values_mut() {
        v.sort();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(p: u32) -> TaskId {
        TaskId { subtopology: 0, partition: p }
    }

    fn actives_for(tasks: &[TaskId], members: &[String]) -> BTreeMap<String, Vec<TaskId>> {
        crate::assignment::assign_tasks_sticky(tasks, members, &BTreeMap::new())
    }

    #[test]
    fn no_standbys_with_single_member() {
        let actives = actives_for(&[tid(0), tid(1)], &["only".into()]);
        let a = assign_standbys(&actives, 1);
        assert!(a.values().all(Vec::is_empty));
    }

    #[test]
    fn standby_never_colocated_with_active() {
        let tasks: Vec<TaskId> = (0..6).map(tid).collect();
        let members = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let actives = actives_for(&tasks, &members);
        let standbys = assign_standbys(&actives, 1);
        for (member, stand) in &standbys {
            for t in stand {
                assert!(!actives[member].contains(t), "{member} hosts {t} both active and standby");
            }
        }
    }

    #[test]
    fn standby_follows_sticky_active_placement() {
        // A sticky (non-positional) active layout: all tasks on one member.
        let tasks: Vec<TaskId> = (0..4).map(tid).collect();
        let actives: BTreeMap<String, Vec<TaskId>> =
            [("a".to_string(), tasks.clone()), ("b".to_string(), Vec::new())].into();
        let standbys = assign_standbys(&actives, 1);
        assert!(standbys["a"].is_empty(), "owner never hosts its own standby");
        assert_eq!(standbys["b"], tasks, "standbys land on the other member");
    }

    #[test]
    fn each_task_gets_requested_replicas() {
        let tasks: Vec<TaskId> = (0..5).map(tid).collect();
        let members = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let standbys = assign_standbys(&actives_for(&tasks, &members), 2);
        let mut per_task: BTreeMap<TaskId, usize> = BTreeMap::new();
        for stand in standbys.values() {
            for t in stand {
                *per_task.entry(*t).or_default() += 1;
            }
        }
        for t in &tasks {
            assert_eq!(per_task[t], 2);
        }
    }

    #[test]
    fn replicas_clamped_to_cluster_size() {
        let actives = actives_for(&[tid(0)], &["a".to_string(), "b".to_string()]);
        let standbys = assign_standbys(&actives, 5);
        let total: usize = standbys.values().map(Vec::len).sum();
        assert_eq!(total, 1, "only one other member exists");
    }
}
