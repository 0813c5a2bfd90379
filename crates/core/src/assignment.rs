//! Task assignment across application instances (§3.3).
//!
//! Every instance computes the same assignment from the *frozen* group view
//! of the current generation (sorted membership plus each member's reported
//! metadata), so no leader election is needed: the computation is a pure
//! function of inputs every member sees identically.
//!
//! The assignor is genuinely **sticky and balance-bounded**: a task stays
//! with its previous owner unless workload balance (task counts within ±1
//! across members) forces a move, so a single-member membership delta moves
//! at most `ceil(tasks / new_member_count)` tasks ("workload balance among
//! instances and task stickiness", §3.3). Historically this function was
//! positional round-robin (`i % members.len()`), which reshuffled nearly
//! every task on any membership change — the bug this module's tests pin
//! against regressing.
//!
//! [`plan_assignment`] layers **cooperative incremental rebalancing** on
//! top: when the sticky target moves a task between two live members, the
//! move is deferred — the previous owner keeps processing (and committing)
//! while the destination warms a standby replica — until the destination
//! reports the task *warm* (changelog replay lag under the configured
//! threshold). Only then does the task actually transfer, replaying just
//! the changelog suffix.

use crate::topology::TaskId;
use std::collections::{BTreeMap, BTreeSet};

/// Sticky, balance-bounded assignment: member → tasks.
///
/// Three deterministic phases:
/// 1. **Keep**: every surviving member retains its previously owned tasks
///    (first claimant in sorted member order wins a conflicting claim),
///    capped at `ceil(tasks / members)` — the excess is shed largest-id
///    first.
/// 2. **Place**: orphaned tasks (sorted) go to the least-loaded member,
///    member id breaking ties.
/// 3. **Balance**: while the load spread exceeds 1, move one task from the
///    most- to the least-loaded member, preferring tasks that phase 2
///    placed (they were moving anyway) over previously owned ones.
///
/// The result is balanced within ±1, disjoint, complete, and identical for
/// every instance computing it from the same inputs.
pub fn assign_tasks_sticky(
    tasks: &[TaskId],
    members: &[String],
    previous: &BTreeMap<String, Vec<TaskId>>,
) -> BTreeMap<String, Vec<TaskId>> {
    let mut ms: Vec<&String> = members.iter().collect();
    ms.sort();
    ms.dedup();
    if ms.is_empty() {
        return BTreeMap::new();
    }
    let mut ts: Vec<TaskId> = tasks.to_vec();
    ts.sort();
    ts.dedup();
    let task_set: BTreeSet<TaskId> = ts.iter().copied().collect();
    let cap = ts.len().div_ceil(ms.len());
    let mut claimed: BTreeSet<TaskId> = BTreeSet::new();
    // Phase 1: keep surviving previous ownership, capped at `cap`.
    let mut kept: BTreeMap<&str, Vec<TaskId>> = BTreeMap::new();
    for m in &ms {
        let mut keep: Vec<TaskId> = previous
            .get(m.as_str())
            .map(|owned| {
                owned
                    .iter()
                    .copied()
                    .filter(|t| task_set.contains(t) && !claimed.contains(t))
                    .collect()
            })
            .unwrap_or_default();
        keep.sort();
        keep.dedup();
        keep.truncate(cap);
        claimed.extend(keep.iter().copied());
        kept.insert(m.as_str(), keep);
    }
    // Phase 2: orphans to the least-loaded member (id breaks ties).
    let mut placed: BTreeMap<&str, Vec<TaskId>> =
        ms.iter().map(|m| (m.as_str(), Vec::new())).collect();
    for t in ts.iter().filter(|t| !claimed.contains(t)) {
        let target = ms
            .iter()
            .min_by_key(|m| (kept[m.as_str()].len() + placed[m.as_str()].len(), m.as_str()))
            .expect("non-empty members");
        placed.get_mut(target.as_str()).expect("initialized").push(*t);
    }
    // Phase 3: stickiness yields to balance — shrink the spread to ≤ 1.
    loop {
        let load = |m: &str| kept[m].len() + placed[m].len();
        let max_m = *ms.iter().max_by_key(|m| (load(m), m.as_str())).expect("non-empty");
        let min_m = *ms.iter().min_by_key(|m| (load(m), m.as_str())).expect("non-empty");
        if load(max_m) <= load(min_m) + 1 {
            break;
        }
        // Prefer moving a task phase 2 placed here (it had no sticky home);
        // otherwise shed the largest-id previously owned task.
        let moved = placed
            .get_mut(max_m.as_str())
            .expect("initialized")
            .pop()
            .or_else(|| kept.get_mut(max_m.as_str()).expect("initialized").pop())
            .expect("max-loaded member has tasks");
        placed.get_mut(min_m.as_str()).expect("initialized").push(moved);
    }
    ms.iter()
        .map(|m| {
            let mut owned = kept[m.as_str()].clone();
            owned.extend(placed[m.as_str()].iter().copied());
            owned.sort();
            ((*m).clone(), owned)
        })
        .collect()
}

/// The outcome of one generation's assignment computation: which tasks each
/// member runs *now*, which it should warm up for a deferred transfer, and
/// which it should hand over at its next commit boundary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AssignmentPlan {
    /// Member → tasks it actively processes this generation.
    pub active: BTreeMap<String, Vec<TaskId>>,
    /// Member → tasks it is the sticky *target* of but may not run yet: it
    /// hosts a warming standby and the previous owner keeps the task until
    /// the destination reports it warm.
    pub warmups: BTreeMap<String, Vec<TaskId>>,
    /// Member → tasks it still actively owns this generation but whose
    /// destination is warm: the owner commits, drops the task from its
    /// published ownership, and requests the handover rebalance. The next
    /// generation then places the (now unclaimed) task on the warm
    /// destination, which replays only the changelog suffix. Owner-initiated
    /// release is what keeps the transfer off the owner's in-flight work: a
    /// task is only ever taken from a *clean* owner.
    pub releases: BTreeMap<String, Vec<TaskId>>,
}

/// Compute the cooperative assignment plan for one generation.
///
/// `previous` is each member's reported task ownership and `warm` each
/// member's reported warm (replay lag ≤ threshold) tasks, both decoded from
/// the frozen group-view metadata — so every member computes the identical
/// plan.
///
/// A task whose sticky target differs from its (live) previous owner never
/// transfers outright: it stays active at the previous owner while the
/// destination warms a standby. Once the destination reports the task warm,
/// the owner is told to *release* it — commit, drop the claim, request the
/// handover generation — and only a task nobody claims lands on its
/// destination (which, being the warm claimant, is sticky-preferred for
/// it). Active sets are disjoint within a generation by construction — each
/// task is routed exactly once.
pub fn plan_assignment(
    tasks: &[TaskId],
    members: &[String],
    previous: &BTreeMap<String, Vec<TaskId>>,
    warm: &BTreeMap<String, BTreeSet<TaskId>>,
) -> AssignmentPlan {
    let member_set: BTreeSet<&str> = members.iter().map(String::as_str).collect();
    // First claimant in sorted member order wins a (transient) double claim.
    let mut prev_owner: BTreeMap<TaskId, &str> = BTreeMap::new();
    for (m, owned) in previous {
        if !member_set.contains(m.as_str()) {
            continue;
        }
        for t in owned {
            prev_owner.entry(*t).or_insert(m.as_str());
        }
    }
    // A task nobody owns but someone holds warm sticks to the warm holder:
    // this is both the release handover (the old owner just dropped its
    // claim in favour of the warm destination) and the standby-promotion
    // preference (an orphan goes to a member that already has the state).
    let mut claims: BTreeMap<String, Vec<TaskId>> = BTreeMap::new();
    for (m, owned) in previous {
        if member_set.contains(m.as_str()) {
            claims.entry(m.clone()).or_default().extend(owned.iter().copied());
        }
    }
    for (m, warm_tasks) in warm {
        if !member_set.contains(m.as_str()) {
            continue;
        }
        for t in warm_tasks {
            if !prev_owner.contains_key(t) {
                claims.entry(m.clone()).or_default().push(*t);
            }
        }
    }
    let target = assign_tasks_sticky(tasks, members, &claims);
    let mut plan = AssignmentPlan {
        active: target.keys().map(|m| (m.clone(), Vec::new())).collect(),
        warmups: BTreeMap::new(),
        releases: BTreeMap::new(),
    };
    for (m, assigned) in &target {
        for t in assigned {
            match prev_owner.get(t) {
                Some(po) if *po != m.as_str() => {
                    // Deferred move: the previous owner keeps processing
                    // (and, once the destination is warm, releases at its
                    // next commit boundary); the destination warms.
                    plan.active.get_mut(*po).expect("member present").push(*t);
                    plan.warmups.entry(m.clone()).or_default().push(*t);
                    if warm.get(m).is_some_and(|s| s.contains(t)) {
                        plan.releases.entry((*po).to_string()).or_default().push(*t);
                    }
                }
                _ => plan.active.get_mut(m).expect("member present").push(*t),
            }
        }
    }
    for v in plan.active.values_mut() {
        v.sort();
    }
    for v in plan.warmups.values_mut() {
        v.sort();
    }
    for v in plan.releases.values_mut() {
        v.sort();
    }
    plan
}

/// Encode an instance's group-membership metadata: owned tasks (`o:`) and
/// warm standby tasks (`w:`), sorted — the wire form carried by the broker's
/// frozen group view.
pub fn encode_member_metadata(owned: &[TaskId], warm: &[TaskId]) -> Vec<String> {
    let mut out: Vec<String> = owned.iter().map(|t| format!("o:{t}")).collect();
    out.extend(warm.iter().map(|t| format!("w:{t}")));
    out.sort();
    out
}

fn parse_task(s: &str) -> Option<TaskId> {
    let (sub, part) = s.split_once('_')?;
    Some(TaskId { subtopology: sub.parse().ok()?, partition: part.parse().ok()? })
}

/// Decode a whole group's frozen metadata into the assignor's inputs:
/// member → previously owned tasks, and member → warm tasks. Unknown
/// entries are ignored (forward compatibility).
pub fn decode_group_metadata(
    metadata: &BTreeMap<String, Vec<String>>,
) -> (BTreeMap<String, Vec<TaskId>>, BTreeMap<String, BTreeSet<TaskId>>) {
    let mut previous: BTreeMap<String, Vec<TaskId>> = BTreeMap::new();
    let mut warm: BTreeMap<String, BTreeSet<TaskId>> = BTreeMap::new();
    for (member, entries) in metadata {
        for e in entries {
            if let Some(rest) = e.strip_prefix("o:") {
                if let Some(t) = parse_task(rest) {
                    previous.entry(member.clone()).or_default().push(t);
                }
            } else if let Some(rest) = e.strip_prefix("w:") {
                if let Some(t) = parse_task(rest) {
                    warm.entry(member.clone()).or_default().insert(t);
                }
            }
        }
    }
    for v in previous.values_mut() {
        v.sort();
        v.dedup();
    }
    (previous, warm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tid(s: usize, p: u32) -> TaskId {
        TaskId { subtopology: s, partition: p }
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("m{i:03}")).collect()
    }

    fn moved(
        before: &BTreeMap<String, Vec<TaskId>>,
        after: &BTreeMap<String, Vec<TaskId>>,
    ) -> usize {
        let owner = |a: &BTreeMap<String, Vec<TaskId>>| -> BTreeMap<TaskId, String> {
            a.iter().flat_map(|(m, ts)| ts.iter().map(move |t| (*t, m.clone()))).collect()
        };
        let (b, a) = (owner(before), owner(after));
        a.iter().filter(|(t, m)| b.get(t).is_some_and(|prev| prev != *m)).count()
    }

    /// (tasks, members) cells for the stickiness bounds, up to fleet scale
    /// (100 members × 1000 tasks).
    fn cells() -> impl Iterator<Item = (Vec<TaskId>, Vec<String>)> {
        [1u32, 4, 7, 12, 20, 33, 100, 1000].into_iter().flat_map(|t| {
            [1usize, 2, 3, 5, 8, 10, 50, 100]
                .into_iter()
                .map(move |n| ((0..t).map(|p| tid(0, p)).collect(), names(n)))
        })
    }

    /// Every task is owned exactly once and loads differ by at most one.
    fn assert_balanced_and_complete(a: &BTreeMap<String, Vec<TaskId>>, tasks: &[TaskId]) {
        let mut all: Vec<TaskId> = a.values().flatten().copied().collect();
        all.sort();
        assert_eq!(all, tasks, "each task assigned exactly once");
        let loads: Vec<usize> = a.values().map(Vec::len).collect();
        let (min, max) = (loads.iter().min().unwrap(), loads.iter().max().unwrap());
        assert!(max - min <= 1, "±1 balance: loads {min}..{max}");
    }

    #[test]
    fn single_member_gets_all() {
        let tasks = vec![tid(0, 0), tid(0, 1), tid(1, 0)];
        let a = assign_tasks_sticky(&tasks, &["m1".into()], &BTreeMap::new());
        assert_eq!(a["m1"].len(), 3);
    }

    #[test]
    fn deterministic_regardless_of_input_order() {
        let tasks = vec![tid(1, 1), tid(0, 0), tid(0, 1), tid(1, 0)];
        let mut rev = tasks.clone();
        rev.reverse();
        let m1 = vec!["b".to_string(), "a".to_string()];
        let m2 = vec!["a".to_string(), "b".to_string()];
        let none = BTreeMap::new();
        assert_eq!(assign_tasks_sticky(&tasks, &m1, &none), assign_tasks_sticky(&rev, &m2, &none));
    }

    #[test]
    fn empty_members_yields_empty_map() {
        let a = assign_tasks_sticky(&[tid(0, 0)], &[], &BTreeMap::new());
        assert!(a.is_empty());
    }

    #[test]
    fn stable_when_membership_unchanged() {
        for (tasks, members) in cells() {
            let first = assign_tasks_sticky(&tasks, &members, &BTreeMap::new());
            assert_balanced_and_complete(&first, &tasks);
            let again = assign_tasks_sticky(&tasks, &members, &first);
            assert_eq!(first, again, "fixpoint: unchanged membership moves nothing");
        }
    }

    /// The pinned regression for the headline bug: round-robin moved ~all
    /// tasks on a one-member delta; the sticky assignor moves at most
    /// `ceil(tasks / new_member_count)`.
    #[test]
    fn one_member_delta_moves_at_most_ceil_tasks_over_members() {
        for (tasks, members) in cells() {
            let (n_tasks, n_members) = (tasks.len(), members.len());
            let before = assign_tasks_sticky(&tasks, &members, &BTreeMap::new());

            // Add one member.
            let mut grown = members.clone();
            grown.push(format!("m{n_members:03}"));
            let after = assign_tasks_sticky(&tasks, &grown, &before);
            assert_balanced_and_complete(&after, &tasks);
            let bound = n_tasks.div_ceil(grown.len());
            assert!(
                moved(&before, &after) <= bound,
                "add: {n_tasks} tasks {n_members}→{} members moved {} > {bound}",
                grown.len(),
                moved(&before, &after),
            );

            // Remove one member.
            if n_members > 1 {
                let shrunk = members[..n_members - 1].to_vec();
                let after = assign_tasks_sticky(&tasks, &shrunk, &before);
                assert_balanced_and_complete(&after, &tasks);
                let bound = n_tasks.div_ceil(shrunk.len());
                assert!(
                    moved(&before, &after) <= bound,
                    "remove: {n_tasks} tasks {n_members}→{} members moved {} > {bound}",
                    shrunk.len(),
                    moved(&before, &after),
                );
            }
        }
    }

    #[test]
    fn survivors_keep_their_tasks_on_member_leave() {
        for (tasks, members) in cells().filter(|(_, m)| m.len() > 1) {
            let before = assign_tasks_sticky(&tasks, &members, &BTreeMap::new());
            let departed = &members[members.len() / 2];
            let shrunk: Vec<String> = members.iter().filter(|m| *m != departed).cloned().collect();
            let after = assign_tasks_sticky(&tasks, &shrunk, &before);
            assert_balanced_and_complete(&after, &tasks);
            for m in &shrunk {
                for t in &before[m] {
                    assert!(after[m].contains(t), "{m} lost {t} it already owned");
                }
            }
        }
    }

    #[test]
    fn cooperative_plan_defers_moves_until_warm() {
        let tasks: Vec<TaskId> = (0..4).map(|p| tid(0, p)).collect();
        let members = vec!["a".to_string(), "b".to_string()];
        let previous: BTreeMap<String, Vec<TaskId>> =
            [("a".to_string(), tasks.clone()), ("b".to_string(), Vec::new())].into();
        // b is cold: the moved tasks stay active at a, b warms them.
        let cold = plan_assignment(&tasks, &members, &previous, &BTreeMap::new());
        assert_eq!(cold.active["a"].len(), 4, "previous owner keeps processing");
        assert!(cold.active["b"].is_empty());
        assert_eq!(cold.warmups["b"].len(), 2, "destination warms the sticky target");
        assert!(cold.releases.is_empty(), "nothing is warm yet — nothing to release");
        // b reports those tasks warm: the owner is told to release them at
        // its next commit boundary (the tasks stay active at a for now —
        // a move is never forced onto the owner's in-flight work).
        let warm: BTreeMap<String, BTreeSet<TaskId>> =
            [("b".to_string(), cold.warmups["b"].iter().copied().collect())].into();
        let hot = plan_assignment(&tasks, &members, &previous, &warm);
        assert_eq!(hot.active["a"].len(), 4, "owner keeps the tasks until it releases");
        assert!(hot.active["b"].is_empty());
        assert_eq!(hot.releases["a"], cold.warmups["b"], "owner releases what b warmed");
        assert_eq!(hot.warmups["b"], cold.warmups["b"], "b keeps warming until handover");
        // The owner committed and dropped its claim on the released tasks:
        // the handover generation places them on the warm claimant.
        let released: BTreeMap<String, Vec<TaskId>> = [
            (
                "a".to_string(),
                previous["a"].iter().filter(|t| !hot.releases["a"].contains(t)).copied().collect(),
            ),
            ("b".to_string(), Vec::new()),
        ]
        .into();
        let done = plan_assignment(&tasks, &members, &released, &warm);
        assert_eq!(done.active["a"].len(), 2);
        assert_eq!(done.active["b"], cold.warmups["b"], "b receives exactly what it warmed");
        assert!(done.warmups.is_empty());
        assert!(done.releases.is_empty());
    }

    #[test]
    fn departed_owner_transfers_without_warmup() {
        let tasks: Vec<TaskId> = (0..4).map(|p| tid(0, p)).collect();
        let members = vec!["b".to_string()];
        let previous: BTreeMap<String, Vec<TaskId>> = [("a".to_string(), tasks.clone())].into();
        let plan = plan_assignment(&tasks, &members, &previous, &BTreeMap::new());
        assert_eq!(plan.active["b"].len(), 4, "no live previous owner: immediate adoption");
        assert!(plan.warmups.is_empty());
    }

    #[test]
    fn plan_active_sets_are_disjoint_even_with_double_claims() {
        // Transient metadata overlap (a transfer raced a snapshot): both
        // members report owning task 0. The plan must route it exactly once.
        let tasks: Vec<TaskId> = (0..3).map(|p| tid(0, p)).collect();
        let members = vec!["a".to_string(), "b".to_string()];
        let previous: BTreeMap<String, Vec<TaskId>> = [
            ("a".to_string(), vec![tid(0, 0), tid(0, 1)]),
            ("b".to_string(), vec![tid(0, 0), tid(0, 2)]),
        ]
        .into();
        let plan = plan_assignment(&tasks, &members, &previous, &BTreeMap::new());
        let mut all: Vec<TaskId> = plan.active.values().flatten().copied().collect();
        all.sort();
        assert_eq!(all, tasks, "each task active exactly once");
    }

    #[test]
    fn metadata_round_trips() {
        let owned = vec![tid(0, 1), tid(2, 0)];
        let warm = vec![tid(1, 3)];
        let encoded = encode_member_metadata(&owned, &warm);
        let all: BTreeMap<String, Vec<String>> = [("m".to_string(), encoded)].into();
        let (prev, warm_out) = decode_group_metadata(&all);
        assert_eq!(prev["m"], owned);
        assert_eq!(warm_out["m"], warm.into_iter().collect::<BTreeSet<_>>());
    }

    proptest! {
        /// Any one-member membership delta from a converged assignment:
        /// minimal movement (≤ ceil(T / new_N)), balance within ±1, and
        /// determinism (all instances agree regardless of input order).
        #[test]
        fn prop_one_member_delta_minimal_movement(
            n_tasks in 1usize..40,
            n_members in 1usize..10,
            add in any::<bool>(),
            seed in 0u64..1000,
        ) {
            let tasks: Vec<TaskId> = (0..n_tasks as u32).map(|p| tid(0, p)).collect();
            let members = names(n_members);
            let before = assign_tasks_sticky(&tasks, &members, &BTreeMap::new());
            let new_members = if add {
                let mut m = members.clone();
                m.push(format!("m{n_members:03}"));
                m
            } else if n_members > 1 {
                let drop = (seed as usize) % n_members;
                members.iter().enumerate()
                    .filter(|(i, _)| *i != drop)
                    .map(|(_, m)| m.clone())
                    .collect()
            } else {
                members.clone()
            };
            let after = assign_tasks_sticky(&tasks, &new_members, &before);

            // Minimal movement.
            let bound = n_tasks.div_ceil(new_members.len());
            prop_assert!(moved(&before, &after) <= bound,
                "moved {} > ceil({n_tasks}/{}) = {bound}", moved(&before, &after), new_members.len());

            // Balance within ±1 (when there are enough tasks to go around
            // the spread can still be 0 or 1; with fewer tasks than members
            // some members legitimately hold 0 while others hold 1).
            let counts: Vec<usize> = after.values().map(Vec::len).collect();
            prop_assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1);

            // Complete and disjoint.
            let mut all: Vec<TaskId> = after.values().flatten().copied().collect();
            all.sort();
            prop_assert_eq!(&all, &tasks);

            // Determinism: shuffled input order changes nothing.
            let mut rev_tasks = tasks.clone();
            rev_tasks.reverse();
            let mut rev_members = new_members.clone();
            rev_members.reverse();
            let again = assign_tasks_sticky(&rev_tasks, &rev_members, &before);
            prop_assert_eq!(&after, &again);
        }
    }
}
