//! Property-based tests for the broker cluster: exactly-once under random
//! fault injection, replication consistency across failovers, and the group
//! coordinator's membership and generation contract.

use bytes::Bytes;
use kbroker::group::{GroupView, SESSION_TIMEOUT_MS};
use kbroker::producer::{Producer, ProducerConfig};
use kbroker::{Cluster, IsolationLevel, Topic, TopicConfig, TopicPartition};
use proptest::prelude::*;
use simkit::{FaultPlan, FaultPoint};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

fn all_records(cluster: &Cluster, topic: &str, iso: IsolationLevel) -> Vec<(Bytes, Bytes)> {
    let mut out = Vec::new();
    for tp in cluster.partitions_of(topic).unwrap() {
        let mut pos = cluster.earliest_offset(&tp).unwrap();
        loop {
            let f = cluster.fetch(&tp, pos, usize::MAX, iso).unwrap();
            if f.count() == 0 && f.next_offset == pos {
                break;
            }
            for (_, r) in f.records() {
                out.push((r.key.clone().unwrap_or_default(), r.value.clone().unwrap_or_default()));
            }
            pos = f.next_offset;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Idempotent producers deliver each record exactly once no matter what
    /// combination of ack losses and request losses the network throws at
    /// them (§2.1 → §4.1).
    #[test]
    fn idempotent_producer_exactly_once_under_faults(
        seed in 0u64..1000,
        ack_loss in 0.0f64..0.5,
        req_loss in 0.0f64..0.3,
        n in 1usize..60,
    ) {
        let faults = FaultPlan::seeded(seed)
            .with_ack_loss(FaultPoint::ProduceAckLost, ack_loss)
            .with_request_loss(FaultPoint::ProduceAckLost, req_loss);
        let cluster = Cluster::builder().brokers(1).replication(1).faults(faults).build();
        cluster.create_topic("t", TopicConfig::new(2)).unwrap();
        let mut p = Producer::new(
            cluster.clone(),
            ProducerConfig { max_retries: 100, ..ProducerConfig::idempotent_only() },
        );
        for i in 0..n {
            p.send(
                "t",
                Some(Bytes::from(format!("k{}", i % 5))),
                Some(Bytes::from(format!("v{i}"))),
                i as i64,
            ).unwrap();
        }
        p.flush().unwrap();
        let got = all_records(&cluster, "t", IsolationLevel::ReadUncommitted);
        prop_assert_eq!(got.len(), n, "exactly one copy of each record");
        // All distinct payloads present.
        let mut values: Vec<&Bytes> = got.iter().map(|(_, v)| v).collect();
        values.sort();
        values.dedup();
        prop_assert_eq!(values.len(), n);
    }

    /// Without idempotence, the same fault patterns produce at-least-once:
    /// never fewer records than sent (sanity check of the fault model).
    #[test]
    fn plain_producer_at_least_once_under_ack_loss(
        seed in 0u64..1000,
        ack_loss in 0.0f64..0.5,
        n in 1usize..40,
    ) {
        let faults =
            FaultPlan::seeded(seed).with_ack_loss(FaultPoint::ProduceAckLost, ack_loss);
        let cluster = Cluster::builder().brokers(1).replication(1).faults(faults).build();
        cluster.create_topic("t", TopicConfig::new(1)).unwrap();
        let mut p = Producer::new(
            cluster.clone(),
            ProducerConfig { max_retries: 100, ..ProducerConfig::at_least_once() },
        );
        for i in 0..n {
            p.send("t", Some(Bytes::from_static(b"k")), Some(Bytes::from(format!("v{i}"))), 0)
                .unwrap();
        }
        p.flush().unwrap();
        let got = all_records(&cluster, "t", IsolationLevel::ReadUncommitted);
        prop_assert!(got.len() >= n, "at-least-once: {} >= {n}", got.len());
    }

    /// Data survives any sequence of broker kills/restores that leaves at
    /// least one replica alive at each step.
    #[test]
    fn replication_tolerates_failover_sequences(
        kills in prop::collection::vec(0usize..3, 1..8),
        n in 1usize..30,
    ) {
        let cluster = Cluster::builder().brokers(3).replication(3).build();
        cluster.create_topic("t", TopicConfig::new(1)).unwrap();
        let tp = TopicPartition::new("t", 0);
        let mut p = Producer::new(cluster.clone(), ProducerConfig::default().with_batch_size(1));
        let mut sent = 0usize;
        for (round, &victim) in kills.iter().enumerate() {
            for i in 0..n {
                p.send(
                    "t",
                    Some(Bytes::from(format!("k{round}-{i}"))),
                    Some(Bytes::from_static(b"v")),
                    0,
                ).unwrap();
                sent += 1;
            }
            p.flush().unwrap();
            // Kill one broker and immediately restore a (possibly
            // different) one, so at least two stay alive at all times.
            cluster.kill_broker(victim);
            cluster.restore_broker(victim).unwrap();
        }
        let f = cluster.fetch(&tp, 0, usize::MAX, IsolationLevel::ReadUncommitted).unwrap();
        prop_assert_eq!(f.count(), sent, "no record lost across failovers");
    }

    /// Transactions: any prefix of (begin, send, commit/abort) cycles yields
    /// read-committed output equal to exactly the committed transactions.
    #[test]
    fn txn_visibility_matches_outcomes(outcomes in prop::collection::vec(any::<bool>(), 1..12)) {
        let cluster = Cluster::builder().brokers(1).replication(1).build();
        cluster.create_topic("t", TopicConfig::new(1)).unwrap();
        let mut p = Producer::new(cluster.clone(), ProducerConfig::transactional("app"));
        p.init_transactions().unwrap();
        let mut expected = Vec::new();
        for (i, &commit) in outcomes.iter().enumerate() {
            p.begin_transaction().unwrap();
            let val = Bytes::from(format!("txn{i}"));
            p.send("t", Some(Bytes::from_static(b"k")), Some(val.clone()), i as i64).unwrap();
            if commit {
                p.commit_transaction().unwrap();
                expected.push(val);
            } else {
                p.abort_transaction().unwrap();
            }
        }
        let got: Vec<Bytes> = all_records(&cluster, "t", IsolationLevel::ReadCommitted)
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// The coordinator contract the leaderless Streams assignor relies on:
    /// every member's view of one generation is the same frozen snapshot
    /// of the live membership and metadata at that generation's bump;
    /// generations never go back; a metadata update shows only at the next
    /// bump; a leave or an expiry bumps at once, even inside a debounce
    /// window.
    #[test]
    fn group_views_are_frozen_per_generation(
        members in 1usize..6,
        debounce in 0usize..2,
        ops in prop::collection::vec((0u8..8, 0usize..5, 0usize..3), 1..60),
    ) {
        let clock = simkit::ManualClock::new();
        let cluster = Cluster::builder().brokers(1).replication(1).clock(clock.shared()).build();
        cluster.group_set_rebalance_debounce_ms("g", [0, 50][debounce]);
        // Live membership and metadata, as this test drove them.
        let mut live: BTreeMap<String, Vec<String>> = BTreeMap::new();
        // The first view observed at each generation.
        let mut frozen: BTreeMap<i32, GroupView> = BTreeMap::new();
        frozen.insert(0, GroupView { generation: 0, members: vec![], member_metadata: live.clone() });
        for (kind, m, x) in ops {
            let member = format!("m{}", m % members);
            let tag = vec![format!("o:{x}")];
            let before = cluster.group_generation("g");
            let mut seen = Vec::new();
            let mut must_bump = false;
            match kind {
                0 => {
                    seen.push(cluster.group_join("g", &member, &tag).unwrap());
                    live.insert(member, tag);
                }
                1 => {
                    let left = cluster.group_leave("g", &member).is_ok();
                    prop_assert_eq!(left, live.remove(&member).is_some());
                    must_bump = left;
                }
                2 => {
                    let asked = cluster.group_request_rebalance("g", &member).is_ok();
                    prop_assert_eq!(asked, live.contains_key(&member));
                }
                3 => cluster.group_force_rebalance("g"),
                4 => {
                    let evicted = cluster.group_expire_members("g");
                    for id in &evicted {
                        prop_assert!(live.remove(id).is_some(), "evicted a non-member {id}");
                    }
                    must_bump = !evicted.is_empty();
                }
                5 => {
                    let updated = cluster.group_update_metadata("g", &member, &tag).is_ok();
                    prop_assert_eq!(updated, live.contains_key(&member));
                    if updated {
                        live.insert(member, tag);
                    }
                }
                6 => {
                    for id in live.keys() {
                        seen.push(cluster.group_view("g", id).unwrap());
                    }
                }
                _ => clock.advance([10, 50, SESSION_TIMEOUT_MS + 1][x]),
            }
            let after = cluster.group_generation("g");
            prop_assert!(after == before || after == before + 1, "generation {before} -> {after}");
            if must_bump {
                prop_assert_eq!(after, before + 1, "leave and expire bump at once");
            }
            if kind == 5 {
                prop_assert_eq!(after, before, "a metadata update never bumps");
            }
            if after > before {
                // The bump froze the live membership and metadata as of now.
                let expected = GroupView {
                    generation: after,
                    members: live.keys().cloned().collect(),
                    member_metadata: live.clone(),
                };
                if let Some(id) = live.keys().next() {
                    seen.push(cluster.group_view("g", id).unwrap());
                }
                prop_assert!(frozen.insert(after, expected).is_none(), "generation {after} reused");
            }
            for view in seen {
                prop_assert_eq!(view.generation, after);
                prop_assert_eq!(&*view, &frozen[&after], "one view per generation");
            }
        }
    }

    /// Committed offsets always reflect the latest committed value per
    /// group/partition, regardless of commit interleaving across groups.
    #[test]
    fn offset_commits_latest_wins(
        commits in prop::collection::vec((0usize..3, 0i64..1000), 1..30),
    ) {
        let cluster = Cluster::builder().brokers(1).replication(1).build();
        cluster.create_topic("t", TopicConfig::new(1)).unwrap();
        let tp = TopicPartition::new("t", 0);
        let mut gens = Vec::new();
        for g in 0..3 {
            let v = cluster.group_join(&format!("g{g}"), "m", &[]).unwrap();
            gens.push(v.generation);
        }
        let mut latest: HashMap<usize, i64> = HashMap::new();
        for (g, off) in commits {
            cluster
                .group_commit_offsets(&format!("g{g}"), "m", gens[g], &[(tp, off)])
                .unwrap();
            latest.insert(g, off);
        }
        for (g, off) in latest {
            prop_assert_eq!(
                cluster.group_committed_offset(&format!("g{g}"), &tp).unwrap(),
                Some(off)
            );
        }
    }

    /// A partition address is its topic name and partition number: it
    /// compares, hashes and prints as the `(String, u32)` it replaced, so
    /// maps keyed by it iterate in the same order and every hash-derived
    /// value replays as before.
    #[test]
    fn topic_partition_agrees_with_its_name(
        a in ("[A-Za-z0-9._-]{1,8}", 0u32..4),
        b in ("[ab._-]{1,3}", 0u32..4),
    ) {
        let new = |(name, p): &(String, u32)| TopicPartition::new(name, *p);
        for (x, y) in [(&a, &b), (&b, &a), (&a, &a), (&b, &b)] {
            prop_assert_eq!(new(x).cmp(&new(y)), x.cmp(y));
            prop_assert_eq!(new(x) == new(y), x == y);
        }
        for x in [&a, &b] {
            prop_assert_eq!(hash_of(&new(x)), hash_of(x));
            prop_assert_eq!(new(x).to_string(), format!("{}-{}", x.0, x.1));
            prop_assert_eq!(format!("{:?}", new(x).topic), format!("{:?}", x.0));
            prop_assert_eq!(
                format!("{:?}", new(x)),
                format!("TopicPartition {{ topic: {:?}, partition: {} }}", x.0, x.1)
            );
        }
    }
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Partition addresses are copied, never cloned.
const _: fn() = || {
    fn copy<T: Copy>() {}
    copy::<Topic>();
    copy::<TopicPartition>();
};

/// Threads interning the same names at once get equal topics, each the one
/// copy of its name that the process keeps.
#[test]
fn threads_interning_the_same_names_get_one_copy_each() {
    let names: Vec<String> = (0..64).map(|i| format!("interned-{i}")).collect();
    let interned: Vec<Vec<Topic>> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..4)
            .map(|_| s.spawn(|| names.iter().map(|n| Topic::new(n)).collect::<Vec<_>>()))
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for topics in &interned {
        assert_eq!(topics, &interned[0]);
        for ((topic, first), name) in topics.iter().zip(&interned[0]).zip(&names) {
            assert_eq!(&**topic, name.as_str());
            assert!(std::ptr::eq(topic.as_ptr(), first.as_ptr()), "{name} interned twice");
        }
    }
}
