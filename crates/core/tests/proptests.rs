//! Property-based tests for the streams layer: windowed aggregation
//! equivalence against a batch oracle under arbitrary out-of-order input,
//! store/changelog replay equivalence, and serde round-trips.

use bytes::Bytes;
use kstreams::dsl::ops::{KvAggregate, WindowAggregate};
use kstreams::dsl::windows::TimeWindows;
use kstreams::kserde::{decode_change, encode_change, KSerde};
use kstreams::processor::driver::TaskEnv;
use kstreams::processor::{Processor, ProcessorContext, StoreEntry};
use kstreams::record::FlowRecord;
use kstreams::state::{Store, StoreKind, StoreSpec};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

fn count_agg() -> kstreams::dsl::ops::AggFn {
    Arc::new(|cur, _| {
        let n = cur.map_or(0, |b| i64::from_bytes(&b).unwrap());
        Some((n + 1).to_bytes())
    })
}

fn window_env() -> TaskEnv {
    let mut env = TaskEnv::new(0);
    env.stores.insert(
        "w".into(),
        StoreEntry::new(Store::new(StoreKind::Window), StoreSpec::new("w", StoreKind::Window)),
    );
    env
}

fn kv_env() -> TaskEnv {
    let mut env = TaskEnv::new(0);
    env.stores.insert(
        "s".into(),
        StoreEntry::new(Store::new(StoreKind::KeyValue), StoreSpec::new("s", StoreKind::KeyValue)),
    );
    env
}

fn arb_keyed_events() -> impl Strategy<Value = Vec<(u8, i64)>> {
    prop::collection::vec((0u8..5, 0i64..20_000), 1..80)
}

proptest! {
    /// With unbounded grace, the windowed count over ANY arrival order
    /// equals the batch-computed count per (key, window) — the core §5
    /// claim that revisions converge to the complete result.
    #[test]
    fn windowed_count_converges_to_batch_oracle(events in arb_keyed_events()) {
        let windows = TimeWindows::of(1_000).grace(i64::MAX / 4);
        let mut agg = WindowAggregate { store: "w".into(), windows, agg: count_agg() };
        let mut env = window_env();
        let mut queue = VecDeque::new();
        for (k, ts) in &events {
            let rec = FlowRecord::stream(
                Some(Bytes::from(vec![*k])),
                Some(Bytes::from_static(b"v")),
                *ts,
            );
            let mut ctx = ProcessorContext::new(&[], &mut queue, &mut env);
            agg.process(&mut ctx, rec);
            queue.clear();
        }
        prop_assert_eq!(env.metrics.late_dropped, 0, "infinite grace drops nothing");
        // Batch oracle.
        let mut oracle: HashMap<(u8, i64), i64> = HashMap::new();
        for (k, ts) in &events {
            *oracle.entry((*k, (ts / 1000) * 1000)).or_default() += 1;
        }
        for ((k, start), want) in oracle {
            let got = match &mut env.stores.get_mut("w").unwrap().store {
                Store::Window(s) => {
                    s.fetch(&[k], start).map_or(0, |b| i64::from_bytes(&b).unwrap())
                }
                _ => unreachable!(),
            };
            prop_assert_eq!(got, want, "key {} window {}", k, start);
        }
    }

    /// Replaying a store's captured changelog into a fresh store yields an
    /// identical store — the §4 "disposable materialized view" invariant,
    /// for any input.
    #[test]
    fn changelog_replay_reconstructs_window_store(events in arb_keyed_events()) {
        let windows = TimeWindows::of(1_000).grace(i64::MAX / 4);
        let mut agg = WindowAggregate { store: "w".into(), windows, agg: count_agg() };
        let mut env = window_env();
        let mut queue = VecDeque::new();
        for (k, ts) in &events {
            let rec = FlowRecord::stream(
                Some(Bytes::from(vec![*k])),
                Some(Bytes::from_static(b"v")),
                *ts,
            );
            let mut ctx = ProcessorContext::new(&[], &mut queue, &mut env);
            agg.process(&mut ctx, rec);
            queue.clear();
        }
        // Replay the captured changelog into a fresh store.
        let mut restored = Store::new(StoreKind::Window);
        for (changelog, key, value) in &env.changelog {
            prop_assert_eq!(changelog.topic.as_str(), "w-changelog");
            restored.apply_changelog(key, value.clone());
        }
        let Store::Window(original) = &env.stores.get("w").unwrap().store else { unreachable!() };
        let Store::Window(restored) = &restored else { unreachable!() };
        let a: Vec<_> = original.iter().map(|(s, k, v)| (s, k.clone(), v.clone())).collect();
        let b: Vec<_> = restored.iter().map(|(s, k, v)| (s, k.clone(), v.clone())).collect();
        prop_assert_eq!(a, b);
    }

    /// KvAggregate with add/sub is revision-correct: applying a random
    /// sequence of upserts as Change records (old = previous value per key)
    /// leaves the sum aggregate equal to the sum of current values.
    #[test]
    fn kv_aggregate_retractions_balance(events in prop::collection::vec((0u8..4, 1i64..100), 1..60)) {
        let add: kstreams::dsl::ops::AggFn = Arc::new(|cur, v| {
            let c = cur.map_or(0, |b| i64::from_bytes(&b).unwrap());
            Some((c + i64::from_bytes(v).unwrap()).to_bytes())
        });
        let sub: kstreams::dsl::ops::AggFn = Arc::new(|cur, v| {
            let c = cur.map_or(0, |b| i64::from_bytes(&b).unwrap());
            Some((c - i64::from_bytes(v).unwrap()).to_bytes())
        });
        let mut agg = KvAggregate { store: "s".into(), add, sub };
        let mut env = kv_env();
        let mut queue = VecDeque::new();
        // All events share one output key ("total") but carry per-source
        // revisions: old = prior value of that source key.
        let mut current: HashMap<u8, i64> = HashMap::new();
        for (src, val) in &events {
            let old = current.insert(*src, *val);
            let rec = FlowRecord {
                key: Some(Bytes::from_static(b"total")),
                new: Some(val.to_bytes()),
                old: old.map(|o| o.to_bytes()),
                ts: 0,
            };
            let mut ctx = ProcessorContext::new(&[], &mut queue, &mut env);
            agg.process(&mut ctx, rec);
            queue.clear();
        }
        let want: i64 = current.values().sum();
        let got = match &mut env.stores.get_mut("s").unwrap().store {
            Store::Kv(s) => i64::from_bytes(&s.get(b"total").unwrap()).unwrap(),
            _ => unreachable!(),
        };
        prop_assert_eq!(got, want, "retract-then-add must keep the sum exact");
    }

    /// Change encoding round-trips for arbitrary payloads.
    #[test]
    fn change_encoding_round_trip(
        old in prop::option::of(prop::collection::vec(any::<u8>(), 0..64)),
        new in prop::option::of(prop::collection::vec(any::<u8>(), 0..64)),
    ) {
        let old = old.map(Bytes::from);
        let new = new.map(Bytes::from);
        let enc = encode_change(&old, &new);
        prop_assert_eq!(decode_change(&enc).unwrap(), (old, new));
    }

    /// Windowed key encoding round-trips and preserves per-key window order.
    #[test]
    fn windowed_key_round_trip(key in prop::collection::vec(any::<u8>(), 0..32), start in any::<i64>()) {
        let enc = kstreams::kserde::encode_windowed_key(&key, start);
        let (k, s) = kstreams::kserde::decode_windowed_key(&enc).unwrap();
        prop_assert_eq!(k.as_ref(), key.as_slice());
        prop_assert_eq!(s, start);
    }

    /// Tuple serde round-trips.
    #[test]
    fn tuple_serde_round_trip(a in ".*", b in any::<i64>()) {
        let t = (a, b);
        let enc = t.to_bytes();
        prop_assert_eq!(<(String, i64)>::from_bytes(&enc).unwrap(), t);
    }

    /// Task assignment is always disjoint, complete, and balanced.
    #[test]
    fn assignment_partition_properties(
        subtopologies in 1usize..4,
        parts in 1u32..12,
        members in prop::collection::hash_set("[a-z]{1,6}", 1..6),
    ) {
        use kstreams::topology::TaskId;
        let tasks: Vec<TaskId> = (0..subtopologies)
            .flat_map(|s| (0..parts).map(move |p| TaskId { subtopology: s, partition: p }))
            .collect();
        let members: Vec<String> = members.into_iter().collect();
        let assignment = kstreams::assignment::assign_tasks_sticky(&tasks, &members, &BTreeMap::new());
        let mut seen: Vec<TaskId> = assignment.values().flatten().copied().collect();
        seen.sort();
        let mut want = tasks.clone();
        want.sort();
        prop_assert_eq!(seen, want, "disjoint + complete");
        let sizes: Vec<usize> = assignment.values().map(Vec::len).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1, "balanced: {sizes:?}");
    }
}
