//! Property-based tests for the streams layer: windowed aggregation
//! equivalence against a batch oracle under arbitrary out-of-order input,
//! store/changelog replay equivalence, the KV and window stores against an
//! ordered-tree model (the hash-indexed stores must be indistinguishable
//! from it, scans included, whatever order they were filled in), the record
//! cache against a plain reference LRU, and serde round-trips.

use bytes::Bytes;
use kstreams::dsl::ops::{KvAggregate, WindowAggregate};
use kstreams::dsl::windows::TimeWindows;
use kstreams::kserde::{decode_change, encode_change, KSerde};
use kstreams::processor::driver::TaskEnv;
use kstreams::processor::{Processor, ProcessorContext, StoreEntry, StoreId};
use kstreams::record::FlowRecord;
use kstreams::state::spill::{spill_path, write_spill, StoreSpill};
use kstreams::state::{DirtyEntry, KvStore, RecordCache, Store, StoreKind, StoreSpec, WindowStore};
use proptest::prelude::*;
use simkit::DetRng;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

fn count_agg() -> kstreams::dsl::ops::AggFn {
    Arc::new(|cur, _| {
        let n = cur.map_or(Ok(0), |b| i64::from_bytes(&b))?;
        Ok(Some((n + 1).to_bytes()))
    })
}

/// A task environment holding one empty store named `name`, and its id.
fn env_with(name: &str, kind: StoreKind) -> (TaskEnv, StoreId) {
    let mut env = TaskEnv::new(0);
    let id = env.add_store(StoreEntry::new(Store::new(kind), StoreSpec::new(name, kind)));
    (env, id)
}

fn window_env() -> (TaskEnv, StoreId) {
    env_with("w", StoreKind::Window)
}

fn kv_env() -> (TaskEnv, StoreId) {
    env_with("s", StoreKind::KeyValue)
}

fn arb_keyed_events() -> impl Strategy<Value = Vec<(u8, i64)>> {
    prop::collection::vec((0u8..5, 0i64..20_000), 1..80)
}

/// Store operations as `(op, key, value, second key)`: few distinct keys so
/// that deletes, overwrites and updates of present keys are common. Keys
/// are one or two bytes long, so key order is not insertion or length order.
fn arb_store_ops() -> impl Strategy<Value = Vec<(u8, u8, u8, u8)>> {
    prop::collection::vec((0u8..7, 0u8..12, any::<u8>(), 0u8..12), 1..120)
}

fn store_key(k: u8) -> Vec<u8> {
    if k.is_multiple_of(3) {
        vec![k]
    } else {
        vec![k / 2, k]
    }
}

/// What an update writes: a value derived from the current one, or — for
/// one generated value in four — nothing, which deletes a present key and
/// must leave an absent one absent.
fn updated(current: Option<&[u8]>, v: u8) -> Option<Vec<u8>> {
    (!v.is_multiple_of(4)).then(|| {
        let mut out = current.unwrap_or_default().to_vec();
        out.push(v);
        out.truncate(4);
        out
    })
}

fn pairs<'a>(it: impl Iterator<Item = (&'a Bytes, &'a Bytes)>) -> Vec<(Vec<u8>, Vec<u8>)> {
    it.map(|(k, v)| (k.to_vec(), v.to_vec())).collect()
}

/// Window starts for the window-store model, both ends of `i64` included.
const WINDOW_STARTS: [i64; 6] = [i64::MIN, -1_000, 0, 1_000, 5_000, i64::MAX];

/// Twelve distinct keys of 0–30 bytes: the short ones live inside their
/// `Bytes`, the long ones are shared, and key order is not length order.
fn sized_key(k: u8) -> Vec<u8> {
    vec![b'z' - k; usize::from(k) * 5 % 31]
}

type WindowEntry = (i64, Vec<u8>, Vec<u8>);

fn window_entries<'a>(it: impl Iterator<Item = (i64, &'a Bytes, &'a Bytes)>) -> Vec<WindowEntry> {
    it.map(|(s, k, v)| (s, k.to_vec(), v.to_vec())).collect()
}

fn window_entries_of<'a>(
    it: impl Iterator<Item = (&'a (i64, Vec<u8>), &'a Vec<u8>)>,
) -> Vec<WindowEntry> {
    it.map(|((s, k), v)| (*s, k.clone(), v.clone())).collect()
}

/// A dirty cache entry as comparable data: `(key, old, new, ts, forward)`.
type CacheRow = (Bytes, Option<Bytes>, Option<Bytes>, i64, bool);

fn cache_row((key, e): (Bytes, DirtyEntry)) -> CacheRow {
    (key, e.old, e.new, e.ts, e.forward)
}

/// In-place Fisher–Yates from an explicit seed.
fn permute<T>(items: &mut [T], seed: u64) {
    let mut rng = DetRng::new(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

/// The bytes a spill of `store` at watermark 7 puts on disk.
fn spill_bytes(store: &Store, tag: &str) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("kstreams-prop-{}-{tag}", std::process::id()));
    let path = spill_path(&dir, "app", "0_0", "s");
    write_spill(&path, &StoreSpill { watermark: 7, pairs: store.dump() }).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

proptest! {
    /// With unbounded grace, the windowed count over ANY arrival order
    /// equals the batch-computed count per (key, window) — the core §5
    /// claim that revisions converge to the complete result.
    #[test]
    fn windowed_count_converges_to_batch_oracle(events in arb_keyed_events()) {
        let windows = TimeWindows::of(1_000).grace(i64::MAX / 4);
        let (mut env, w) = window_env();
        let mut agg = WindowAggregate { store: w, windows, agg: count_agg() };
        let mut forwarded = Vec::new();
        for (k, ts) in &events {
            let rec = FlowRecord::stream(
                Some(Bytes::from(vec![*k])),
                Some(Bytes::from_static(b"v")),
                *ts,
            );
            let mut ctx = ProcessorContext::new(&mut forwarded, &mut env);
            agg.process(&mut ctx, rec);
            forwarded.clear();
        }
        prop_assert_eq!(env.metrics.late_dropped, 0, "infinite grace drops nothing");
        // Batch oracle.
        let mut oracle: HashMap<(u8, i64), i64> = HashMap::new();
        for (k, ts) in &events {
            *oracle.entry((*k, (ts / 1000) * 1000)).or_default() += 1;
        }
        for ((k, start), want) in oracle {
            let got = match &mut env.stores[w.index()].store {
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
        let (mut env, w) = window_env();
        let mut agg = WindowAggregate { store: w, windows, agg: count_agg() };
        let mut forwarded = Vec::new();
        for (k, ts) in &events {
            let rec = FlowRecord::stream(
                Some(Bytes::from(vec![*k])),
                Some(Bytes::from_static(b"v")),
                *ts,
            );
            let mut ctx = ProcessorContext::new(&mut forwarded, &mut env);
            agg.process(&mut ctx, rec);
            forwarded.clear();
        }
        // Replay the captured changelog into a fresh store.
        let mut restored = Store::new(StoreKind::Window);
        for (changelog, key, value) in &env.changelog {
            prop_assert_eq!(&*changelog.topic, "w-changelog");
            restored.apply_changelog(key, value.clone());
        }
        let Store::Window(original) = &env.stores[w.index()].store else { unreachable!() };
        let Store::Window(restored) = &restored else { unreachable!() };
        let a: Vec<_> = original.iter().map(|(s, k, v)| (s, k.clone(), v.clone())).collect();
        let b: Vec<_> = restored.iter().map(|(s, k, v)| (s, k.clone(), v.clone())).collect();
        prop_assert_eq!(a, b);
    }

    /// The hash-indexed KV store is indistinguishable from an ordered tree:
    /// every point operation returns what the model returns, `update` is
    /// `get` then `put`, and `range`/`iter` give the model's entries in the
    /// model's order.
    #[test]
    fn kv_store_matches_an_ordered_model(ops in arb_store_ops()) {
        let mut store = KvStore::new();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (op, k, v, k2) in ops {
            let key = store_key(k);
            match op {
                0 | 1 => {
                    let old = store.put(Bytes::from(key.clone()), Some(Bytes::from(vec![v])));
                    prop_assert_eq!(old.map(|b| b.to_vec()), model.insert(key, vec![v]));
                }
                2 => {
                    let old = store.put(Bytes::from(key.clone()), None);
                    prop_assert_eq!(old.map(|b| b.to_vec()), model.remove(&key));
                }
                3 => {
                    prop_assert_eq!(store.get(&key).map(|b| b.to_vec()), model.get(&key).cloned());
                }
                4 => {
                    let (old, new) = store.update(Bytes::from(key.clone()), |cur| {
                        updated(cur.map(AsRef::as_ref), v).map(Bytes::from)
                    });
                    let want_old = model.get(&key).cloned();
                    let want_new = updated(want_old.as_deref(), v);
                    match &want_new {
                        Some(n) => model.insert(key, n.clone()),
                        None => model.remove(&key),
                    };
                    prop_assert_eq!(old.map(|b| b.to_vec()), want_old);
                    prop_assert_eq!(new.map(|b| b.to_vec()), want_new);
                }
                5 => {
                    let (from, to) = (key, store_key(k2));
                    let want: Vec<_> = if from <= to {
                        model.range(from.clone()..to.clone()).map(|(k, v)| (k.clone(), v.clone())).collect()
                    } else {
                        Vec::new()
                    };
                    prop_assert_eq!(pairs(store.range(&from, &to)), want, "range {:?}..{:?}", from, to);
                }
                _ => {
                    let want: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                    prop_assert_eq!(pairs(store.iter()), want);
                }
            }
            prop_assert_eq!(store.len(), model.len());
        }
        let want: Vec<_> = model.into_iter().collect();
        prop_assert_eq!(pairs(store.iter()), want, "final contents, in key order");
    }

    /// `WindowStore::update` is `fetch` then `put`: the same sequence applied
    /// either way returns the same values and leaves the same store.
    #[test]
    fn window_update_is_fetch_then_put(ops in arb_store_ops()) {
        let mut updated_store = WindowStore::new();
        let mut reference = WindowStore::new();
        for (op, k, v, w) in ops {
            let key = Bytes::from(store_key(k));
            let start = i64::from(w % 4) * 1_000;
            if op < 2 {
                // Plain puts and deletes keep absent and present windows mixed.
                let value = (op == 0).then(|| Bytes::from(vec![v]));
                prop_assert_eq!(
                    updated_store.put(key.clone(), start, value.clone()),
                    reference.put(key, start, value)
                );
                continue;
            }
            let want_old = reference.fetch(&key, start);
            let want_new = updated(want_old.as_deref(), v).map(Bytes::from);
            reference.put(key.clone(), start, want_new.clone());
            let got = updated_store.update(key, start, |cur| {
                updated(cur.map(AsRef::as_ref), v).map(Bytes::from)
            });
            prop_assert_eq!(got, (want_old, want_new));
            prop_assert_eq!(updated_store.len(), reference.len());
        }
        let a: Vec<_> = updated_store.iter().map(|(s, k, v)| (s, k.clone(), v.clone())).collect();
        let b: Vec<_> = reference.iter().map(|(s, k, v)| (s, k.clone(), v.clone())).collect();
        prop_assert_eq!(a, b);
    }

    /// The window store is indistinguishable from a tree keyed by
    /// `(start, key)`: every operation returns what the model returns, in
    /// the model's order, with window starts at both ends of `i64` and keys
    /// of 0–30 bytes (inline and shared `Bytes` alike).
    #[test]
    fn window_store_matches_an_ordered_model(
        ops in prop::collection::vec(
            (0u8..10, 0u8..12, any::<u8>(), 0usize..6, 0usize..6),
            1..150,
        ),
    ) {
        let mut store = WindowStore::new();
        let mut model: BTreeMap<(i64, Vec<u8>), Vec<u8>> = BTreeMap::new();
        for (op, k, v, w, w2) in ops {
            let (key, start, other) = (sized_key(k), WINDOW_STARTS[w], WINDOW_STARTS[w2]);
            match op {
                0 | 1 => {
                    let value = Some(Bytes::from(vec![v]));
                    let old = store.put(Bytes::from(key.clone()), start, value);
                    prop_assert_eq!(old.map(|b| b.to_vec()), model.insert((start, key), vec![v]));
                }
                2 => {
                    let old = store.put(Bytes::from(key.clone()), start, None);
                    prop_assert_eq!(old.map(|b| b.to_vec()), model.remove(&(start, key)));
                }
                3 => {
                    let (old, new) = store.update(Bytes::from(key.clone()), start, |cur| {
                        updated(cur.map(AsRef::as_ref), v).map(Bytes::from)
                    });
                    let want_old = model.get(&(start, key.clone())).cloned();
                    let want_new = updated(want_old.as_deref(), v);
                    match &want_new {
                        Some(n) => model.insert((start, key), n.clone()),
                        None => model.remove(&(start, key)),
                    };
                    prop_assert_eq!(old.map(|b| b.to_vec()), want_old);
                    prop_assert_eq!(new.map(|b| b.to_vec()), want_new);
                }
                4 => {
                    let got = store.fetch(&key, start).map(|b| b.to_vec());
                    prop_assert_eq!(got, model.get(&(start, key)).cloned());
                }
                5 => {
                    let got: Vec<_> = store
                        .fetch_range(&key, start, other)
                        .into_iter()
                        .map(|(s, v)| (s, v.to_vec()))
                        .collect();
                    let want: Vec<_> = model
                        .range((start, Vec::new())..)
                        .take_while(|((s, _), _)| *s <= other)
                        .filter(|((_, mk), _)| *mk == key)
                        .map(|((s, _), v)| (*s, v.clone()))
                        .collect();
                    prop_assert_eq!(got, want, "fetch_range {}..={}", start, other);
                }
                6 => {
                    let expired = store.expire_before(start);
                    let got: Vec<_> =
                        expired.into_iter().map(|(s, k, v)| (s, k.to_vec(), v.to_vec())).collect();
                    let keep = model.split_off(&(start, Vec::new()));
                    let expired = std::mem::replace(&mut model, keep);
                    let want: Vec<_> = expired.into_iter().map(|((s, k), v)| (s, k, v)).collect();
                    prop_assert_eq!(got, want, "expire_before {}", start);
                }
                7 => {
                    let want = window_entries_of(model.range(..));
                    prop_assert_eq!(window_entries(store.iter()), want);
                }
                8 => {
                    let got = window_entries(store.iter_below(start));
                    prop_assert_eq!(got, window_entries_of(model.range(..(start, Vec::new()))));
                }
                _ => {
                    let want = model.keys().next().map(|(s, _)| *s);
                    prop_assert_eq!(store.earliest_window(), want);
                }
            }
            prop_assert_eq!(store.len(), model.len());
            prop_assert_eq!(store.is_empty(), model.is_empty());
        }
        prop_assert_eq!(window_entries(store.iter()), window_entries_of(model.range(..)));
    }

    /// The index-linked LRU is the obvious O(n) one: a `Vec` ordered by
    /// last write, whose front is evicted. Every put reports the same hit
    /// and the same evicted entry, and `stats()` and `drain_sorted()` agree,
    /// across drains.
    #[test]
    fn record_cache_matches_a_reference_lru(
        capacity in 1usize..9,
        ops in prop::collection::vec(
            (0u8..16, 0u8..12, prop::option::of(0u8..4), prop::option::of(0u8..4), any::<bool>()),
            1..200,
        ),
    ) {
        let mut cache = RecordCache::new(capacity);
        // Least recently written first.
        let mut lru: Vec<CacheRow> = Vec::new();
        let (mut hits, mut misses, mut evictions) = (0, 0, 0);
        for (ts, (op, k, old, new, forward)) in ops.into_iter().enumerate() {
            if op == 0 {
                let got: Vec<CacheRow> = cache.drain_sorted().into_iter().map(cache_row).collect();
                lru.sort_by(|a, b| a.0.cmp(&b.0));
                prop_assert_eq!(got, std::mem::take(&mut lru));
                continue;
            }
            let (key, ts) = (Bytes::from(sized_key(k)), ts as i64);
            let (old, new) = (old.map(|v| Bytes::from(vec![v])), new.map(|v| Bytes::from(vec![v])));
            let outcome = cache.put(key.clone(), old.clone(), new.clone(), ts, forward);
            let hit = match lru.iter().position(|row| row.0 == key) {
                Some(at) => {
                    let mut row = lru.remove(at);
                    (row.2, row.3, row.4) = (new, ts, row.4 || forward);
                    lru.push(row);
                    hits += 1;
                    true
                }
                None => {
                    lru.push((key, old, new, ts, forward));
                    misses += 1;
                    false
                }
            };
            let evicted = (lru.len() > capacity).then(|| lru.remove(0));
            evictions += u64::from(evicted.is_some());
            prop_assert_eq!(outcome.hit, hit);
            prop_assert_eq!(outcome.evicted.map(cache_row), evicted);
            prop_assert_eq!(cache.stats(), (hits, misses, evictions));
            prop_assert_eq!(cache.len(), lru.len());
        }
        lru.sort_by(|a, b| a.0.cmp(&b.0));
        let got: Vec<CacheRow> = cache.drain_sorted().into_iter().map(cache_row).collect();
        prop_assert_eq!(got, lru);
    }

    /// Insertion order — and with it the hash map's layout — is invisible:
    /// two stores holding the same pairs, filled in two random orders, give
    /// equal dumps, equal `kv_entries` and byte-equal spill files. This is
    /// the property that keeps hash order out of seed replay.
    #[test]
    fn kv_scans_do_not_depend_on_insertion_order(
        entries in prop::collection::vec((0u8..40, any::<u8>()), 1..60),
        seeds in (any::<u64>(), any::<u64>()),
    ) {
        // Last write wins in any order only if keys are unique.
        let unique: BTreeMap<u8, u8> = entries.into_iter().collect();
        let fill = |seed: u64| {
            let mut order: Vec<(u8, u8)> = unique.iter().map(|(k, v)| (*k, *v)).collect();
            permute(&mut order, seed);
            let (mut env, s) = kv_env();
            let mut forwarded = Vec::new();
            let mut ctx = ProcessorContext::new(&mut forwarded, &mut env);
            for (k, v) in order {
                ctx.kv_put(s, Bytes::from(store_key(k)), Some(Bytes::from(vec![v])));
            }
            let entries = ctx.kv_entries(s);
            (env.stores.swap_remove(s.index()).store, entries)
        };
        let (a, a_entries) = fill(seeds.0);
        let (b, b_entries) = fill(seeds.1);
        prop_assert_eq!(a.dump(), b.dump());
        prop_assert_eq!(&a_entries, &b_entries);
        prop_assert_eq!(&a_entries, &a.dump(), "kv_entries is the dump: sorted by key");
        prop_assert_eq!(spill_bytes(&a, "a"), spill_bytes(&b, "b"));
    }

    /// KvAggregate with add/sub is revision-correct: applying a random
    /// sequence of upserts as Change records (old = previous value per key)
    /// leaves the sum aggregate equal to the sum of current values.
    #[test]
    fn kv_aggregate_retractions_balance(events in prop::collection::vec((0u8..4, 1i64..100), 1..60)) {
        let add: kstreams::dsl::ops::AggFn = Arc::new(|cur, v| {
            let c = cur.map_or(Ok(0), |b| i64::from_bytes(&b))?;
            Ok(Some((c + i64::from_bytes(v)?).to_bytes()))
        });
        let sub: kstreams::dsl::ops::AggFn = Arc::new(|cur, v| {
            let c = cur.map_or(Ok(0), |b| i64::from_bytes(&b))?;
            Ok(Some((c - i64::from_bytes(v)?).to_bytes()))
        });
        let (mut env, s) = kv_env();
        let mut agg = KvAggregate { store: s, add, sub };
        let mut forwarded = Vec::new();
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
            let mut ctx = ProcessorContext::new(&mut forwarded, &mut env);
            agg.process(&mut ctx, rec);
            forwarded.clear();
        }
        let want: i64 = current.values().sum();
        let got = match &mut env.stores[s.index()].store {
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
