//! Permutation property tests for revision processing (§5): the *final*
//! revision per key/window must not depend on record arrival order, as
//! long as the grace period covers the disorder. Exercises the
//! grace-period windowed aggregate directly, and the suppressed
//! ("emit-final-only") variant through the same driver surface the task
//! runtime uses.

use bytes::Bytes;
use kstreams::dsl::ops::{Suppress, SuppressMode, WindowAggregate};
use kstreams::dsl::windows::TimeWindows;
use kstreams::kserde::{decode_windowed_key, KSerde};
use kstreams::processor::driver::{SubTopologyDriver, TaskEnv};
use kstreams::processor::{Processor, ProcessorContext, StoreEntry, StoreId};
use kstreams::record::FlowRecord;
use kstreams::state::{Store, StoreKind, StoreSpec};
use kstreams::topology::builder::InternalBuilder;
use kstreams::topology::node::{TopicRef, ValueMode};
use kstreams::topology::TaskId;
use proptest::prelude::*;
use simkit::DetRng;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

const WINDOW_MS: i64 = 1_000;
/// Timestamps are drawn from `[0, SPAN_MS)`.
const SPAN_MS: i64 = 10_000;
/// Grace covers the whole timestamp span, so *no permutation* of the
/// events can make any record late — which is exactly the §5 condition
/// under which the revision stream must converge to the complete result.
const GRACE_MS: i64 = SPAN_MS;

fn count_agg() -> kstreams::dsl::ops::AggFn {
    Arc::new(|cur, _| {
        let n = cur.map_or(Ok(0), |b| i64::from_bytes(&b))?;
        Ok(Some((n + 1).to_bytes()))
    })
}

/// A task environment holding one empty store per `(name, kind)`, and
/// their ids.
fn env_with<const N: usize>(stores: [(&str, StoreKind); N]) -> (TaskEnv, [StoreId; N]) {
    let mut env = TaskEnv::new(0);
    let ids = stores.map(|(name, kind)| {
        env.add_store(StoreEntry::new(Store::new(kind), StoreSpec::new(name, kind)))
    });
    (env, ids)
}

/// In-place Fisher–Yates from an explicit seed (the proptest shim has no
/// shuffle strategy; a seed keeps the permutation shrinkable/replayable).
fn permute<T>(items: &mut [T], seed: u64) {
    let mut rng = DetRng::new(seed);
    for i in (1..items.len()).rev() {
        let j = rng.index(i + 1);
        items.swap(i, j);
    }
}

fn arb_events() -> impl Strategy<Value = Vec<(u8, i64)>> {
    prop::collection::vec((0u8..5, 0i64..SPAN_MS), 1..60)
}

/// Batch oracle: records per (key, window start).
fn oracle(events: &[(u8, i64)]) -> HashMap<(u8, i64), i64> {
    let mut counts = HashMap::new();
    for (k, ts) in events {
        *counts.entry((*k, (ts / WINDOW_MS) * WINDOW_MS)).or_default() += 1;
    }
    counts
}

fn run_window_aggregate(
    events: &[(u8, i64)],
) -> (TaskEnv, Vec<FlowRecord>, HashMap<(u8, i64), i64>) {
    let windows = TimeWindows::of(WINDOW_MS).grace(GRACE_MS);
    let (mut env, [w]) = env_with([("w", StoreKind::Window)]);
    let mut agg = WindowAggregate { store: w, windows, agg: count_agg() };
    let mut forwarded = Vec::new();
    let mut finals: HashMap<(u8, i64), i64> = HashMap::new();
    for (k, ts) in events {
        let rec =
            FlowRecord::stream(Some(Bytes::from(vec![*k])), Some(Bytes::from_static(b"v")), *ts);
        let mut revisions = Vec::new();
        let mut ctx = ProcessorContext::new(&mut revisions, &mut env);
        agg.process(&mut ctx, rec);
        for out in revisions {
            let (key, start) = decode_windowed_key(out.key.as_ref().unwrap()).unwrap();
            let value = i64::from_bytes(out.new.as_ref().unwrap()).unwrap();
            finals.insert((key[0], start), value);
            forwarded.push(out);
        }
    }
    (env, forwarded, finals)
}

/// Outcome of one windowed-count pipeline run at a given cache capacity.
struct CacheRun {
    /// Window-store contents after the final flush.
    store_dump: Vec<(i64, Bytes, Bytes)>,
    /// A fresh store rebuilt from the captured changelog (what restore
    /// would produce).
    replayed_dump: Vec<(i64, Bytes, Bytes)>,
    /// Last sink value per windowed key — the final revision downstream
    /// consumers settle on.
    final_outputs: BTreeMap<Bytes, Bytes>,
    changelog_appends: u64,
}

/// Drive `events` through source → windowed count → sink with a record
/// cache of `cache` entries on the store, flushing (as a commit would)
/// every `commit_every` records and once at the end.
fn run_cached_pipeline(events: &[(u8, i64)], commit_every: usize, cache: usize) -> CacheRun {
    let mut b = InternalBuilder::new();
    let src = b.add_source("s".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
    b.add_store(StoreSpec::new("w", StoreKind::Window)).unwrap();
    let p = b
        .add_processor(
            "agg".into(),
            Arc::new(move |s| {
                let windows = TimeWindows::of(WINDOW_MS).grace(GRACE_MS);
                Box::new(WindowAggregate { store: s[0], windows, agg: count_agg() })
            }),
            &[src],
            vec!["w".into()],
        )
        .unwrap();
    b.add_sink("k".into(), TopicRef::external("out"), ValueMode::Plain, &[p]).unwrap();
    let t = b.build().unwrap();
    let mut driver = SubTopologyDriver::new(&t, 0).unwrap();
    let mut env = TaskEnv::new(0);
    env.stores =
        StoreEntry::table(&t, TaskId { subtopology: 0, partition: 0 }, "app", cache).unwrap();
    let source = driver.source("in").unwrap();
    for (i, (k, ts)) in events.iter().enumerate() {
        driver
            .process(
                &mut env,
                source,
                Some(Bytes::from(vec![*k])),
                Some(Bytes::from_static(b"v")),
                *ts,
            )
            .unwrap();
        if (i + 1) % commit_every == 0 {
            driver.flush_caches(&mut env).unwrap();
        }
    }
    driver.flush_caches(&mut env).unwrap();

    let store_dump = match &env.stores[0].store {
        Store::Window(s) => s.iter().map(|(st, k, v)| (st, k.clone(), v.clone())).collect(),
        _ => unreachable!(),
    };
    let mut replayed = Store::new(StoreKind::Window);
    for (_, key, value) in &env.changelog {
        replayed.apply_changelog(key, value.clone());
    }
    let replayed_dump = match &replayed {
        Store::Window(s) => s.iter().map(|(st, k, v)| (st, k.clone(), v.clone())).collect(),
        _ => unreachable!(),
    };
    let final_outputs =
        env.outputs.iter().filter_map(|o| Some((o.key.clone()?, o.value.clone()?))).collect();
    CacheRun {
        store_dump,
        replayed_dump,
        final_outputs,
        changelog_appends: env.metrics.changelog_appends,
    }
}

/// §6.2's headline: on hot keys a cache that holds the working set cuts
/// changelog traffic by at least 5× — 8 keys, 100 updates per key between
/// flushes, three flushes.
#[test]
fn cache_cuts_hot_key_changelog_appends_five_fold() {
    const KEYS: usize = 8;
    const PER_FLUSH: usize = KEYS * 100;
    let events: Vec<(u8, i64)> = (0..3 * PER_FLUSH)
        .map(|i| ((i % KEYS) as u8, (i / PER_FLUSH) as i64 * WINDOW_MS))
        .collect();
    let base = run_cached_pipeline(&events, PER_FLUSH, 0);
    let cached = run_cached_pipeline(&events, PER_FLUSH, 1024);
    assert!(
        base.changelog_appends >= 5 * cached.changelog_appends,
        "uncached {} appends vs cached {}",
        base.changelog_appends,
        cached.changelog_appends
    );
}

proptest! {
    /// Caching is a pure performance transform: for ANY input permutation,
    /// ANY commit cadence, and cache capacity off / pathological / ample,
    /// the final store contents, the changelog-restored store, and the
    /// final downstream revision per key are byte-identical — while the
    /// changelog append count only ever shrinks.
    #[test]
    fn cache_size_is_invisible_in_final_revisions(
        events in arb_events(),
        perm_seed in any::<u64>(),
        commit_every in 1usize..20,
    ) {
        let mut events = events;
        permute(&mut events, perm_seed);
        let base = run_cached_pipeline(&events, commit_every, 0);
        prop_assert_eq!(
            &base.store_dump, &base.replayed_dump,
            "uncached changelog restore must rebuild the store exactly"
        );
        for cache in [1usize, 1024] {
            let cached = run_cached_pipeline(&events, commit_every, cache);
            prop_assert_eq!(&base.store_dump, &cached.store_dump, "store (cache={})", cache);
            prop_assert_eq!(
                &cached.store_dump, &cached.replayed_dump,
                "cached changelog restore must rebuild the store exactly (cache={})", cache
            );
            prop_assert_eq!(
                &base.final_outputs, &cached.final_outputs,
                "final downstream revisions (cache={})", cache
            );
            prop_assert!(
                cached.changelog_appends <= base.changelog_appends,
                "caching may only reduce changelog appends: cache={} appends={} uncached={}",
                cache, cached.changelog_appends, base.changelog_appends
            );
        }
    }

    /// Grace-period revision processing: for ANY arrival permutation, the
    /// last revision emitted per (key, window) equals the batch count —
    /// out-of-order records revise rather than corrupt (§5, Figure 6).
    #[test]
    fn windowed_final_revision_is_permutation_invariant(
        events in arb_events(),
        perm_seed in any::<u64>(),
    ) {
        let want = oracle(&events);
        let mut events = events;
        permute(&mut events, perm_seed);
        let (env, _, finals) = run_window_aggregate(&events);
        prop_assert_eq!(env.metrics.late_dropped, 0, "grace covers the span: nothing is late");
        prop_assert_eq!(&finals, &want, "final revisions must match the in-order batch result");
    }

    /// Two arbitrary permutations of the same multiset emit the same final
    /// revision per window (order-independence stated pairwise, without
    /// reference to the oracle's window assignment).
    #[test]
    fn any_two_permutations_agree_on_final_revisions(
        events in arb_events(),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let mut other = events.clone();
        let mut events = events;
        permute(&mut events, seed_a);
        permute(&mut other, seed_b);
        let (_, _, finals_a) = run_window_aggregate(&events);
        let (_, _, finals_b) = run_window_aggregate(&other);
        prop_assert_eq!(finals_a, finals_b);
    }

    /// Suppressed revision processing: for ANY arrival permutation, once
    /// every window is closed exactly ONE final result per (key, window)
    /// is emitted, carrying the complete count (§5's "single final
    /// result" mode).
    #[test]
    fn suppress_emits_one_complete_final_per_window_for_any_permutation(
        events in arb_events(),
        perm_seed in any::<u64>(),
    ) {
        let want = oracle(&events);
        let mut events = events;
        permute(&mut events, perm_seed);

        let windows = TimeWindows::of(WINDOW_MS).grace(GRACE_MS);
        let (mut env, [w, buf]) = env_with([("w", StoreKind::Window), ("buf", StoreKind::KeyValue)]);
        let mut agg = WindowAggregate { store: w, windows, agg: count_agg() };
        let mut suppress = Suppress::new(
            buf,
            SuppressMode::WindowClose { window_size_ms: WINDOW_MS, grace_ms: GRACE_MS },
        );

        for (k, ts) in &events {
            let rec = FlowRecord::stream(
                Some(Bytes::from(vec![*k])),
                Some(Bytes::from_static(b"v")),
                *ts,
            );
            let mut forwarded = Vec::new();
            let mut ctx = ProcessorContext::new(&mut forwarded, &mut env);
            agg.process(&mut ctx, rec);
            // Pipe the aggregate's revisions into the suppress buffer, as
            // the task driver would.
            for revision in std::mem::take(&mut forwarded) {
                let mut ctx = ProcessorContext::new(&mut forwarded, &mut env);
                suppress.process(&mut ctx, revision);
            }
            // Nothing may escape the buffer before its window closes.
            prop_assert!(forwarded.is_empty(), "suppress leaked an early revision");
        }

        // Close every data window: a closer record (key 255, outside the
        // data key range) with a far-future timestamp pushes the suppress
        // operator's observed stream time past `end + grace` everywhere.
        // Its own revision stays buffered (its window never closes) and is
        // excluded from the comparison below.
        let close_all = SPAN_MS + WINDOW_MS + GRACE_MS;
        let mut forwarded = Vec::new();
        {
            let closer = FlowRecord::stream(
                Some(Bytes::from(vec![255u8])),
                Some(Bytes::from_static(b"v")),
                close_all,
            );
            let mut ctx = ProcessorContext::new(&mut forwarded, &mut env);
            agg.process(&mut ctx, closer);
        }
        for revision in std::mem::take(&mut forwarded) {
            let mut ctx = ProcessorContext::new(&mut forwarded, &mut env);
            suppress.process(&mut ctx, revision);
        }
        let mut ctx = ProcessorContext::new(&mut forwarded, &mut env);
        suppress.punctuate(&mut ctx, close_all, 0);

        let mut got: HashMap<(u8, i64), i64> = HashMap::new();
        for out in forwarded {
            let (key, start) = decode_windowed_key(out.key.as_ref().unwrap()).unwrap();
            let value = i64::from_bytes(out.new.as_ref().unwrap()).unwrap();
            let dup = got.insert((key[0], start), value);
            prop_assert!(dup.is_none(), "window ({}, {}) emitted more than once", key[0], start);
        }
        prop_assert_eq!(&got, &want, "each closed window emits its complete count exactly once");
    }
}
