//! Regression tests for the store/suppress/join hot-path sweep:
//!
//! 1. Time-driven flush scans are *bounded* — a punctuation pass over a
//!    large window store materializes only the windows at-or-below its
//!    flush horizon, never the unrelated live ones (the old code cloned
//!    the entire store on every punctuate).
//! 2. `session_expire` returns the evicted `(key, entry)` pairs, mirroring
//!    `window_expire` — the old code silently discarded them, so operators
//!    emitting finals or metrics on eviction could not observe their own
//!    evictions.
//! 3. A suppress or join buffer holding bytes that do not decode fails the
//!    task (`TaskEnv::error`) and forwards nothing, instead of panicking.

use bytes::Bytes;
use kstreams::dsl::ops::{StreamStreamJoin, Suppress, SuppressMode};
use kstreams::dsl::windows::JoinWindows;
use kstreams::processor::driver::TaskEnv;
use kstreams::processor::{Processor, ProcessorContext, StoreEntry, StoreId};
use kstreams::state::{Store, StoreKind, StoreSpec};
use kstreams::{FlowRecord, StreamsError};
use std::sync::Arc;

/// A task environment holding one empty store per `(name, kind)`, and
/// their ids.
fn env_with<const N: usize>(stores: [(&str, StoreKind); N]) -> (TaskEnv, [StoreId; N]) {
    let mut env = TaskEnv::new(0);
    let ids = stores.map(|(name, kind)| {
        env.add_store(StoreEntry::new(Store::new(kind), StoreSpec::new(name, kind)))
    });
    (env, ids)
}

/// The bounded scan returns exactly the windows strictly below the horizon
/// and leaves everything else untouched in the store — on a store where
/// live windows vastly outnumber due ones.
#[test]
fn window_entries_below_materializes_only_the_due_prefix() {
    let (mut env, [w]) = env_with([("w", StoreKind::Window)]);
    let mut forwarded = Vec::new();
    let mut ctx = ProcessorContext::new(&mut forwarded, &mut env);
    // 3 due windows below the horizon, 500 live ones above it.
    for start in [0i64, 100, 999] {
        ctx.window_put(w, Bytes::from(format!("due-{start}")), start, Some(Bytes::from("v")));
    }
    for i in 0..500i64 {
        let start = 1_000 + i * 10;
        ctx.window_put(w, Bytes::from(format!("live-{i}")), start, Some(Bytes::from("v")));
    }
    let scanned = ctx.window_entries_below(w, 1_000);
    assert_eq!(scanned.len(), 3, "only the due prefix is cloned");
    assert!(scanned.iter().all(|(start, _, _)| *start < 1_000));
    assert_eq!(
        ctx.window_entries(w).len(),
        503,
        "the bounded scan reads without evicting; the full-scan API still sees everything"
    );
}

/// A left-join punctuation pass over a buffer holding many live pending
/// records pads exactly the expired ones: live windows are neither emitted
/// nor removed from the pending store.
#[test]
fn join_padding_flush_leaves_live_windows_alone() {
    let window = JoinWindows::of(100).grace(50);
    let (mut env, [lb, rb, lp, rp]) = env_with([
        ("lb", StoreKind::Window),
        ("rb", StoreKind::Window),
        ("lp", StoreKind::Window),
        ("rp", StoreKind::Window),
    ]);
    let mut join = StreamStreamJoin {
        my_buffer: lb,
        other_buffer: rb,
        my_pending: Some(lp),
        other_pending: Some(rp),
        window,
        joiner: Arc::new(|l: Option<&Bytes>, _r: Option<&Bytes>| Ok(l.cloned())),
        this_is_left: true,
    };
    let mut forwarded = Vec::new();
    {
        let mut ctx = ProcessorContext::new(&mut forwarded, &mut env);
        // Two unmatched records whose pad deadline (ts + after + grace < now)
        // has passed, and many that are still within reach of a future match.
        for (i, ts) in [0i64, 40].into_iter().enumerate() {
            ctx.window_put(
                lp,
                Bytes::from(format!("old-{i}")),
                ts,
                Some(kstreams::kserde::encode_list(&[Bytes::from("v")])),
            );
        }
        for i in 0..200i64 {
            ctx.window_put(
                lp,
                Bytes::from(format!("new-{i}")),
                500 + i,
                Some(kstreams::kserde::encode_list(&[Bytes::from("v")])),
            );
        }
        let stream_time = 250; // pad horizon = 250 - 100 - 50 = 100 > {0, 40}
        join.punctuate(&mut ctx, stream_time, 0);
    }
    let padded = std::mem::take(&mut forwarded);
    assert_eq!(padded.len(), 2, "exactly the expired pendings are padded");
    assert!(padded.iter().all(|r| r.ts < 100));
    let mut ctx = ProcessorContext::new(&mut forwarded, &mut env);
    let remaining = ctx.window_entries(lp);
    assert_eq!(remaining.len(), 200, "live pending windows survive the flush");
    assert!(remaining.iter().all(|(start, _, _)| *start >= 500));
}

/// `session_expire` and `window_expire` are symmetric: both return the
/// evicted entries and actually remove them from the store.
#[test]
fn session_expire_returns_evictions_like_window_expire() {
    let (mut env, [s, w]) = env_with([("s", StoreKind::Session), ("w", StoreKind::Window)]);
    let mut forwarded = Vec::new();
    let mut ctx = ProcessorContext::new(&mut forwarded, &mut env);

    ctx.session_put(s, Bytes::from("a"), 0, 50, Bytes::from("s1"));
    ctx.session_put(s, Bytes::from("a"), 200, 260, Bytes::from("s2"));
    ctx.session_put(s, Bytes::from("b"), 10, 80, Bytes::from("s3"));
    let evicted = ctx.session_expire(s, 100);
    let mut labels: Vec<(Bytes, i64, i64, Bytes)> =
        evicted.iter().map(|(k, e)| (k.clone(), e.start, e.end, e.value.clone())).collect();
    labels.sort();
    assert_eq!(
        labels,
        vec![
            (Bytes::from("a"), 0, 50, Bytes::from("s1")),
            (Bytes::from("b"), 10, 80, Bytes::from("s3")),
        ],
        "every expired session is handed back to the caller"
    );
    assert_eq!(
        ctx.session_find(s, b"a", 230, 0),
        vec![kstreams::state::session::SessionEntry {
            start: 200,
            end: 260,
            value: Bytes::from("s2")
        }],
        "live sessions survive"
    );

    ctx.window_put(w, Bytes::from("a"), 0, Some(Bytes::from("w1")));
    ctx.window_put(w, Bytes::from("a"), 200, Some(Bytes::from("w2")));
    let w_evicted = ctx.window_expire(w, 100);
    assert_eq!(w_evicted, vec![(0, Bytes::from("a"), Bytes::from("w1"))]);
    assert_eq!(ctx.window_entries(w), vec![(200, Bytes::from("a"), Bytes::from("w2"))]);
}

/// Bytes that are neither a suppress entry nor a join-buffer list: a
/// length prefix promising more than follows.
const CORRUPT: &[u8] = &[0, 0, 0, 9, 1];

fn record(ts: i64) -> FlowRecord {
    let (key, new) = (Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"v")));
    FlowRecord { key, old: None, new, ts }
}

#[test]
fn a_corrupt_suppress_buffer_fails_the_task() {
    let (mut env, [buf]) = env_with([("buf", StoreKind::KeyValue)]);
    let mut suppress = Suppress::new(buf, SuppressMode::TimeLimit { interval_ms: 10 });
    let mut forwarded = Vec::new();
    let mut ctx = ProcessorContext::new(&mut forwarded, &mut env);
    ctx.kv_put(buf, Bytes::from_static(b"k"), Some(Bytes::from_static(CORRUPT)));
    suppress.process(&mut ctx, record(0));
    assert!(matches!(env.error.take(), Some(StreamsError::Serde(_))), "the record fails");

    // The flush rebuilds its index from the same entry, and fails too.
    let mut ctx = ProcessorContext::new(&mut forwarded, &mut env);
    suppress.punctuate(&mut ctx, 100, 0);
    assert!(matches!(env.error, Some(StreamsError::Serde(_))), "the flush fails");
    assert!(forwarded.is_empty());
}

#[test]
fn a_corrupt_join_buffer_fails_the_task() {
    // Corrupt the joining side's own slot, then the other side's.
    for corrupt_mine in [true, false] {
        let (mut env, [lb, rb]) = env_with([("lb", StoreKind::Window), ("rb", StoreKind::Window)]);
        let mut join = StreamStreamJoin {
            my_buffer: lb,
            other_buffer: rb,
            my_pending: None,
            other_pending: None,
            window: JoinWindows::of(100),
            joiner: Arc::new(|l: Option<&Bytes>, _r: Option<&Bytes>| Ok(l.cloned())),
            this_is_left: true,
        };
        let mut forwarded = Vec::new();
        let mut ctx = ProcessorContext::new(&mut forwarded, &mut env);
        let slot = if corrupt_mine { lb } else { rb };
        ctx.window_put(slot, Bytes::from_static(b"k"), 10, Some(Bytes::from_static(CORRUPT)));
        join.process(&mut ctx, record(10));
        assert!(matches!(env.error, Some(StreamsError::Serde(_))), "mine: {corrupt_mine}");
        assert!(forwarded.is_empty());
    }
}
