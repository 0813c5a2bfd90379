//! Byte-level operator implementations behind the typed DSL.
//!
//! Each struct here is a [`Processor`] working on raw bytes; the typed DSL
//! wraps user closures into the byte-level function aliases below. The
//! operators divide exactly as §5 prescribes:
//!
//! * **order-agnostic** ([`FnOp`]) — stateless transforms, emitted
//!   immediately, no reordering delay;
//! * **order-sensitive with table output** ([`WindowAggregate`],
//!   [`KvAggregate`], [`SessionAggregate`], [`TableTableJoin`]) — emit
//!   speculatively and send *revisions* (`old`+`new`) on out-of-order input;
//! * **order-sensitive with append-only output** ([`StreamStreamJoin`] in
//!   left/outer mode) — cannot revoke emitted records, so unmatched results
//!   are *held back* until the grace period elapses;
//! * **[`Suppress`]** — optional buffering that consolidates revision storms
//!   before they travel downstream (§5, §6.2).

use crate::dsl::windows::{JoinWindows, SessionWindows, TimeWindows};
use crate::kserde::{decode_list, decode_windowed_key, encode_list, KSerde};
use crate::processor::{Processor, ProcessorContext};
use crate::record::FlowRecord;
use bytes::Bytes;
use std::sync::Arc;

/// Stateless record transform: receives the record, forwards zero or more.
pub type FnOpBody = Arc<dyn Fn(&mut ProcessorContext<'_>, FlowRecord) + Send + Sync>;

/// Stream aggregation step: `(current_aggregate, incoming_value) → aggregate`.
pub type AggFn = Arc<dyn Fn(Option<Bytes>, &Bytes) -> Option<Bytes> + Send + Sync>;

/// Joiner: `(left_value, right_value) → joined` (orientation pre-applied by
/// the DSL; `None` operands encode the outer sides).
pub type JoinFn = Arc<dyn Fn(Option<&Bytes>, Option<&Bytes>) -> Option<Bytes> + Send + Sync>;

/// Session-merge step: fuses two session aggregates.
pub type MergeFn = Arc<dyn Fn(&Bytes, &Bytes) -> Bytes + Send + Sync>;

/// A generic stateless operator (filter / map / flatMap / peek / merge /
/// toStream are all instances).
pub struct FnOp {
    pub body: FnOpBody,
}

impl Processor for FnOp {
    fn process(&mut self, ctx: &mut ProcessorContext<'_>, record: FlowRecord) {
        (self.body)(ctx, record);
    }
}

// ---------------------------------------------------------------------
// Windowed aggregation (Figure 6)
// ---------------------------------------------------------------------

/// Windowed aggregation over a record stream.
///
/// Out-of-order records within the grace period update the window and emit a
/// revision (`old` carries the previously emitted aggregate); records for
/// closed windows are dropped and counted (§5). Expired windows are
/// garbage-collected from the store (Figure 6.d).
pub struct WindowAggregate {
    pub store: String,
    pub windows: TimeWindows,
    pub agg: AggFn,
}

impl Processor for WindowAggregate {
    fn process(&mut self, ctx: &mut ProcessorContext<'_>, record: FlowRecord) {
        let FlowRecord { key: Some(key), new: Some(value), ts, .. } = record else { return };
        ctx.observe_ts(ts);
        let stream_time = ctx.stream_time();
        for start in self.windows.windows_for(ts) {
            if self.windows.is_closed(start, stream_time) {
                ctx.metrics().late_dropped += 1;
                continue;
            }
            // Read, aggregate, write and forward the revision in one step:
            // one descent of the store, and the record cache can coalesce
            // repeated updates of the same window (§6.2).
            let mut revises = false;
            ctx.window_update(&self.store, key.clone(), start, ts, |current| {
                revises = current.is_some();
                (self.agg)(current.cloned(), &value)
            });
            if revises {
                ctx.metrics().revisions_emitted += 1;
            }
        }
        // GC windows whose grace elapsed.
        let horizon = stream_time
            .saturating_sub(self.windows.size_ms)
            .saturating_sub(self.windows.grace_ms)
            .saturating_add(1);
        ctx.window_expire(&self.store, horizon);
    }

    fn punctuate(&mut self, ctx: &mut ProcessorContext<'_>, stream_time: i64, _wall: i64) {
        let horizon = stream_time
            .saturating_sub(self.windows.size_ms)
            .saturating_sub(self.windows.grace_ms)
            .saturating_add(1);
        ctx.window_expire(&self.store, horizon);
    }
}

// ---------------------------------------------------------------------
// Non-windowed aggregation (evolving table)
// ---------------------------------------------------------------------

/// Key-level aggregation producing an evolving table. Handles revision input
/// (`old` present) by retracting through `sub` before accumulating through
/// `add` — the downstream half of §5's revision protocol.
pub struct KvAggregate {
    pub store: String,
    pub add: AggFn,
    /// Retraction step; identity for stream-only inputs that never retract.
    pub sub: AggFn,
}

impl Processor for KvAggregate {
    fn process(&mut self, ctx: &mut ProcessorContext<'_>, record: FlowRecord) {
        let FlowRecord { key: Some(key), old, new, ts } = record else { return };
        if new.is_none() && old.is_none() {
            return;
        }
        ctx.observe_ts(ts);
        if old.is_some() {
            ctx.metrics().revisions_emitted += 1;
        }
        // Read, retract, accumulate, write and forward the revision in one
        // probe of the store (cache-coalescible, §6.2).
        ctx.table_update(&self.store, key, ts, |current| {
            let mut agg = current.cloned();
            if let Some(old) = &old {
                agg = (self.sub)(agg, old);
            }
            if let Some(new) = &new {
                agg = (self.add)(agg, new);
            }
            agg
        });
    }
}

/// Materializes a changelog stream into a table store, turning plain upserts
/// into revisions (`old` = the overwritten value). Used by `builder.table()`
/// and implicit KTable materializations.
pub struct TableMaterialize {
    pub store: String,
}

impl Processor for TableMaterialize {
    fn process(&mut self, ctx: &mut ProcessorContext<'_>, record: FlowRecord) {
        let FlowRecord { key: Some(key), new, ts, .. } = record else { return };
        ctx.observe_ts(ts);
        ctx.table_update(&self.store, key, ts, |_| new);
    }
}

// ---------------------------------------------------------------------
// Session-window aggregation
// ---------------------------------------------------------------------

/// Session-window aggregation: records within the inactivity gap merge into
/// one session; merging retracts the absorbed sessions (revisions) and emits
/// the fused aggregate.
pub struct SessionAggregate {
    pub store: String,
    pub windows: SessionWindows,
    pub agg: AggFn,
    /// Fuses two session aggregates when sessions merge.
    pub merge: MergeFn,
}

impl Processor for SessionAggregate {
    fn process(&mut self, ctx: &mut ProcessorContext<'_>, record: FlowRecord) {
        let (Some(key), Some(value)) = (record.key.clone(), record.new.clone()) else {
            return;
        };
        ctx.observe_ts(record.ts);
        let stream_time = ctx.stream_time();
        if record.ts.saturating_add(self.windows.grace_ms) < stream_time {
            ctx.metrics().late_dropped += 1;
            return;
        }
        let overlapping = ctx.session_find(&self.store, &key, record.ts, self.windows.gap_ms);
        let mut start = record.ts;
        let mut end = record.ts;
        let mut agg = (self.agg)(None, &value);
        for session in &overlapping {
            start = start.min(session.start);
            end = end.max(session.end);
            if let Some(a) = agg {
                agg = Some((self.merge)(&a, &session.value));
            } else {
                agg = Some(session.value.clone());
            }
            ctx.session_remove(&self.store, &key, session.start, session.end);
            // Retract the absorbed session downstream.
            ctx.metrics().revisions_emitted += 1;
            ctx.forward(FlowRecord {
                key: Some(crate::state::Store::windowed_changelog_key(&key, session.start)),
                old: Some(session.value.clone()),
                new: None,
                ts: record.ts,
            });
        }
        let Some(agg) = agg else { return };
        ctx.session_put(&self.store, key.clone(), start, end, agg.clone());
        ctx.forward(FlowRecord {
            key: Some(crate::state::Store::windowed_changelog_key(&key, start)),
            old: None,
            new: Some(agg),
            ts: record.ts,
        });
    }

    fn punctuate(&mut self, ctx: &mut ProcessorContext<'_>, stream_time: i64, _wall: i64) {
        // Sessions whose end fell behind gap + grace can no longer change.
        let horizon =
            stream_time.saturating_sub(self.windows.gap_ms).saturating_sub(self.windows.grace_ms);
        let evicted = ctx.session_expire(&self.store, horizon);
        if !evicted.is_empty() {
            kobs::count("kstreams.session.expired", evicted.len() as u64);
        }
    }
}

// ---------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------

/// Stream-table join: each stream record looks up the table's current value
/// for its key.
pub struct StreamTableJoin {
    pub table_store: String,
    pub joiner: JoinFn,
    /// Left join: emit with `None` table value on miss.
    pub left: bool,
}

impl Processor for StreamTableJoin {
    fn process(&mut self, ctx: &mut ProcessorContext<'_>, record: FlowRecord) {
        let (Some(key), Some(value)) = (record.key.clone(), record.new.clone()) else {
            return;
        };
        ctx.observe_ts(record.ts);
        let table_value = ctx.kv_get(&self.table_store, &key);
        if table_value.is_none() && !self.left {
            return;
        }
        let joined = (self.joiner)(Some(&value), table_value.as_ref());
        ctx.forward(FlowRecord { key: Some(key), old: None, new: joined, ts: record.ts });
    }
}

/// One side of a table-table join. Both inputs are *materialized* table
/// changelog streams: the revision's `old` value arrives on the record and
/// the other side's current value is read from its store. Output is a
/// table, so out-of-order updates are safely amended downstream (§5's
/// table-table example).
pub struct TableTableJoin {
    pub other_store: String,
    /// Oriented joiner: first operand is always the *left* table's value.
    pub joiner: JoinFn,
    pub this_is_left: bool,
}

impl Processor for TableTableJoin {
    fn process(&mut self, ctx: &mut ProcessorContext<'_>, record: FlowRecord) {
        let Some(key) = record.key.clone() else { return };
        ctx.observe_ts(record.ts);
        // The upstream materialization already applied this revision to my
        // store; its prior value travels on the record.
        let my_old = record.old.clone();
        let other = ctx.kv_get(&self.other_store, &key);
        let (old_join, new_join) = if self.this_is_left {
            (
                (self.joiner)(my_old.as_ref(), other.as_ref()),
                (self.joiner)(record.new.as_ref(), other.as_ref()),
            )
        } else {
            (
                (self.joiner)(other.as_ref(), my_old.as_ref()),
                (self.joiner)(other.as_ref(), record.new.as_ref()),
            )
        };
        if old_join.is_none() && new_join.is_none() {
            return;
        }
        if old_join.is_some() {
            ctx.metrics().revisions_emitted += 1;
        }
        ctx.forward(FlowRecord { key: Some(key), old: old_join, new: new_join, ts: record.ts });
    }
}

/// One side of a windowed stream-stream join (§5's left-join example).
///
/// Inner matches are emitted as soon as the second record arrives. For
/// left/outer sides, an unmatched record is *held* (not emitted with a
/// `null` partner) until its window plus grace elapses — because the output
/// is an append-only stream and a premature `(a, null)` could never be
/// revoked (§5).
pub struct StreamStreamJoin {
    pub my_buffer: String,
    pub other_buffer: String,
    /// Pending-unmatched store for *my* side (present iff my side pads).
    pub my_pending: Option<String>,
    /// Pending-unmatched store of the *other* side, to cancel its padding
    /// when my record matches it.
    pub other_pending: Option<String>,
    pub window: JoinWindows,
    /// Oriented joiner: first operand is the left stream's value.
    pub joiner: JoinFn,
    pub this_is_left: bool,
}

impl StreamStreamJoin {
    fn probe_range(&self, ts: i64) -> (i64, i64) {
        if self.this_is_left {
            (ts - self.window.before_ms, ts + self.window.after_ms)
        } else {
            (ts - self.window.after_ms, ts + self.window.before_ms)
        }
    }

    fn oriented(&self, mine: Option<&Bytes>, other: Option<&Bytes>) -> Option<Bytes> {
        if self.this_is_left {
            (self.joiner)(mine, other)
        } else {
            (self.joiner)(other, mine)
        }
    }

    /// Buffered records with timestamp strictly below this horizon can no
    /// longer be matched by any other-side record (their window reach plus
    /// grace has fully elapsed), so their null padding is due.
    fn pad_horizon(&self, stream_time: i64) -> i64 {
        let reach = if self.this_is_left { self.window.after_ms } else { self.window.before_ms };
        stream_time.saturating_sub(reach).saturating_sub(self.window.grace_ms)
    }
}

impl Processor for StreamStreamJoin {
    fn process(&mut self, ctx: &mut ProcessorContext<'_>, record: FlowRecord) {
        let (Some(key), Some(value)) = (record.key.clone(), record.new.clone()) else {
            return;
        };
        ctx.observe_ts(record.ts);
        // Buffer my record (records sharing (key, ts) accumulate in a list).
        let slot = ctx.window_fetch(&self.my_buffer, &key, record.ts);
        let mut list = slot.as_deref().map(|b| decode_list(b).expect("buffer")).unwrap_or_default();
        list.push(value.clone());
        ctx.window_put(&self.my_buffer, key.clone(), record.ts, Some(encode_list(&list)));

        // Probe the other side's buffer.
        let (lo, hi) = self.probe_range(record.ts);
        let matches = ctx.window_fetch_range(&self.other_buffer, &key, lo, hi);
        let mut matched = false;
        for (other_ts, packed) in &matches {
            for other_val in decode_list(packed).expect("buffer") {
                matched = true;
                let joined = self.oriented(Some(&value), Some(&other_val));
                ctx.forward(FlowRecord {
                    key: Some(key.clone()),
                    old: None,
                    new: joined,
                    ts: record.ts.max(*other_ts),
                });
            }
            // The other record is matched now: cancel its pending padding.
            if let Some(op) = self.other_pending.clone() {
                ctx.window_put(&op, key.clone(), *other_ts, None);
            }
        }
        if !matched {
            if let Some(mp) = &self.my_pending {
                let slot = ctx.window_fetch(mp, &key, record.ts);
                let mut pend =
                    slot.as_deref().map(|b| decode_list(b).expect("buffer")).unwrap_or_default();
                pend.push(value);
                let mp = mp.clone();
                ctx.window_put(&mp, key.clone(), record.ts, Some(encode_list(&pend)));
            }
        }
        // GC my buffer: records no other side can reach any more.
        let max_reach = self.window.before_ms.max(self.window.after_ms) + self.window.grace_ms;
        let horizon = ctx.stream_time().saturating_sub(max_reach);
        ctx.window_expire(&self.my_buffer, horizon);
    }

    fn punctuate(&mut self, ctx: &mut ProcessorContext<'_>, stream_time: i64, _wall: i64) {
        let Some(mp) = self.my_pending.clone() else { return };
        // Emit null-padded results for records whose match window (plus
        // grace) has fully elapsed — the §5 hold-then-pad rule. The scan is
        // bounded to the flush horizon: live pending windows above it are
        // never materialized.
        let entries = ctx.window_entries_below(&mp, self.pad_horizon(stream_time));
        for (ts, key, packed) in entries {
            for val in decode_list(&packed).expect("buffer") {
                let joined = self.oriented(Some(&val), None);
                ctx.forward(FlowRecord { key: Some(key.clone()), old: None, new: joined, ts });
            }
            ctx.window_put(mp.as_str(), key, ts, None);
        }
    }
}

// ---------------------------------------------------------------------
// Suppress (§5 tail, §6.2)
// ---------------------------------------------------------------------

/// Suppression policy.
#[derive(Debug, Clone, Copy)]
pub enum SuppressMode {
    /// Buffer windowed revisions; emit one final result when the window
    /// closes (window end + grace ≤ stream time). Input keys must be
    /// windowed keys.
    WindowClose { window_size_ms: i64, grace_ms: i64 },
    /// Coalesce revisions per key, emitting at most one update per
    /// `interval_ms` of stream time (the Expedia configuration, §6.2).
    TimeLimit { interval_ms: i64 },
}

/// Buffers intermediate revisions of an evolving table so "multiple
/// revisions of the same key \[are\] consolidated as a single record" (§5).
pub struct Suppress {
    store: String,
    mode: SuppressMode,
    /// Due-time index over the buffered keys: `(due_ts, key)`. A flush scan
    /// walks only the due prefix instead of the whole store. Rebuilt lazily
    /// whenever it drifts from the store — e.g. after changelog restore
    /// populated the store behind the operator's back.
    due: std::collections::BTreeSet<(i64, Bytes)>,
    /// Stream time as observed through *this operator's own input*, the
    /// flush horizon for `punctuate`. Upstream record caches hold revisions
    /// back until commit, so the task-wide stream time can run ahead of
    /// what this buffer has actually absorbed; closing windows against it
    /// would emit stale finals. Time observed from processed records cannot
    /// run ahead of pending revisions: a revision due before `observed`
    /// was either already absorbed or its source record was late-dropped.
    observed: i64,
}

impl Suppress {
    pub fn new(store: impl Into<String>, mode: SuppressMode) -> Self {
        Self {
            store: store.into(),
            mode,
            due: std::collections::BTreeSet::new(),
            observed: i64::MIN,
        }
    }

    /// Stream time at which the buffered entry for `key` becomes due.
    /// Invariant per key: the windowed start never changes and `first_ts`
    /// is fixed by the first buffered revision, so the due time computed on
    /// insert stays valid for the entry's whole buffered life.
    fn due_ts(&self, key: &Bytes, first_ts: i64) -> i64 {
        match self.mode {
            SuppressMode::WindowClose { window_size_ms, grace_ms } => {
                match decode_windowed_key(key) {
                    Ok((_, start)) => start.saturating_add(window_size_ms).saturating_add(grace_ms),
                    Err(_) => i64::MIN, // non-windowed key: flush immediately
                }
            }
            SuppressMode::TimeLimit { interval_ms } => first_ts.saturating_add(interval_ms),
        }
    }

    /// Re-derive the due index from the store contents.
    fn rebuild_index(&mut self, ctx: &mut ProcessorContext<'_>) {
        self.due.clear();
        for (key, buf) in ctx.kv_entries(&self.store) {
            let (first_ts, _) = <(i64, Bytes)>::from_bytes(&buf).expect("suppress buffer");
            self.due.insert((self.due_ts(&key, first_ts), key));
        }
    }
}

impl Processor for Suppress {
    fn process(&mut self, ctx: &mut ProcessorContext<'_>, record: FlowRecord) {
        let Some(key) = record.key.clone() else { return };
        ctx.observe_ts(record.ts);
        self.observed = self.observed.max(record.ts);
        let existing = ctx.kv_get(&self.store, &key);
        let first_ts = match &existing {
            Some(buf) => {
                ctx.metrics().suppressed += 1;
                <(i64, Bytes)>::from_bytes(buf).expect("suppress buffer").0
            }
            None => record.ts,
        };
        if existing.is_none() {
            self.due.insert((self.due_ts(&key, first_ts), key.clone()));
        }
        let payload = crate::kserde::encode_change(&record.old, &record.new);
        let buf = (first_ts, payload).to_bytes();
        ctx.kv_put(&self.store, key, Some(buf));
    }

    fn punctuate(&mut self, ctx: &mut ProcessorContext<'_>, _stream_time: i64, _wall: i64) {
        let buffered = ctx.kv_len(&self.store);
        if self.due.len() != buffered {
            self.rebuild_index(ctx);
        }
        // Occupancy before flushing: how many keys the buffer is holding
        // back (§6.2's consolidation working set).
        kobs::gauge_max("kstreams.suppress.buffer_occupancy_peak", buffered as i64);
        // Flush against the operator-observed stream time, not the task's:
        // see the `observed` field for why the two can differ under caching.
        // Only the due prefix of the index is visited; live entries above
        // the horizon are neither scanned nor cloned.
        let upper = match self.observed.checked_add(1) {
            Some(hi) => std::ops::Bound::Excluded((hi, Bytes::new())),
            None => std::ops::Bound::Unbounded,
        };
        let due: Vec<(i64, Bytes)> =
            self.due.range((std::ops::Bound::Unbounded, upper)).cloned().collect();
        for (due_ts, key) in due {
            self.due.remove(&(due_ts, key.clone()));
            let Some(buf) = ctx.kv_get(&self.store, &key) else { continue };
            let (first_ts, payload) = <(i64, Bytes)>::from_bytes(&buf).expect("suppress buffer");
            let (old, new) = crate::kserde::decode_change(&payload).expect("suppress buffer");
            ctx.kv_put(&self.store, key.clone(), None);
            ctx.forward(FlowRecord { key: Some(key), old, new, ts: first_ts });
        }
    }
}
