//! The low-level Processor API and per-record execution context.
//!
//! Operators within a sub-topology are fused (§3.2): an upstream operator
//! hands records directly to downstream operators in memory via
//! [`ProcessorContext::forward`], with no network hop. The context also
//! mediates all state-store access so every write is captured for the
//! store's changelog topic (§3.2, §4) — this is what turns "state update"
//! into "log append" and lets transactions cover it.

pub mod driver;

pub use driver::{SinkOutput, SubTopologyDriver, TaskEnv};

use crate::record::FlowRecord;
use crate::state::{RecordCache, Store, StoreSpec};
use crate::topology::Topology;
use bytes::Bytes;
use kbroker::TopicPartition;
use std::collections::VecDeque;

/// A stream processor: receives one record at a time, may read/write stores
/// and forward records downstream.
///
/// `Send` is a supertrait: an instance (and the tasks and operator
/// instances it owns) moves onto whichever thread runs it, though it is
/// never run by two at once — so no operator needs `Sync`.
pub trait Processor: Send {
    /// Process one input record.
    fn process(&mut self, ctx: &mut ProcessorContext<'_>, record: FlowRecord);

    /// Called after each poll round with the task's current stream time and
    /// wall-clock time. Used by operators with time-driven output (suppress,
    /// outer-join null padding, window GC).
    fn punctuate(&mut self, _ctx: &mut ProcessorContext<'_>, _stream_time: i64, _wall_time: i64) {}
}

/// A store instance plus its changelogging flag, owned by a task.
pub struct StoreEntry {
    pub store: Store,
    pub spec: StoreSpec,
    /// Write-back cache fronting this store's changelog appends and deferred
    /// downstream revisions (capacity 0 = caching off, every write flushes
    /// inline). The store itself stays write-through; only the log-shaped
    /// side effects are buffered here until commit.
    pub cache: RecordCache,
    /// Where this store's writes are logged, `None` for a store without a
    /// changelog. Every captured write carries a copy of this address. An
    /// entry starts with the store's logical changelog topic; the task that
    /// owns it substitutes its own physical changelog partition.
    pub changelog: Option<TopicPartition>,
}

impl StoreEntry {
    /// Entry with caching disabled.
    pub fn new(store: Store, spec: StoreSpec) -> Self {
        Self::with_cache(store, spec, 0)
    }

    /// Entry buffering up to `cache_max_entries` dirty entries between
    /// commits.
    pub fn with_cache(store: Store, spec: StoreSpec, cache_max_entries: usize) -> Self {
        let changelog =
            spec.changelog.then(|| TopicPartition::new(Topology::changelog_topic(&spec.name), 0));
        Self { store, spec, cache: RecordCache::new(cache_max_entries), changelog }
    }
}

/// Queue `record` for each of `children`: a record has one owner per hop, so
/// it is cloned for every child but the last and moved into the last.
pub(crate) fn enqueue(
    queue: &mut VecDeque<(usize, FlowRecord)>,
    children: &[usize],
    record: FlowRecord,
) {
    let Some((&last, rest)) = children.split_last() else { return };
    for &c in rest {
        queue.push_back((c, record.clone()));
    }
    queue.push_back((last, record));
}

/// The context a processor sees while handling one record.
///
/// Borrows the task's environment: stores, output buffers, metrics, and the
/// forward queue of the driver.
pub struct ProcessorContext<'a> {
    /// Children of the currently executing node.
    pub(crate) children: &'a [usize],
    /// The driver's pending-record queue.
    pub(crate) queue: &'a mut VecDeque<(usize, FlowRecord)>,
    /// Task environment: stores, outputs, metrics, time.
    pub(crate) env: &'a mut TaskEnv,
}

impl<'a> ProcessorContext<'a> {
    /// Build a context directly — for driving a single [`Processor`]
    /// outside a task (unit tests, microbenchmarks).
    pub fn new(
        children: &'a [usize],
        queue: &'a mut VecDeque<(usize, FlowRecord)>,
        env: &'a mut TaskEnv,
    ) -> Self {
        Self { children, queue, env }
    }

    /// Forward a record to all downstream operators of the current node.
    pub fn forward(&mut self, record: FlowRecord) {
        enqueue(self.queue, self.children, record);
    }

    /// Current task stream time: the maximum record timestamp observed so
    /// far (drives grace periods and window GC, §5).
    pub fn stream_time(&self) -> i64 {
        self.env.stream_time
    }

    /// Advance stream time (monotone).
    pub fn observe_ts(&mut self, ts: i64) {
        if ts > self.env.stream_time {
            self.env.stream_time = ts;
        }
    }

    /// Partition this task processes (== the task's changelog partition).
    pub fn partition(&self) -> u32 {
        self.env.partition
    }

    /// Mutable access to task metrics.
    pub fn metrics(&mut self) -> &mut crate::metrics::StreamsMetrics {
        &mut self.env.metrics
    }

    // ---------------------------------------------------------------
    // Store access. Every mutation's log-shaped side effects — the
    // changelog append (drained by the task into the store's changelog
    // topic) and, for the `*_update` read-modify-writes, the downstream
    // revision — route through the store's write-back record cache when
    // one is enabled, and are emitted inline otherwise. The store itself
    // is always written through, so reads never consult the cache.
    // ---------------------------------------------------------------

    fn entry(&mut self, store: &str) -> &mut StoreEntry {
        self.env
            .stores
            .get_mut(store)
            .unwrap_or_else(|| panic!("processor accessed undeclared store {store}"))
    }

    /// Record one write's side effects. `changelog_key` is the store-shape
    /// composite key (also the forwarded record key); `old` is the store
    /// value before this write and becomes the revision's retraction half
    /// when `forward` is set.
    ///
    /// With a cache enabled the write coalesces into a dirty entry that the
    /// task flushes at commit; an entry evicted by the capacity bound is
    /// flushed here, through the current node — safe because revisions are
    /// only registered by the single operator that owns the store.
    fn record_write(
        &mut self,
        store: &str,
        changelog_key: Bytes,
        value: Option<Bytes>,
        old: Option<Bytes>,
        ts: i64,
        forward: bool,
    ) {
        let entry = self.entry(store);
        let changelog = entry.changelog;
        if changelog.is_none() && !forward {
            return;
        }
        if !entry.cache.enabled() {
            if let Some(changelog) = changelog {
                self.env.metrics.changelog_appends += 1;
                self.env.changelog.push((changelog, changelog_key.clone(), value.clone()));
            }
            if forward {
                self.forward(FlowRecord { key: Some(changelog_key), old, new: value, ts });
            }
            return;
        }
        let outcome = entry.cache.put(changelog_key, old, value, ts, forward);
        if outcome.hit {
            self.env.metrics.cache_hits += 1;
        } else {
            self.env.metrics.cache_misses += 1;
        }
        if let Some((key, e)) = outcome.evicted {
            self.env.metrics.cache_evictions += 1;
            if let Some(changelog) = changelog {
                self.env.metrics.changelog_appends += 1;
                self.env.changelog.push((changelog, key.clone(), e.new.clone()));
            }
            if e.forward {
                self.forward(FlowRecord { key: Some(key), old: e.old, new: e.new, ts: e.ts });
            }
        }
    }

    /// Key/value get.
    pub fn kv_get(&mut self, store: &str, key: &[u8]) -> Option<Bytes> {
        self.entry(store).store.as_kv().get(key)
    }

    /// Key/value put (None deletes); returns the prior value.
    pub fn kv_put(&mut self, store: &str, key: Bytes, value: Option<Bytes>) -> Option<Bytes> {
        let old = self.entry(store).store.as_kv().put(key.clone(), value.clone());
        let ts = self.env.stream_time;
        self.record_write(store, key, value, None, ts, false);
        old
    }

    /// Key/value read-modify-write in one probe of the store: `f` maps the
    /// key's current value to its new one (`None` deletes), and the table
    /// revision `old → new` is emitted downstream — deferred and coalesced
    /// through the record cache when one is enabled, so N same-key updates
    /// per commit emit one revision whose `old` is the value before the
    /// first of them.
    pub fn table_update(
        &mut self,
        store: &str,
        key: Bytes,
        ts: i64,
        f: impl FnOnce(Option<&Bytes>) -> Option<Bytes>,
    ) {
        let (old, new) = self.entry(store).store.as_kv().update(key.clone(), f);
        self.record_write(store, key, new, old, ts, true);
    }

    /// Number of entries in a KV store (suppress occupancy, index checks).
    pub fn kv_len(&mut self, store: &str) -> usize {
        self.entry(store).store.as_kv().len()
    }

    /// Ordered scan of a KV store over `[from, to)` (interactive queries,
    /// table scans).
    pub fn kv_range(&mut self, store: &str, from: &[u8], to: &[u8]) -> Vec<(Bytes, Bytes)> {
        self.entry(store)
            .store
            .as_kv()
            .range(from, to)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// All entries of a KV store (suppress-buffer flush scans, interactive
    /// queries).
    pub fn kv_entries(&mut self, store: &str) -> Vec<(Bytes, Bytes)> {
        self.entry(store).store.as_kv().iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Windowed fetch.
    pub fn window_fetch(&mut self, store: &str, key: &[u8], window_start: i64) -> Option<Bytes> {
        self.entry(store).store.as_window().fetch(key, window_start)
    }

    /// Windowed put; returns the prior value (the `old` of a revision).
    pub fn window_put(
        &mut self,
        store: &str,
        key: Bytes,
        window_start: i64,
        value: Option<Bytes>,
    ) -> Option<Bytes> {
        let old = self.entry(store).store.as_window().put(key.clone(), window_start, value.clone());
        let ck = Store::windowed_changelog_key(&key, window_start);
        let ts = self.env.stream_time;
        self.record_write(store, ck, value, None, ts, false);
        old
    }

    /// Windowed read-modify-write in one descent of the store: `f` maps the
    /// window's current value to its new one (`None` deletes), and the
    /// window's revision is emitted downstream (keyed by the windowed
    /// changelog key), coalesced through the record cache when one is
    /// enabled.
    pub fn window_update(
        &mut self,
        store: &str,
        key: Bytes,
        window_start: i64,
        ts: i64,
        f: impl FnOnce(Option<&Bytes>) -> Option<Bytes>,
    ) {
        let ck = Store::windowed_changelog_key(&key, window_start);
        let (old, new) = self.entry(store).store.as_window().update(key, window_start, f);
        self.record_write(store, ck, new, old, ts, true);
    }

    /// Windowed range fetch for one key.
    pub fn window_fetch_range(
        &mut self,
        store: &str,
        key: &[u8],
        from: i64,
        to: i64,
    ) -> Vec<(i64, Bytes)> {
        self.entry(store).store.as_window().fetch_range(key, from, to)
    }

    /// Expire windows with start `< before` (grace-period GC, Figure 6.d).
    /// Evictions are *not* changelogged: the changelog bounds its growth via
    /// compaction and restore-side re-expiry instead, mirroring Kafka's
    /// retention-based windowed changelogs.
    pub fn window_expire(&mut self, store: &str, before: i64) -> Vec<(i64, Bytes, Bytes)> {
        self.entry(store).store.as_window().expire_before(before)
    }

    /// Iterate all windowed entries (interactive queries; flush scans should
    /// use [`window_entries_below`](Self::window_entries_below) instead so
    /// they don't materialize live windows).
    pub fn window_entries(&mut self, store: &str) -> Vec<(i64, Bytes, Bytes)> {
        self.entry(store)
            .store
            .as_window()
            .iter()
            .map(|(s, k, v)| (s, k.clone(), v.clone()))
            .collect()
    }

    /// Windowed entries with window start `< before`, in window order — the
    /// bounded flush scan: only windows at-or-below the flush horizon are
    /// cloned, not the whole store.
    pub fn window_entries_below(&mut self, store: &str, before: i64) -> Vec<(i64, Bytes, Bytes)> {
        self.entry(store)
            .store
            .as_window()
            .iter_below(before)
            .map(|(s, k, v)| (s, k.clone(), v.clone()))
            .collect()
    }

    /// Sessions of `key` overlapping `ts ± gap`.
    pub fn session_find(
        &mut self,
        store: &str,
        key: &[u8],
        ts: i64,
        gap: i64,
    ) -> Vec<crate::state::session::SessionEntry> {
        self.entry(store).store.as_session().find_overlapping(key, ts, gap)
    }

    /// Store a session.
    pub fn session_put(&mut self, store: &str, key: Bytes, start: i64, end: i64, value: Bytes) {
        self.entry(store).store.as_session().put(key.clone(), start, end, value.clone());
        let ck = crate::state::session::encode_session_key(&key, start, end);
        let ts = self.env.stream_time;
        self.record_write(store, ck, Some(value), None, ts, false);
    }

    /// Remove a session.
    pub fn session_remove(&mut self, store: &str, key: &[u8], start: i64, end: i64) {
        self.entry(store).store.as_session().remove(key, start, end);
        let ck = crate::state::session::encode_session_key(key, start, end);
        let ts = self.env.stream_time;
        self.record_write(store, ck, None, None, ts, false);
    }

    /// Expire sessions ended before `horizon` (grace GC; not changelogged,
    /// same rationale as [`window_expire`](Self::window_expire)). Returns
    /// the evicted `(key, entry)` pairs, mirroring `window_expire` — callers
    /// that emit final results or metrics on eviction get to observe them.
    pub fn session_expire(
        &mut self,
        store: &str,
        horizon: i64,
    ) -> Vec<(Bytes, crate::state::session::SessionEntry)> {
        self.entry(store).store.as_session().expire_before(horizon)
    }
}
