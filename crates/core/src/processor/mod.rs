//! The low-level Processor API and per-record execution context.
//!
//! Operators within a sub-topology are fused (§3.2): [`ProcessorContext::forward`]
//! runs each downstream operator in place, depth-first as in Kafka Streams,
//! with no queue and no network hop. The context also mediates all
//! state-store access so every write is captured for the store's changelog
//! topic (§3.2, §4) — this is what turns "state update" into "log append"
//! and lets transactions cover it.

pub mod driver;

pub use driver::{SinkOutput, SubTopologyDriver, TaskEnv};

use crate::error::StreamsError;
use crate::record::FlowRecord;
use crate::state::{RecordCache, Store, StoreSpec};
use crate::topology::{NodeKind, TaskId, Topology};
use bytes::Bytes;
use driver::{Graph, Slot};
use kbroker::TopicPartition;

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

/// A store's identity within its sub-topology: its position in the
/// sub-topology's store list, which is sorted by name. The driver resolves
/// every name a processor declares into one when it is built (a name that
/// does not resolve is [`StreamsError::InvalidTopology`] there), and from
/// then on a store call indexes [`TaskEnv::stores`] with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreId(usize);

impl StoreId {
    /// The store's position in [`TaskEnv::stores`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// A store instance owned by a task or a standby, with everything resolved
/// for it once.
pub struct StoreEntry {
    pub store: Store,
    pub spec: StoreSpec,
    /// Write-back cache fronting this store's changelog appends and deferred
    /// downstream revisions (capacity 0 = caching off, every write flushes
    /// inline). The store itself stays write-through; only the log-shaped
    /// side effects are buffered here until commit.
    pub cache: RecordCache,
    /// Where this store's writes are logged, `None` for a store without a
    /// changelog. Every captured write carries a copy of this address.
    pub changelog: Option<TopicPartition>,
    /// The local node that owns the store, the first processor to declare
    /// it: cache flushes forward its revisions through that node's
    /// children. `None` for a store no node declares.
    pub owner: Option<usize>,
    /// Where restore replays the store from: its changelog partition, or the
    /// source partition when the source topic is the changelog (§3.3).
    /// `None` for a store that cannot be rebuilt.
    pub restore: Option<TopicPartition>,
    /// Next offset of `restore` to replay; replay starts no lower than the
    /// log start. Moved by replay, a standby promotion or a loaded spill.
    pub position: i64,
}

impl StoreEntry {
    /// Entry with caching disabled.
    pub fn new(store: Store, spec: StoreSpec) -> Self {
        Self::with_cache(store, spec, 0)
    }

    /// Entry buffering up to `cache_max_entries` dirty entries between
    /// commits, logging to the store's logical changelog topic.
    pub fn with_cache(store: Store, spec: StoreSpec, cache_max_entries: usize) -> Self {
        let changelog =
            spec.changelog.then(|| TopicPartition::new(Topology::changelog_topic(&spec.name), 0));
        let cache = RecordCache::new(cache_max_entries);
        Self { store, spec, cache, changelog, owner: None, restore: changelog, position: 0 }
    }

    /// The store table of task `id`: one empty entry per store of its
    /// sub-topology, each at its [`StoreId`], with its physical changelog
    /// partition, restore source and owner node. A task and its standby
    /// both build theirs here, so a promotion moves entries by position.
    pub fn table(
        topology: &Topology,
        id: TaskId,
        app_id: &str,
        cache_max_entries: usize,
    ) -> Result<Vec<Self>, StreamsError> {
        let st = topology
            .subtopologies
            .get(id.subtopology)
            .ok_or_else(|| StreamsError::InvalidTopology("unknown sub-topology".into()))?;
        let partition = |topic: String| TopicPartition::new(topic, id.partition);
        let declares = |node: &usize, name: &String| match &topology.nodes[*node].kind {
            NodeKind::Processor { stores, .. } => stores.contains(name),
            _ => false,
        };
        let entry = |name: &String| {
            let (spec, _) = &topology.stores[name];
            let mut entry =
                Self::with_cache(Store::new(spec.kind), spec.clone(), cache_max_entries);
            entry.changelog = spec
                .changelog
                .then(|| partition(format!("{app_id}-{}", Topology::changelog_topic(name))));
            let source = topology.source_changelogs.get(name).map(|t| partition(t.resolve(app_id)));
            entry.restore = entry.changelog.or(source);
            entry.owner = st.nodes.iter().position(|node| declares(node, name));
            entry
        };
        Ok(st.stores.iter().map(entry).collect())
    }

    /// Whether restore replays this store from its source topic, up to the
    /// committed input offset, rather than from a changelog to its end.
    pub fn source_backed(&self) -> bool {
        self.changelog.is_none() && self.restore.is_some()
    }
}

/// Where a context's forwards go.
enum Downstream<'a> {
    /// Inside a driver: a forward runs the children of `node` in place;
    /// `procs` holds every processor but the running one.
    Run { graph: &'a Graph, procs: &'a mut [Slot], node: usize },
    /// Outside a graph: forwards collect in the caller's buffer.
    Collect(&'a mut Vec<FlowRecord>),
}

/// The context a processor sees while handling one record: the task's
/// environment (stores, outputs, metrics, time) and where forwards go.
pub struct ProcessorContext<'a> {
    downstream: Downstream<'a>,
    env: &'a mut TaskEnv,
}

impl<'a> ProcessorContext<'a> {
    /// Build a context outside any graph, to drive a single [`Processor`]
    /// (unit tests, microbenchmarks): forwards collect in `forwarded`.
    pub fn new(forwarded: &'a mut Vec<FlowRecord>, env: &'a mut TaskEnv) -> Self {
        Self { downstream: Downstream::Collect(forwarded), env }
    }

    /// Forward a record to all downstream operators of the current node,
    /// each running its subtree to completion before this returns.
    pub fn forward(&mut self, record: FlowRecord) {
        match &mut self.downstream {
            Downstream::Run { graph, procs, node } => graph.forward(procs, self.env, *node, record),
            Downstream::Collect(forwarded) => forwarded.push(record),
        }
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

    /// Fail the task with `error`: how an operator that cannot go on (its
    /// bytes do not decode) reports it. The task keeps the first error and
    /// fails its cycle or commit with it ([`TaskEnv::check`]), so nothing
    /// this record did is committed.
    pub fn fail(&mut self, error: StreamsError) {
        self.env.error.get_or_insert(error);
    }

    // ---------------------------------------------------------------
    // Store access. Every mutation's log-shaped side effects — the
    // changelog append (drained by the task into the store's changelog
    // topic) and, for the `*_update` read-modify-writes, the downstream
    // revision — route through the store's write-back record cache when
    // one is enabled, and are emitted inline otherwise. The store itself
    // is always written through, so reads never consult the cache.
    // ---------------------------------------------------------------

    fn entry(&mut self, store: StoreId) -> &mut StoreEntry {
        &mut self.env.stores[store.0]
    }

    /// Apply `write` to `store` and record its side effects. `write`
    /// returns its result, the changelog key (also the forwarded record
    /// key), the new value and the old one, which becomes the revision's
    /// retraction half when `forward` is set.
    ///
    /// With a cache enabled the write coalesces into a dirty entry that the
    /// task flushes at commit; an entry evicted by the capacity bound is
    /// flushed here, through the current node — safe because revisions are
    /// only registered by the single operator that owns the store.
    fn write<R>(
        &mut self,
        store: StoreId,
        ts: i64,
        forward: bool,
        write: impl FnOnce(&mut Store) -> (R, Bytes, Option<Bytes>, Option<Bytes>),
    ) -> R {
        let TaskEnv { stores, changelog: log, metrics, .. } = &mut *self.env;
        let entry = &mut stores[store.0];
        let (result, key, value, old) = write(&mut entry.store);
        let changelog = entry.changelog;
        if changelog.is_none() && !forward {
            return result;
        }
        let revision = if entry.cache.enabled() {
            let outcome = entry.cache.put(key, old, value, ts, forward);
            if outcome.hit {
                metrics.cache_hits += 1;
            } else {
                metrics.cache_misses += 1;
            }
            outcome.evicted.and_then(|(key, e)| {
                metrics.cache_evictions += 1;
                if let Some(changelog) = changelog {
                    metrics.changelog_appends += 1;
                    log.push((changelog, key.clone(), e.new.clone()));
                }
                e.forward.then_some(FlowRecord { key: Some(key), old: e.old, new: e.new, ts: e.ts })
            })
        } else {
            if let Some(changelog) = changelog {
                metrics.changelog_appends += 1;
                log.push((changelog, key.clone(), value.clone()));
            }
            forward.then_some(FlowRecord { key: Some(key), old, new: value, ts })
        };
        if let Some(revision) = revision {
            self.forward(revision);
        }
        result
    }

    /// Key/value get.
    pub fn kv_get(&mut self, store: StoreId, key: &[u8]) -> Option<Bytes> {
        self.entry(store).store.as_kv().get(key)
    }

    /// Key/value put (None deletes); returns the prior value.
    pub fn kv_put(&mut self, store: StoreId, key: Bytes, value: Option<Bytes>) -> Option<Bytes> {
        let ts = self.env.stream_time;
        self.write(store, ts, false, |s| {
            (s.as_kv().put(key.clone(), value.clone()), key, value, None)
        })
    }

    /// Key/value read-modify-write in one probe of the store: `f` maps the
    /// key's current value to its new one (`None` deletes), and the table
    /// revision `old → new` is emitted downstream — deferred and coalesced
    /// through the record cache when one is enabled, so N same-key updates
    /// per commit emit one revision whose `old` is the value before the
    /// first of them.
    pub fn table_update(
        &mut self,
        store: StoreId,
        key: Bytes,
        ts: i64,
        f: impl FnOnce(Option<&Bytes>) -> Option<Bytes>,
    ) {
        self.write(store, ts, true, |s| {
            let (old, new) = s.as_kv().update(key.clone(), f);
            ((), key, new, old)
        });
    }

    /// Number of entries in a KV store (suppress occupancy, index checks).
    pub fn kv_len(&mut self, store: StoreId) -> usize {
        self.entry(store).store.as_kv().len()
    }

    /// Ordered scan of a KV store over `[from, to)` (interactive queries,
    /// table scans).
    pub fn kv_range(&mut self, store: StoreId, from: &[u8], to: &[u8]) -> Vec<(Bytes, Bytes)> {
        self.entry(store)
            .store
            .as_kv()
            .range(from, to)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// All entries of a KV store (suppress-buffer flush scans, interactive
    /// queries).
    pub fn kv_entries(&mut self, store: StoreId) -> Vec<(Bytes, Bytes)> {
        self.entry(store).store.as_kv().iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Windowed fetch.
    pub fn window_fetch(&mut self, store: StoreId, key: &[u8], window_start: i64) -> Option<Bytes> {
        self.entry(store).store.as_window().fetch(key, window_start)
    }

    /// Windowed put; returns the prior value (the `old` of a revision).
    pub fn window_put(
        &mut self,
        store: StoreId,
        key: Bytes,
        window_start: i64,
        value: Option<Bytes>,
    ) -> Option<Bytes> {
        let ck = Store::windowed_changelog_key(&key, window_start);
        let ts = self.env.stream_time;
        self.write(store, ts, false, |s| {
            (s.as_window().put(key, window_start, value.clone()), ck, value, None)
        })
    }

    /// Windowed read-modify-write in one descent of the store: `f` maps the
    /// window's current value to its new one (`None` deletes), and the
    /// window's revision is emitted downstream (keyed by the windowed
    /// changelog key), coalesced through the record cache when one is
    /// enabled.
    pub fn window_update(
        &mut self,
        store: StoreId,
        key: Bytes,
        window_start: i64,
        ts: i64,
        f: impl FnOnce(Option<&Bytes>) -> Option<Bytes>,
    ) {
        let ck = Store::windowed_changelog_key(&key, window_start);
        self.write(store, ts, true, |s| {
            let (old, new) = s.as_window().update(key, window_start, f);
            ((), ck, new, old)
        });
    }

    /// Windowed range fetch for one key.
    pub fn window_fetch_range(
        &mut self,
        store: StoreId,
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
    pub fn window_expire(&mut self, store: StoreId, before: i64) -> Vec<(i64, Bytes, Bytes)> {
        self.entry(store).store.as_window().expire_before(before)
    }

    /// Iterate all windowed entries (interactive queries; flush scans should
    /// use [`window_entries_below`](Self::window_entries_below) instead so
    /// they don't materialize live windows).
    pub fn window_entries(&mut self, store: StoreId) -> Vec<(i64, Bytes, Bytes)> {
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
    pub fn window_entries_below(
        &mut self,
        store: StoreId,
        before: i64,
    ) -> Vec<(i64, Bytes, Bytes)> {
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
        store: StoreId,
        key: &[u8],
        ts: i64,
        gap: i64,
    ) -> Vec<crate::state::session::SessionEntry> {
        self.entry(store).store.as_session().find_overlapping(key, ts, gap)
    }

    /// Store a session.
    pub fn session_put(&mut self, store: StoreId, key: Bytes, start: i64, end: i64, value: Bytes) {
        let ck = crate::state::session::encode_session_key(&key, start, end);
        let ts = self.env.stream_time;
        self.write(store, ts, false, |s| {
            s.as_session().put(key, start, end, value.clone());
            ((), ck, Some(value), None)
        });
    }

    /// Remove a session.
    pub fn session_remove(&mut self, store: StoreId, key: &[u8], start: i64, end: i64) {
        let ck = crate::state::session::encode_session_key(key, start, end);
        let ts = self.env.stream_time;
        self.write(store, ts, false, |s| {
            s.as_session().remove(key, start, end);
            ((), ck, None, None)
        });
    }

    /// Expire sessions ended before `horizon` (grace GC; not changelogged,
    /// same rationale as [`window_expire`](Self::window_expire)). Returns
    /// the evicted `(key, entry)` pairs, mirroring `window_expire` — callers
    /// that emit final results or metrics on eviction get to observe them.
    pub fn session_expire(
        &mut self,
        store: StoreId,
        horizon: i64,
    ) -> Vec<(Bytes, crate::state::session::SessionEntry)> {
        self.entry(store).store.as_session().expire_before(horizon)
    }
}
