//! Stream tasks: the unit of parallelism and the read-process-write cycle
//! (§3.3, §4).
//!
//! A task owns one partition of one sub-topology: it consumes that partition
//! of every source topic, drives records through the instantiated operator
//! graph in **timestamp order across inputs** (the deterministic record
//! choice of §7), accumulates sink outputs and changelog appends for the
//! instance's producer, and tracks the input offsets to commit.
//!
//! Tasks are *disposable*: all durable state lives in Kafka (input offsets,
//! changelog topics), so a migrated task is rebuilt anywhere by
//! [`StreamTask::restore`]-ing its stores from the changelogs (§3.3, §4).

use crate::error::StreamsError;
use crate::metrics::StreamsMetrics;
use crate::processor::driver::{SinkOutput, SubTopologyDriver, TaskEnv};
use crate::processor::StoreEntry;
use crate::state::{spill, Store};
use crate::topology::{TaskId, Topology};
use bytes::Bytes;
use kbroker::topic::default_partition;
use kbroker::{Cluster, IsolationLevel, PartitionHandle, Topic, TopicPartition};
use klog::{Record, StoredBatch};
use simkit::{FaultDecision, FaultPoint};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::Path;

/// One input partition of a task, and how far the task has read it.
struct Input {
    tp: TopicPartition,
    /// `tp` resolved at the first fetch (a task is built before it meets
    /// its cluster).
    handle: Option<PartitionHandle>,
    /// The driver's source node for this input's topic.
    source: usize,
    /// Next offset to fetch.
    fetch_position: i64,
    /// Next offset to commit (last processed + 1); `None` until a position
    /// is set or something is processed, and not committed until then.
    processed_position: Option<i64>,
    /// `processed_position` as of the last commit that covered this task.
    committed_position: Option<i64>,
    /// Fetched-but-unprocessed batches: handles to the batches the log
    /// stores, not copies of their records.
    fetched: VecDeque<StoredBatch>,
    /// The next unprocessed entry of `fetched`'s front batch.
    cursor: usize,
}

impl Input {
    /// The next unprocessed record and its offset.
    fn head(&self) -> Option<&(i64, Record)> {
        // Fetched batches are never empty and a finished one is popped at
        // once, so the cursor always addresses an entry of the front batch.
        self.fetched.front().map(|batch| &batch.entries[self.cursor])
    }

    /// Step past the record [`head`](Self::head) returned.
    fn advance(&mut self) {
        self.cursor += 1;
        if self.fetched.front().is_some_and(|batch| self.cursor == batch.len()) {
            self.fetched.pop_front();
            self.cursor = 0;
        }
    }
}

/// When one fetch-and-process pass ran, and what it did: what is needed
/// to trace the pass after the fact.
struct Polled {
    now_ms: i64,
    /// The fetch left records to process.
    buffered: bool,
    failed: bool,
}

impl Polled {
    /// The pass did something worth a span: it had records, or failed.
    fn worked(&self) -> bool {
        self.buffered || self.failed
    }
}

/// A runnable task instance.
pub struct StreamTask {
    pub id: TaskId,
    app_id: String,
    driver: SubTopologyDriver,
    env: TaskEnv,
    /// The input partitions, in the sub-topology's source order (which
    /// breaks timestamp ties between inputs).
    inputs: Vec<Input>,
    /// The sub-topology's sinks, indexed as [`SinkOutput::sink`]: each
    /// physical topic, and its partition count once the first output has
    /// looked it up (0 until then).
    sinks: Vec<(Topic, u32)>,
    /// Whether this task has processed input, produced output, or mutated
    /// state since the last successful commit. A clean task's in-memory
    /// state equals its committed state, so a rebalance that aborts the
    /// in-flight transaction can keep it alive — only dirty tasks need a
    /// close-and-rebuild.
    dirty: bool,
}

impl StreamTask {
    /// Instantiate the task's operator graph and empty stores, with record
    /// caching disabled.
    pub fn new(topology: &Topology, id: TaskId, app_id: &str) -> Result<Self, StreamsError> {
        Self::with_cache(topology, id, app_id, 0)
    }

    /// Instantiate with each store fronted by a write-back record cache of
    /// up to `cache_max_entries` dirty entries (0 = off).
    ///
    /// Everything the hot path addresses by name elsewhere is resolved here,
    /// once: each input's source node, each sink's physical topic, and the
    /// store table ([`StoreEntry::table`]) its processors index.
    pub fn with_cache(
        topology: &Topology,
        id: TaskId,
        app_id: &str,
        cache_max_entries: usize,
    ) -> Result<Self, StreamsError> {
        let st = topology
            .subtopologies
            .get(id.subtopology)
            .ok_or_else(|| StreamsError::InvalidTopology("unknown sub-topology".into()))?;
        let driver = SubTopologyDriver::new(topology, id.subtopology)?;
        let mut env = TaskEnv::new(id.partition);
        env.stores = StoreEntry::table(topology, id, app_id, cache_max_entries)?;
        let inputs = st
            .source_topics
            .iter()
            .map(|t| {
                let source = driver.source(&t.name).ok_or_else(|| {
                    StreamsError::InvalidTopology(format!("no source node reads {}", t.name))
                })?;
                Ok(Input {
                    tp: TopicPartition::new(t.resolve(app_id), id.partition),
                    handle: None,
                    source,
                    fetch_position: 0,
                    processed_position: None,
                    committed_position: None,
                    fetched: VecDeque::new(),
                    cursor: 0,
                })
            })
            .collect::<Result<Vec<Input>, StreamsError>>()?;
        let sinks =
            driver.sink_topics().iter().map(|t| (Topic::new(&t.resolve(app_id)), 0)).collect();
        Ok(Self { id, app_id: app_id.to_string(), driver, env, inputs, sinks, dirty: false })
    }

    /// Whether uncommitted work (processed input, pending output, or store
    /// mutation) has accumulated since the last [`Self::mark_clean`].
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Reset the dirty flag — called by the instance after the commit
    /// covering this task's work succeeds.
    pub fn mark_clean(&mut self) {
        self.dirty = false;
        for input in &mut self.inputs {
            input.committed_position = input.processed_position;
        }
    }

    /// Whether a commit would write anything for this task: it is dirty, or
    /// one of its [`committable_offsets`](Self::committable_offsets) moved
    /// since the last [`mark_clean`](Self::mark_clean) (a fetch that only
    /// skipped markers moves an offset without dirtying the task).
    pub fn commit_needed(&self) -> bool {
        self.dirty
            || self.inputs.iter().any(|input| input.processed_position != input.committed_position)
    }

    /// Adopt the warm stores of a standby replica (§3.3), whose table was
    /// built for the same task: restore will then replay only the changelog
    /// suffix past each store's position, instead of the full changelog.
    pub fn adopt_warm_stores(&mut self, warm: Vec<StoreEntry>) {
        // Only the contents and positions are the standby's: the cache (a
        // standby has none) stays this task's own.
        for (entry, warm) in self.env.stores.iter_mut().zip(warm) {
            entry.store = warm.store;
            entry.position = warm.position;
        }
    }

    /// The physical input partitions this task consumes.
    pub fn input_partitions(&self) -> Vec<TopicPartition> {
        self.inputs.iter().map(|input| input.tp).collect()
    }

    /// The application id this task belongs to.
    pub fn app_id(&self) -> &str {
        &self.app_id
    }

    /// Restore state stores by replaying their changelog topics from the
    /// beginning — "an exact copy of the state is restored by replaying the
    /// corresponding changelog topics" (§3.3). With exactly-once, the replay
    /// reads committed data only, so the restored state matches the last
    /// committed transaction (§4.2.3).
    /// `committed` carries the group's committed input offsets: stores that
    /// use their *source topic* as changelog (§3.3 optimization) restore up
    /// to exactly the committed offset, so state never runs ahead of
    /// processing progress.
    ///
    /// Returns whether the replay *caught up*. `false` means a changelog has
    /// records the replay could not reach — a zombie owner's still-open
    /// transaction pins the last-stable offset below committed records that
    /// were appended after it. Activating the task now would process new
    /// input against stale state, so the caller must park the task and retry
    /// once the pending transaction resolves (fencing restart, abort, or
    /// coordinator timeout). Each store's position moves to where its replay
    /// stopped, so a retry replays only what was appended or became stable
    /// since.
    pub fn restore(
        &mut self,
        cluster: &Cluster,
        isolation: IsolationLevel,
        committed: &HashMap<TopicPartition, i64>,
    ) -> Result<bool, StreamsError> {
        let restore_start_ms = cluster.now_ms();
        let replayed_before = self.env.metrics.restore_records;
        // A loaded spill, a warm standby or a parked attempt already
        // reflects the prefix below each store's position; replay the rest.
        let TaskEnv { stores, metrics, .. } = &mut self.env;
        let caught_up =
            replay_stores(stores, cluster, isolation, committed, &mut metrics.restore_records)?;
        let replayed = self.env.metrics.restore_records - replayed_before;
        if replayed > 0 {
            kobs::count("kstreams.restore.sessions", 1);
            kobs::event!(
                cluster.now_ms(),
                "kstreams",
                "restore_replay",
                task = self.id,
                records = replayed,
                elapsed_ms = cluster.now_ms() - restore_start_ms,
            );
        }
        Ok(caught_up)
    }

    /// Set the consume position of an input partition (from the group's
    /// committed offsets, or earliest).
    pub fn set_position(&mut self, tp: &TopicPartition, offset: i64) {
        if let Some(input) = self.inputs.iter_mut().find(|input| input.tp == *tp) {
            input.fetch_position = offset;
            input.processed_position = Some(offset);
        }
    }

    /// One process cycle — fetch, process up to `max_records`, then run the
    /// time-driven operators at `wall_ms`. Returns the number of records
    /// processed, or the error an operator failed the task with: the
    /// failing record's offset is not counted as processed. Task-local
    /// mutation only: the writes it buffers are the caller's to send.
    ///
    /// The cycle is traced once it ran: a `task` span holding the
    /// [`poll`](Self::poll)'s phases and a `punctuate` span if the
    /// punctuation changed output or cache. A task whose cycle did nothing
    /// records no span at all.
    pub(crate) fn run_cycle(
        &mut self,
        cluster: &Cluster,
        max_records: usize,
        isolation: IsolationLevel,
        wall_ms: i64,
    ) -> Result<usize, StreamsError> {
        let (processed, polled) = self.poll(cluster, max_records, isolation, wall_ms);
        let (result, punctuated) = match processed {
            Ok(n) => {
                let punctuated = self.punctuate(wall_ms);
                (self.env.check().map(|()| n), punctuated)
            }
            Err(e) => (Err(e), false),
        };
        if polled.worked() || punctuated || result.is_err() {
            let span = kobs::child_span!(wall_ms, "task", "task", task = self.id);
            let entered = kobs::ktrace::enter(span);
            self.trace_poll(&polled);
            if punctuated {
                self.trace_phase("punctuate", wall_ms);
            }
            drop(entered);
            // The virtual clock stands still within a step; one microsecond
            // per cycle keeps the tasks of a step distinguishable on the
            // timeline.
            kobs::ktrace::finish_span(span, wall_ms * 1000 + 1);
        }
        result
    }

    /// Fetch available records into per-partition buffers, then process up
    /// to `max_records` of them in timestamp order across inputs. Returns
    /// the number processed. A pass that had records, or failed, records
    /// its `fetch` and `process` spans under the current span.
    pub fn poll_and_process(
        &mut self,
        cluster: &Cluster,
        max_records: usize,
        isolation: IsolationLevel,
    ) -> Result<usize, StreamsError> {
        let (processed, polled) = self.poll(cluster, max_records, isolation, cluster.now_ms());
        if polled.worked() {
            self.trace_poll(&polled);
        }
        processed
    }

    /// The fetch and process phases, untraced: the one implementation
    /// behind [`run_cycle`](Self::run_cycle) and
    /// [`poll_and_process`](Self::poll_and_process), which trace it after
    /// the fact. Both phases are stamped `now_ms`, the caller's one clock
    /// read: a virtual clock stands still within a step.
    fn poll(
        &mut self,
        cluster: &Cluster,
        max_records: usize,
        isolation: IsolationLevel,
        now_ms: i64,
    ) -> (Result<usize, StreamsError>, Polled) {
        let fetched = self.fetch_inputs(cluster, max_records, isolation);
        let buffered = fetched.is_ok() && self.inputs.iter().any(|input| input.head().is_some());
        let processed = fetched.and_then(|()| self.process_fetched(max_records));
        let failed = processed.is_err();
        (processed, Polled { now_ms, buffered, failed })
    }

    /// Record a pass's phases under the current span: its `fetch`, and its
    /// `process` if the fetch left records. Neither phase opens a span or
    /// emits an event of its own, so recording them afterwards, at the time
    /// they ran at, builds the tree recording them live would.
    fn trace_poll(&self, polled: &Polled) {
        self.trace_phase("fetch", polled.now_ms);
        if polled.buffered {
            self.trace_phase("process", polled.now_ms);
        }
    }

    /// Record one finished phase of this task's cycle, run at `at_ms`.
    fn trace_phase(&self, name: &'static str, at_ms: i64) {
        let span = kobs::child_span!(at_ms, "task", name, task = self.id);
        kobs::ktrace::finish_span(span, at_ms * 1000);
    }

    /// Fetch phase: one fetch of up to `max_records` per input partition.
    fn fetch_inputs(
        &mut self,
        cluster: &Cluster,
        max_records: usize,
        isolation: IsolationLevel,
    ) -> Result<(), StreamsError> {
        for input in &mut self.inputs {
            let pos = input.fetch_position;
            let handle = match &input.handle {
                Some(handle) => handle,
                None => input.handle.insert(cluster.partition_handle(&input.tp)?),
            };
            let fetch = match handle.fetch(pos, max_records, isolation) {
                Ok(f) => f,
                // Transient unavailability (broker failover in progress).
                Err(kbroker::BrokerError::NoLeader { .. }) => continue,
                Err(e) => return Err(e.into()),
            };
            // A lost fetch response: no data ingested, position unchanged —
            // the next cycle re-fetches the identical range.
            if cluster.faults().decide(FaultPoint::FetchResponseLost) != FaultDecision::Deliver {
                continue;
            }
            if fetch.next_offset > pos {
                input.fetch_position = fetch.next_offset;
                if fetch.batches.is_empty() {
                    // Only markers or aborted data were skipped: count them
                    // as processed, unless records fetched earlier are still
                    // waiting to be.
                    let processed = input.processed_position.get_or_insert(pos);
                    if *processed == pos {
                        *processed = fetch.next_offset;
                    }
                } else {
                    input.fetched.extend(fetch.batches);
                }
            }
        }
        Ok(())
    }

    /// Process phase: repeatedly pick the buffered head with the smallest
    /// timestamp (§7's deterministic choice; the first input wins a tie).
    fn process_fetched(&mut self, max_records: usize) -> Result<usize, StreamsError> {
        let mut processed = 0;
        while processed < max_records {
            let mut best: Option<(usize, i64)> = None;
            for (i, input) in self.inputs.iter().enumerate() {
                if let Some((_, head)) = input.head() {
                    if best.is_none_or(|(_, ts)| head.timestamp < ts) {
                        best = Some((i, head.timestamp));
                    }
                }
            }
            let Some((input_idx, _)) = best else { break };
            let input = &mut self.inputs[input_idx];
            let (offset, rec) = input.head().expect("head existed");
            let (offset, key, value, ts) =
                (*offset, rec.key.clone(), rec.value.clone(), rec.timestamp);
            input.advance();
            self.driver.process(&mut self.env, input.source, key, value, ts)?;
            input.processed_position = Some(offset + 1);
            processed += 1;
        }
        if processed > 0 {
            self.dirty = true;
        }
        Ok(processed)
    }

    /// Run time-driven operators (suppress flushes, join padding, GC).
    /// Returns whether that changed the task's outputs, changelog or caches.
    fn punctuate(&mut self, wall_time: i64) -> bool {
        let before = self.env.outputs.len() + self.env.changelog.len();
        let cache_before = self.env.cache_dirty_entries();
        self.driver.punctuate(&mut self.env, wall_time);
        let changed = self.env.outputs.len() + self.env.changelog.len() != before
            || self.env.cache_dirty_entries() != cache_before;
        if changed {
            self.dirty = true;
        }
        changed
    }

    /// Write back every store's record cache (the commit-time flush): dirty
    /// entries become changelog appends and coalesced downstream revisions,
    /// which may in turn produce sink outputs. Must run — and its outputs
    /// must be sent — *before* the transaction's offsets, so the flushed
    /// writes commit atomically with the inputs that produced them.
    ///
    /// Flushed revisions can make time-driven output due *within this
    /// commit* (a suppress buffer absorbing the revision that closes a
    /// window), so a punctuation pass runs after the flush — and the
    /// store writes punctuation performs (buffer removals, GC) are flushed
    /// again so their changelog appends ride the same transaction.
    ///
    /// A task an operator failed fails here too, so no commit covers it.
    pub fn flush_caches(&mut self, wall_time: i64) -> Result<(), StreamsError> {
        let dirty = self.env.cache_dirty_entries();
        if dirty == 0 {
            return self.env.check();
        }
        // Flushing moves cached writes into the (abortable) transaction:
        // from here until the commit lands this task is not at its
        // committed state.
        self.dirty = true;
        let span =
            kobs::child_span!(wall_time, "kstreams", "cache_flush", task = self.id, dirty = dirty);
        kobs::gauge_max("kstreams.cache.dirty_entries_peak", dirty as i64);
        let result = self.driver.flush_caches(&mut self.env).and_then(|()| {
            self.driver.punctuate(&mut self.env, wall_time);
            self.driver.flush_caches(&mut self.env)?;
            self.env.check()
        });
        kobs::ktrace::finish_span(span, wall_time * 1000);
        result
    }

    /// Drain this cycle's sink outputs.
    pub fn take_outputs(&mut self) -> Vec<SinkOutput> {
        std::mem::take(&mut self.env.outputs)
    }

    /// Drain this cycle's changelog appends as `(partition, key, value)`.
    pub fn take_changelog(&mut self) -> Vec<(TopicPartition, Bytes, Option<Bytes>)> {
        std::mem::take(&mut self.env.changelog)
    }

    /// The partition of sink `sink`'s topic a record with `key` goes to: the
    /// producer's [`default_partition`] over a partition count looked up
    /// once per sink, at its first output.
    pub(crate) fn sink_partition(
        &mut self,
        cluster: &Cluster,
        sink: usize,
        key: Option<&[u8]>,
    ) -> Result<TopicPartition, StreamsError> {
        let (topic, partitions) = &mut self.sinks[sink];
        if *partitions == 0 {
            *partitions = cluster.partition_count(topic)?;
        }
        Ok(TopicPartition { topic: *topic, partition: default_partition(key, *partitions) })
    }

    /// Offsets to commit: next unprocessed offset per input partition, in
    /// deterministic partition order.
    pub fn committable_offsets(&self) -> Vec<(TopicPartition, i64)> {
        let mut offsets: Vec<(TopicPartition, i64)> = self
            .inputs
            .iter()
            .filter_map(|input| Some((input.tp, input.processed_position?)))
            .collect();
        offsets.sort_by_key(|(tp, _)| *tp);
        offsets
    }

    /// This task's metrics (cumulative).
    pub fn metrics(&self) -> &StreamsMetrics {
        &self.env.metrics
    }

    /// Current stream time.
    pub fn stream_time(&self) -> i64 {
        self.env.stream_time
    }

    /// Read a value from a local KV store (interactive queries — the
    /// Bloomberg state-catalog pattern, §6.1).
    pub fn query_kv(&mut self, store: &str, key: &[u8]) -> Option<Bytes> {
        query_kv(&mut self.env.stores, store, key)
    }

    /// Read a windowed value from a local window store.
    pub fn query_window(&mut self, store: &str, key: &[u8], window_start: i64) -> Option<Bytes> {
        let entry = self.env.stores.iter_mut().find(|e| e.spec.name == store);
        entry.and_then(|e| match &mut e.store {
            Store::Window(s) => s.fetch(key, window_start),
            _ => None,
        })
    }

    /// Deterministic dump of every store's contents as
    /// `store → (changelog key, value)` pairs in key order (the
    /// serial-vs-parallel equivalence oracle).
    pub fn dump_stores(&self) -> BTreeMap<String, Vec<(Bytes, Bytes)>> {
        self.env.stores.iter().map(|e| (e.spec.name.clone(), e.store.dump())).collect()
    }

    // ------------------------------------------------------------------
    // State-store spills (durable warm starts)
    // ------------------------------------------------------------------

    /// Spill every recoverable store's contents to the state directory
    /// (called right after a successful commit). Each spill carries the
    /// changelog watermark replay should resume from: the changelog
    /// partition's post-commit log end, or — for source-as-changelog
    /// stores — the committed input offset.
    pub fn spill_stores(&self, state_dir: &Path, cluster: &Cluster) -> Result<(), StreamsError> {
        let task_id = self.id.to_string();
        for entry in &self.env.stores {
            // No restore source: the store is ephemeral by design.
            let Some(tp) = entry.restore else { continue };
            let watermark = if entry.source_backed() {
                let input = self.inputs.iter().find(|input| input.tp == tp);
                input.and_then(|input| input.processed_position).unwrap_or(0)
            } else if cluster.topic_exists(&tp.topic) {
                cluster.latest_offset(&tp)?
            } else {
                continue;
            };
            let path = spill::spill_path(state_dir, &self.app_id, &task_id, &entry.spec.name);
            let data = spill::StoreSpill { watermark, pairs: entry.store.dump() };
            spill::write_spill(&path, &data).map_err(|e| {
                StreamsError::InvalidOperation(format!("spill write {path:?}: {e}"))
            })?;
        }
        Ok(())
    }

    /// Load spilled stores from the state directory (called before
    /// [`Self::restore`]). A valid spill that is at least as fresh as any
    /// adopted standby state *replaces* the store's contents and moves its
    /// restore position to the spill watermark; missing or corrupt files
    /// are ignored (full changelog replay remains the fallback).
    pub fn load_spills(&mut self, state_dir: &Path) {
        let task_id = self.id.to_string();
        let mut loaded = 0u64;
        for entry in &mut self.env.stores {
            if entry.restore.is_none() {
                continue;
            }
            let path = spill::spill_path(state_dir, &self.app_id, &task_id, &entry.spec.name);
            let Some(data) = spill::read_spill(&path) else { continue };
            if data.watermark < entry.position {
                continue; // the adopted standby state is fresher
            }
            // Replace, not merge: the spill is a complete dump at its
            // watermark, and merging over warm state would resurrect keys
            // deleted between the two positions.
            entry.store = Store::new(entry.spec.kind);
            for (k, v) in &data.pairs {
                entry.store.apply_changelog(k, Some(v.clone()));
            }
            entry.position = data.watermark;
            loaded += 1;
        }
        if loaded > 0 {
            kobs::count("kstreams.spill.stores_loaded", loaded);
        }
    }
}

/// Read `key` from the KV store named `name` (interactive queries, where a
/// human names the store).
pub(crate) fn query_kv(stores: &mut [StoreEntry], name: &str, key: &[u8]) -> Option<Bytes> {
    stores.iter_mut().find(|e| e.spec.name == name).and_then(|e| match &mut e.store {
        Store::Kv(s) => s.get(key),
        _ => None,
    })
}

/// Replay `stores` from their positions: the one loop behind a task's
/// restore and a standby's tailing. Source-backed stores go first, each up
/// to its source partition's offset in `committed` (one with none is
/// skipped: a standby passes no offsets, so it tails changelogs only), then
/// changelog-backed stores to the end the fetch under `isolation` reaches;
/// each group in [`StoreId`](crate::processor::StoreId) order. Each store's
/// position moves to where its replay stopped.
///
/// Returns whether every replay caught up. A partition without a leader
/// makes no progress this pass, and the pass has not caught up.
pub(crate) fn replay_stores(
    stores: &mut [StoreEntry],
    cluster: &Cluster,
    isolation: IsolationLevel,
    committed: &HashMap<TopicPartition, i64>,
    applied: &mut u64,
) -> Result<bool, StreamsError> {
    let mut caught_up = true;
    for source_backed in [true, false] {
        for entry in stores.iter_mut().filter(|e| e.source_backed() == source_backed) {
            let Some(tp) = entry.restore else { continue };
            let until = if source_backed {
                let Some(&bound) = committed.get(&tp) else { continue };
                Some(bound)
            } else {
                None
            };
            if !cluster.topic_exists(&tp.topic) {
                continue;
            }
            let pos = &mut entry.position;
            let replayed = cluster.earliest_offset(&tp).and_then(|start| {
                *pos = (*pos).max(start);
                let store = &mut entry.store;
                cluster.read_log(&tp, pos, until.unwrap_or(i64::MAX), 4096, isolation, |rec| {
                    if let Some(key) = &rec.key {
                        store.apply_changelog(key, rec.value.clone());
                        *applied += 1;
                    }
                })?;
                let end = match until {
                    Some(bound) => bound,
                    None => cluster.latest_offset(&tp)?,
                };
                Ok(*pos >= end)
            });
            match replayed {
                Ok(done) => caught_up &= done,
                Err(kbroker::BrokerError::NoLeader { .. }) => caught_up = false,
                Err(e) => return Err(e.into()),
            }
        }
    }
    Ok(caught_up)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::StreamsBuilder;
    use crate::KSerde;
    use kbroker::{Producer, ProducerConfig, TopicConfig};
    use simkit::FaultPlan;

    fn cluster_with(faults: FaultPlan, topics: &[&str]) -> Cluster {
        let cluster = Cluster::builder().brokers(1).replication(1).faults(faults).build();
        for topic in topics {
            cluster.create_topic(topic, TopicConfig::new(1)).unwrap();
        }
        cluster
    }

    /// Produce one record per timestamp to `topic`, valued `<topic><ts>`, in
    /// batches of two.
    fn produce(cluster: &Cluster, topic: &str, timestamps: &[i64]) {
        let mut producer =
            Producer::new(cluster.clone(), ProducerConfig::default().with_batch_size(2));
        for ts in timestamps {
            let value = format!("{topic}{ts}").to_bytes();
            producer.send(topic, "k".to_string().to_bytes(), value, *ts).unwrap();
        }
        producer.flush().unwrap();
    }

    fn output_values(task: &mut StreamTask) -> Vec<String> {
        task.take_outputs()
            .into_iter()
            .map(|out| String::from_bytes(&out.value.unwrap()).unwrap())
            .collect()
    }

    #[test]
    fn two_inputs_merge_in_timestamp_order_across_batches_and_polls() {
        let cluster = cluster_with(FaultPlan::none(), &["a", "b", "out"]);
        let (a, b): (&[i64], &[i64]) = (&[1, 4, 5, 9, 9], &[2, 3, 5, 8, 9, 10]);
        produce(&cluster, "a", a);
        produce(&cluster, "b", b);
        let builder = StreamsBuilder::new();
        let left = builder.stream::<String, String>("a");
        left.merge(&builder.stream::<String, String>("b")).to("out");
        let topology = builder.build().unwrap();
        let mut task = StreamTask::new(&topology, TaskId { subtopology: 0, partition: 0 }, "app")
            .expect("one sub-topology with two sources");
        assert_eq!(task.input_partitions().len(), 2);

        // Three records per fetch and per poll against batches of two: every
        // poll resumes inside a fetched batch, and every second fetch is cut.
        let mut merged = Vec::new();
        while task.poll_and_process(&cluster, 3, IsolationLevel::ReadUncommitted).unwrap() > 0 {
            merged.extend(output_values(&mut task));
        }
        // Smallest head timestamp first; the first input wins a tie.
        let expected = ["a1", "b2", "b3", "a4", "a5", "b5", "b8", "a9", "a9", "b9", "b10"];
        assert_eq!(merged, expected);
        assert_eq!(
            task.committable_offsets(),
            vec![(TopicPartition::new("a", 0), 5), (TopicPartition::new("b", 0), 6)]
        );
    }

    #[test]
    fn lost_fetch_response_refetches_the_identical_range() {
        let faults =
            FaultPlan::none().script(FaultPoint::FetchResponseLost, 1, FaultDecision::DropAck);
        let cluster = cluster_with(faults.clone(), &["a", "out"]);
        produce(&cluster, "a", &[1, 2, 3, 4, 5]);
        let builder = StreamsBuilder::new();
        builder.stream::<String, String>("a").to("out");
        let topology = builder.build().unwrap();
        let mut task =
            StreamTask::new(&topology, TaskId { subtopology: 0, partition: 0 }, "app").unwrap();
        let input = TopicPartition::new("a", 0);
        task.set_position(&input, 0);

        let isolation = IsolationLevel::ReadUncommitted;
        assert_eq!(task.poll_and_process(&cluster, 100, isolation).unwrap(), 0);
        assert!(output_values(&mut task).is_empty(), "the lost response delivered nothing");
        assert_eq!(task.committable_offsets(), vec![(input, 0)], "and moved nothing");
        assert!(!task.is_dirty());

        assert_eq!(task.poll_and_process(&cluster, 100, isolation).unwrap(), 5);
        assert_eq!(output_values(&mut task), ["a1", "a2", "a3", "a4", "a5"]);
        assert_eq!(task.committable_offsets(), vec![(input, 5)]);
        assert_eq!(task.poll_and_process(&cluster, 100, isolation).unwrap(), 0, "exactly once");
        assert_eq!(faults.observed(FaultPoint::FetchResponseLost), 3);
        assert_eq!(faults.injected(FaultPoint::FetchResponseLost), 1);
    }

    #[test]
    fn failed_cycle_finishes_its_spans() {
        if !kobs::ENABLED {
            return;
        }
        let cluster = cluster_with(FaultPlan::none(), &["a", "out"]);
        let builder = StreamsBuilder::new();
        builder.stream::<String, String>("a").to("out");
        let topology = builder.build().unwrap();
        // Partition 1 of a one-partition topic: the fetch fails.
        let id = TaskId { subtopology: 0, partition: 1 };
        let mut task = StreamTask::new(&topology, id, "app").unwrap();

        let cycle = kobs::span!(0, "kstreams", "cycle");
        let entered = kobs::ktrace::enter(cycle);
        let result = task.run_cycle(&cluster, 100, IsolationLevel::ReadUncommitted, 0);
        drop(entered);
        kobs::ktrace::finish_span(cycle, 0);
        assert!(matches!(result, Err(StreamsError::Broker(_))), "{result:?}");

        // The span store is process-global: this cycle's spans are those
        // under its root.
        let in_cycle = |span: &kobs::Span| Some(span.root) == cycle.id();
        let finished = kobs::ktrace::finished_spans();
        let tree: Vec<_> = finished.iter().filter(|s| in_cycle(s)).map(|s| s.name).collect();
        assert_eq!(tree, ["cycle", "task", "fetch"], "the failing span is in the finished tree");
        assert!(!kobs::ktrace::active_spans().iter().any(in_cycle), "a span was left active");
    }
}
