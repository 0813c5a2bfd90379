//! Executes one sub-topology's operator graph for one task.
//!
//! Records enter at a source node and run depth-first through the fused
//! operators, as in Kafka Streams: a child runs its whole subtree before its
//! next sibling starts, which in a linear chain is the order a FIFO queue
//! would give. Sink nodes emit into the task's output buffer, which the task
//! later sends through the (possibly transactional) producer — the
//! "read-process" half of the read-process-write cycle (§4).

use super::{Downstream, Processor, ProcessorContext, StoreEntry, StoreId};
use crate::error::StreamsError;
use crate::kserde::{decode_change, encode_change};
use crate::metrics::StreamsMetrics;
use crate::record::FlowRecord;
use crate::topology::node::{NodeKind, TopicRef, ValueMode};
use crate::topology::Topology;
use bytes::Bytes;
use kbroker::TopicPartition;
use std::collections::HashMap;

/// One record bound for a sink topic.
#[derive(Debug, Clone)]
pub struct SinkOutput {
    /// Which of the sub-topology's sinks emitted it: an index into
    /// [`SubTopologyDriver::sink_topics`], resolved to a topic once per task
    /// instead of carried by name on every record.
    pub sink: usize,
    pub key: Option<Bytes>,
    /// Wire value (change-encoded when the sink crosses a table boundary).
    pub value: Option<Bytes>,
    pub ts: i64,
}

/// Mutable task state shared with processors during execution.
pub struct TaskEnv {
    /// The sub-topology's stores, indexed by [`StoreId`]: in name order.
    pub stores: Vec<StoreEntry>,
    /// Records produced to sinks this cycle.
    pub outputs: Vec<SinkOutput>,
    /// Captured store mutations: `(changelog partition, changelog key,
    /// value)`. The partition is the writing store's `Copy` changelog
    /// address ([`StoreEntry::changelog`]), so capturing a write allocates
    /// nothing.
    pub changelog: Vec<(TopicPartition, Bytes, Option<Bytes>)>,
    pub metrics: StreamsMetrics,
    /// Max record timestamp observed by this task (§5's stream time).
    pub stream_time: i64,
    /// The task's partition number.
    pub partition: u32,
    /// The first error an operator failed the task with
    /// ([`ProcessorContext::fail`]).
    pub error: Option<StreamsError>,
}

impl TaskEnv {
    pub fn new(partition: u32) -> Self {
        Self {
            stores: Vec::new(),
            outputs: Vec::new(),
            changelog: Vec::new(),
            metrics: StreamsMetrics::default(),
            stream_time: i64::MIN,
            partition,
            error: None,
        }
    }

    /// `Err` with the error an operator failed the task with, if one did.
    pub fn check(&self) -> Result<(), StreamsError> {
        self.error.clone().map_or(Ok(()), Err)
    }

    /// Add a store at the next position, returning its id: how a caller
    /// driving processors without a driver gives them stores.
    pub fn add_store(&mut self, entry: StoreEntry) -> StoreId {
        self.stores.push(entry);
        StoreId(self.stores.len() - 1)
    }

    /// Total dirty record-cache entries across this task's stores.
    pub fn cache_dirty_entries(&self) -> usize {
        self.stores.iter().map(|e| e.cache.len()).sum()
    }

    /// Flush one store's record cache: every dirty entry becomes a changelog
    /// append (when the store is changelogged), and entries registered for
    /// forwarding are returned — in changelog-key order, so seed replays are
    /// byte-identical regardless of write order — for the caller to route to
    /// the owning node's children.
    pub fn flush_cache(&mut self, store: StoreId) -> Vec<FlowRecord> {
        let entry = &mut self.stores[store.0];
        if entry.cache.is_empty() {
            return Vec::new();
        }
        let drained = entry.cache.drain_sorted();
        kobs::counter!("kstreams.cache.flush_entries").add(drained.len() as u64);
        let mut forwards = Vec::new();
        for (key, e) in drained {
            if let Some(changelog) = entry.changelog {
                self.metrics.changelog_appends += 1;
                self.changelog.push((changelog, key.clone(), e.new.clone()));
            }
            if e.forward {
                forwards.push(FlowRecord { key: Some(key), old: e.old, new: e.new, ts: e.ts });
            }
        }
        forwards
    }
}

enum RuntimeKind {
    Source { mode: ValueMode },
    Proc,
    Sink { sink: usize, mode: ValueMode },
}

/// A node's processor: `None` for sources and sinks, and while it runs.
pub(crate) type Slot = Option<Box<dyn Processor>>;

/// A sub-topology's fixed shape. Processors live apart, in the driver's
/// slots: a hop borrows the graph and takes only the processor it runs.
pub(crate) struct Graph {
    kinds: Vec<RuntimeKind>,
    /// Each node's children; no edge enters a source.
    children: Vec<Vec<usize>>,
}

impl Graph {
    /// Hand `record` to every child of `node`, each running its subtree to
    /// completion before the next starts: cloned for all but the last child,
    /// moved into the last.
    pub(crate) fn forward(
        &self,
        procs: &mut [Slot],
        env: &mut TaskEnv,
        node: usize,
        record: FlowRecord,
    ) {
        let Some((&last, rest)) = self.children[node].split_last() else { return };
        for &child in rest {
            self.run(procs, env, child, record.clone());
        }
        self.run(procs, env, last, record);
    }

    /// Run one node on `record`: a sink emits it, a processor processes it.
    fn run(&self, procs: &mut [Slot], env: &mut TaskEnv, node: usize, record: FlowRecord) {
        match self.kinds[node] {
            RuntimeKind::Sink { sink, mode } => {
                let value = match mode {
                    ValueMode::Plain => record.new,
                    ValueMode::Change => Some(encode_change(&record.old, &record.new)),
                };
                env.metrics.records_emitted += 1;
                env.outputs.push(SinkOutput { sink, key: record.key, value, ts: record.ts });
            }
            RuntimeKind::Proc => {
                let mut p = procs[node].take().expect("processor present");
                let downstream = Downstream::Run { graph: self, procs, node };
                p.process(&mut ProcessorContext { downstream, env }, record);
                procs[node] = Some(p);
            }
            RuntimeKind::Source { .. } => unreachable!("the driver refuses edges into a source"),
        }
    }
}

/// An instantiated sub-topology graph for one task.
pub struct SubTopologyDriver {
    graph: Graph,
    procs: Vec<Slot>,
    /// Logical source-topic name → local source node.
    sources: HashMap<String, usize>,
    /// The topic of every sink node, in node order; a [`SinkOutput`] names
    /// its sink by position here.
    sinks: Vec<TopicRef>,
    /// The order cache flushes visit the stores in: as the nodes first
    /// declare them, then the stores no node declares.
    flush_order: Vec<StoreId>,
}

impl SubTopologyDriver {
    /// Instantiate the given sub-topology: fresh processor instances per
    /// task (§3.3), each handed the [`StoreId`]s of the stores it declares,
    /// in declaration order. An edge into a source node, and a declared
    /// store the sub-topology does not hold, are refused.
    pub fn new(topology: &Topology, subtopology: usize) -> Result<Self, StreamsError> {
        let st = topology
            .subtopologies
            .get(subtopology)
            .ok_or_else(|| StreamsError::InvalidTopology("unknown sub-topology".into()))?;
        let mut global_to_local: HashMap<usize, usize> = HashMap::new();
        for (li, &gi) in st.nodes.iter().enumerate() {
            global_to_local.insert(gi, li);
        }
        let mut graph = Graph { kinds: Vec::new(), children: Vec::new() };
        let mut procs = Vec::with_capacity(st.nodes.len());
        let mut sources = HashMap::new();
        let mut sinks = Vec::new();
        let mut flush_order = Vec::new();
        for (li, &gi) in st.nodes.iter().enumerate() {
            let node = &topology.nodes[gi];
            let children = node
                .children
                .iter()
                .map(|c| {
                    global_to_local.get(c).copied().ok_or_else(|| {
                        StreamsError::InvalidTopology(format!(
                            "edge from {} crosses a sub-topology without a topic",
                            node.name
                        ))
                    })
                })
                .collect::<Result<Vec<usize>, _>>()?;
            let (kind, proc) = match &node.kind {
                NodeKind::Source { topic, mode } => {
                    sources.insert(topic.name.clone(), li);
                    (RuntimeKind::Source { mode: *mode }, None)
                }
                NodeKind::Processor { factory, stores } => {
                    let resolve = |name: &String| {
                        let id = st.stores.iter().position(|s| s == name).map(StoreId);
                        id.ok_or_else(|| {
                            StreamsError::InvalidTopology(format!(
                                "{} declares store {name}, which was never added",
                                node.name
                            ))
                        })
                    };
                    let ids = stores.iter().map(resolve).collect::<Result<Vec<_>, _>>()?;
                    flush_order.extend(&ids);
                    (RuntimeKind::Proc, Some(factory(&ids)))
                }
                NodeKind::Sink { topic, mode } => {
                    sinks.push(topic.clone());
                    (RuntimeKind::Sink { sink: sinks.len() - 1, mode: *mode }, None)
                }
            };
            graph.kinds.push(kind);
            graph.children.push(children);
            procs.push(proc);
        }
        let is_source = |&&c: &&usize| matches!(graph.kinds[c], RuntimeKind::Source { .. });
        if let Some(&li) = graph.children.iter().flatten().find(is_source) {
            return Err(StreamsError::InvalidTopology(format!(
                "edge into source node {}",
                topology.nodes[st.nodes[li]].name
            )));
        }
        // Stores attached to the sub-topology but declared by no node still
        // need their caches flushed (changelog only, nothing to forward).
        // Each store is flushed where it first appears.
        flush_order.extend((0..st.stores.len()).map(StoreId));
        let mut seen = vec![false; st.stores.len()];
        flush_order.retain(|id| !std::mem::replace(&mut seen[id.0], true));
        Ok(Self { graph, procs, sources, sinks, flush_order })
    }

    /// The source node reading the logical topic `topic`, if there is one.
    /// A task looks its inputs up once and feeds [`process`](Self::process)
    /// the node from then on.
    pub fn source(&self, topic: &str) -> Option<usize> {
        self.sources.get(topic).copied()
    }

    /// The topic of every sink, indexed as [`SinkOutput::sink`].
    pub fn sink_topics(&self) -> &[TopicRef] {
        &self.sinks
    }

    /// Feed one input record in at source node `source`, running every
    /// downstream operator to completion. Fails if an operator failed the
    /// task, on this record or before.
    pub fn process(
        &mut self,
        env: &mut TaskEnv,
        source: usize,
        key: Option<Bytes>,
        value: Option<Bytes>,
        ts: i64,
    ) -> Result<(), StreamsError> {
        // Decode according to the source's value mode.
        let record = match self.graph.kinds.get(source) {
            Some(RuntimeKind::Source { mode: ValueMode::Plain }) => {
                FlowRecord { key, new: value, old: None, ts }
            }
            Some(RuntimeKind::Source { mode: ValueMode::Change }) => {
                let (old, new) = match &value {
                    Some(v) => decode_change(v)?,
                    None => (None, None),
                };
                FlowRecord { key, new, old, ts }
            }
            _ => {
                return Err(StreamsError::InvalidOperation(format!(
                    "node {source} is not a source"
                )));
            }
        };
        if ts > env.stream_time {
            env.stream_time = ts;
        }
        env.metrics.records_processed += 1;
        self.graph.forward(&mut self.procs, env, source, record);
        env.check()
    }

    /// Run all processors' punctuators in node order (suppress flushes,
    /// join padding, GC). Their forwards run downstream at once, ahead of
    /// the downstream operators' own punctuators.
    pub fn punctuate(&mut self, env: &mut TaskEnv, wall_time: i64) {
        let stream_time = env.stream_time;
        for node in 0..self.procs.len() {
            let Some(mut p) = self.procs[node].take() else { continue };
            let downstream = Downstream::Run { graph: &self.graph, procs: &mut self.procs, node };
            p.punctuate(&mut ProcessorContext { downstream, env }, stream_time, wall_time);
            self.procs[node] = Some(p);
        }
    }

    /// Flush every store's record cache through the operator graph (the
    /// commit-time write-back): dirty entries become changelog appends, and
    /// revisions registered for forwarding travel to the owning node's
    /// children like any processed record. A pass flushes every cache before
    /// it forwards anything, so a revision dirtying a *downstream* cache
    /// (e.g. a suppress buffer's) waits for the next pass. Passes repeat
    /// until the graph is clean — bounded by graph depth in a DAG.
    pub fn flush_caches(&mut self, env: &mut TaskEnv) -> Result<(), StreamsError> {
        for _ in 0..=self.procs.len() {
            let mut flushed = Vec::new();
            for &store in &self.flush_order {
                let records = env.flush_cache(store);
                if let (Some(owner), false) = (env.stores[store.0].owner, records.is_empty()) {
                    flushed.push((owner, records));
                }
            }
            if flushed.is_empty() {
                return Ok(());
            }
            for (owner, records) in flushed {
                for record in records {
                    self.graph.forward(&mut self.procs, env, owner, record);
                }
            }
        }
        Err(StreamsError::InvalidOperation("record-cache flush did not converge".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{StoreKind, StoreSpec};
    use crate::topology::builder::InternalBuilder;
    use crate::topology::{ProcessorFactory, TaskId};
    use std::sync::Arc;

    /// Doubles the numeric value and forwards.
    struct Doubler;
    impl Processor for Doubler {
        fn process(&mut self, ctx: &mut ProcessorContext<'_>, mut record: FlowRecord) {
            if let Some(v) = &record.new {
                let n: i64 = i64::from_be_bytes(v.as_ref().try_into().unwrap());
                record.new = Some(Bytes::copy_from_slice(&(n * 2).to_be_bytes()));
            }
            ctx.forward(record);
        }
    }

    /// Counts records per key in a KV store.
    struct Counter {
        store: StoreId,
    }
    impl Processor for Counter {
        fn process(&mut self, ctx: &mut ProcessorContext<'_>, record: FlowRecord) {
            let key = record.key.clone().unwrap();
            let old = ctx.kv_get(self.store, &key);
            let n = old.map_or(0, |b| i64::from_be_bytes(b.as_ref().try_into().unwrap()));
            let new = Bytes::copy_from_slice(&(n + 1).to_be_bytes());
            ctx.kv_put(self.store, key.clone(), Some(new.clone()));
            ctx.forward(FlowRecord { key: Some(key), new: Some(new), old: None, ts: record.ts });
        }
    }

    /// The environment of task 0 of `t`'s first sub-topology, its store
    /// caches holding up to `cache` entries.
    fn task_env(t: &Topology, cache: usize) -> TaskEnv {
        let mut env = TaskEnv::new(0);
        let id = TaskId { subtopology: 0, partition: 0 };
        env.stores = StoreEntry::table(t, id, "app", cache).unwrap();
        env
    }

    fn i64b(n: i64) -> Bytes {
        Bytes::copy_from_slice(&n.to_be_bytes())
    }

    /// Feed one record in at the source of topic `in`.
    fn process_in(
        driver: &mut SubTopologyDriver,
        env: &mut TaskEnv,
        key: Option<Bytes>,
        value: Option<Bytes>,
        ts: i64,
    ) -> Result<(), StreamsError> {
        let source = driver.source("in").expect("topology reads `in`");
        driver.process(env, source, key, value, ts)
    }

    #[test]
    fn linear_pipeline_transforms_and_sinks() {
        let mut b = InternalBuilder::new();
        let src = b.add_source("s".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
        let p =
            b.add_processor("d".into(), Arc::new(|_| Box::new(Doubler)), &[src], vec![]).unwrap();
        b.add_sink("k".into(), TopicRef::external("out"), ValueMode::Plain, &[p]).unwrap();
        let t = b.build().unwrap();
        let mut driver = SubTopologyDriver::new(&t, 0).unwrap();
        let mut env = TaskEnv::new(0);
        process_in(&mut driver, &mut env, Some(Bytes::from_static(b"k")), Some(i64b(21)), 7)
            .unwrap();
        assert_eq!(env.outputs.len(), 1);
        assert_eq!(env.outputs[0].value, Some(i64b(42)));
        assert_eq!(env.outputs[0].ts, 7);
        assert_eq!(env.stream_time, 7);
        assert_eq!(env.metrics.records_processed, 1);
        assert_eq!(env.metrics.records_emitted, 1);
    }

    #[test]
    fn stateful_processor_captures_changelog() {
        let mut b = InternalBuilder::new();
        let src = b.add_source("s".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
        b.add_store(StoreSpec::new("c", StoreKind::KeyValue)).unwrap();
        let p = b
            .add_processor(
                "cnt".into(),
                Arc::new(|s| Box::new(Counter { store: s[0] })),
                &[src],
                vec!["c".into()],
            )
            .unwrap();
        b.add_sink("k".into(), TopicRef::external("out"), ValueMode::Plain, &[p]).unwrap();
        let t = b.build().unwrap();
        let mut driver = SubTopologyDriver::new(&t, 0).unwrap();
        let mut env = task_env(&t, 0);
        for i in 0..3 {
            process_in(&mut driver, &mut env, Some(Bytes::from_static(b"k")), Some(i64b(0)), i)
                .unwrap();
        }
        assert_eq!(env.changelog.len(), 3, "every state update captured as a log append");
        assert_eq!(env.outputs.last().unwrap().value, Some(i64b(3)));
        assert_eq!(env.stores[0].store.len(), 1);
    }

    #[test]
    fn change_mode_sink_and_source_round_trip() {
        // Sink encodes (old, new); a Change source decodes it back.
        let mut b = InternalBuilder::new();
        let src = b.add_source("s".into(), TopicRef::external("in"), ValueMode::Change).unwrap();
        b.add_sink("k".into(), TopicRef::external("out"), ValueMode::Change, &[src]).unwrap();
        let t = b.build().unwrap();
        let mut driver = SubTopologyDriver::new(&t, 0).unwrap();
        let mut env = TaskEnv::new(0);
        let wire = encode_change(&Some(i64b(1)), &Some(i64b(2)));
        process_in(&mut driver, &mut env, Some(Bytes::from_static(b"k")), Some(wire.clone()), 0)
            .unwrap();
        assert_eq!(env.outputs[0].value, Some(wire));
    }

    /// Every output as `(sink topic, key, value, ts)`, in emission order.
    fn outputs_by_topic(
        driver: &SubTopologyDriver,
        env: &TaskEnv,
    ) -> Vec<(String, Option<Bytes>, Option<Bytes>, i64)> {
        let topics = driver.sink_topics();
        env.outputs
            .iter()
            .map(|o| (topics[o.sink].name.clone(), o.key.clone(), o.value.clone(), o.ts))
            .collect()
    }

    #[test]
    fn fanout_forwards_to_all_children() {
        // A source and a processor with `fanout` sinks each: whether a child
        // got the record by clone (all but the last) or by move (the last,
        // or the only one), every child sees the same record.
        for fanout in 1..=3 {
            let mut b = InternalBuilder::new();
            let src = b.add_source("s".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
            let p = b
                .add_processor("d".into(), Arc::new(|_| Box::new(Doubler)), &[src], vec![])
                .unwrap();
            for i in 0..fanout {
                let (raw, doubled) = (format!("raw{i}"), format!("doubled{i}"));
                b.add_sink(raw.clone(), TopicRef::external(raw), ValueMode::Plain, &[src]).unwrap();
                b.add_sink(doubled.clone(), TopicRef::external(doubled), ValueMode::Plain, &[p])
                    .unwrap();
            }
            let t = b.build().unwrap();
            let mut driver = SubTopologyDriver::new(&t, 0).unwrap();
            let mut env = TaskEnv::new(0);
            let key = Some(Bytes::from_static(b"k"));
            process_in(&mut driver, &mut env, key.clone(), Some(i64b(21)), 7).unwrap();
            let mut got = outputs_by_topic(&driver, &env);
            got.sort();
            let mut want = Vec::new();
            for i in 0..fanout {
                want.push((format!("doubled{i}"), key.clone(), Some(i64b(42)), 7));
            }
            for i in 0..fanout {
                want.push((format!("raw{i}"), key.clone(), Some(i64b(21)), 7));
            }
            assert_eq!(got, want, "fanout {fanout}");
            assert_eq!(env.metrics.records_emitted, 2 * fanout as u64);
        }
    }

    #[test]
    fn cache_flush_revision_reaches_every_child_of_the_owner() {
        let mut b = InternalBuilder::new();
        let src = b.add_source("s".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
        b.add_store(StoreSpec::new("t", StoreKind::KeyValue)).unwrap();
        let owner = b
            .add_processor(
                "table".into(),
                Arc::new(|s| Box::new(crate::dsl::ops::TableMaterialize { store: s[0] })),
                &[src],
                vec!["t".into()],
            )
            .unwrap();
        for out in ["out1", "out2", "out3"] {
            b.add_sink(out.into(), TopicRef::external(out), ValueMode::Change, &[owner]).unwrap();
        }
        let t = b.build().unwrap();
        let mut driver = SubTopologyDriver::new(&t, 0).unwrap();
        let mut env = task_env(&t, 8);
        let key = Some(Bytes::from_static(b"k"));
        for (ts, v) in [(1, 10), (2, 11), (3, 12)] {
            process_in(&mut driver, &mut env, key.clone(), Some(i64b(v)), ts).unwrap();
        }
        assert!(env.outputs.is_empty(), "revisions wait in the cache");
        driver.flush_caches(&mut env).unwrap();
        // One coalesced revision (nothing → 12, stamped by the last write),
        // delivered to each of the owner's three children.
        let revision = Some(encode_change(&None, &Some(i64b(12))));
        let want: Vec<_> = ["out1", "out2", "out3"]
            .into_iter()
            .map(|out| (out.to_string(), key.clone(), revision.clone(), 3))
            .collect();
        assert_eq!(outputs_by_topic(&driver, &env), want);
        assert_eq!(env.changelog.len(), 1, "three writes, one changelog append");
    }

    #[test]
    fn unknown_source_topic_errors() {
        let mut b = InternalBuilder::new();
        b.add_source("s".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
        let t = b.build().unwrap();
        let mut driver = SubTopologyDriver::new(&t, 0).unwrap();
        let mut env = TaskEnv::new(0);
        assert_eq!(driver.source("other"), None);
        let not_a_source = driver.source("in").unwrap() + 1;
        assert!(driver.process(&mut env, not_a_source, None, None, 0).is_err());
    }

    /// Forwards every record twice, values 1 and 2.
    struct Twice;
    impl Processor for Twice {
        fn process(&mut self, ctx: &mut ProcessorContext<'_>, record: FlowRecord) {
            for n in [1, 2] {
                ctx.forward(FlowRecord { new: Some(i64b(n)), ..record.clone() });
            }
        }
    }

    /// Forwards the number of records the task had emitted when it ran.
    struct EmittedSoFar;
    impl Processor for EmittedSoFar {
        fn process(&mut self, ctx: &mut ProcessorContext<'_>, record: FlowRecord) {
            let emitted = ctx.metrics().records_emitted as i64;
            ctx.forward(FlowRecord { new: Some(i64b(emitted)), ..record });
        }
    }

    #[test]
    fn a_forward_runs_the_whole_subtree_of_a_child_before_the_next_child() {
        // source → {A → one, B → two}: A's two records reach its sink
        // before B runs, so B sees them emitted. A FIFO queue would run B
        // before either reached `one`, and B would read 0.
        let mut b = InternalBuilder::new();
        let src = b.add_source("s".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
        let a = b.add_processor("a".into(), Arc::new(|_| Box::new(Twice)), &[src], vec![]).unwrap();
        let bp = b
            .add_processor("b".into(), Arc::new(|_| Box::new(EmittedSoFar)), &[src], vec![])
            .unwrap();
        b.add_sink("one".into(), TopicRef::external("one"), ValueMode::Plain, &[a]).unwrap();
        b.add_sink("two".into(), TopicRef::external("two"), ValueMode::Plain, &[bp]).unwrap();
        let t = b.build().unwrap();
        let mut driver = SubTopologyDriver::new(&t, 0).unwrap();
        let mut env = TaskEnv::new(0);
        let key = Some(Bytes::from_static(b"k"));
        process_in(&mut driver, &mut env, key.clone(), Some(i64b(0)), 5).unwrap();
        let want = vec![
            ("one".to_string(), key.clone(), Some(i64b(1)), 5),
            ("one".to_string(), key.clone(), Some(i64b(2)), 5),
            ("two".to_string(), key, Some(i64b(2)), 5),
        ];
        assert_eq!(outputs_by_topic(&driver, &env), want);
    }

    #[test]
    fn an_edge_into_a_source_is_refused_at_build() {
        let mut b = InternalBuilder::new();
        let src = b.add_source("s".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
        let p =
            b.add_processor("d".into(), Arc::new(|_| Box::new(Doubler)), &[src], vec![]).unwrap();
        let back =
            b.add_source("back".into(), TopicRef::external("back"), ValueMode::Plain).unwrap();
        b.connect(&[p], back).unwrap();
        let t = b.build().unwrap();
        match SubTopologyDriver::new(&t, 0) {
            Err(StreamsError::InvalidTopology(msg)) => assert!(msg.contains("back"), "{msg}"),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a graph forwarding into a source must be refused"),
        }
    }

    #[test]
    fn a_long_chain_fits_a_default_thread_stack() {
        // Depth-first dispatch recurses once per hop: 256 typed
        // `map_values` in a row must run on a 2 MiB stack, unoptimized.
        const HOPS: i64 = 256;
        let run = || {
            let builder = crate::StreamsBuilder::new();
            let mut stream = builder.stream::<String, i64>("in");
            for _ in 0..HOPS {
                stream = stream.map_values(|_, v| v + 1);
            }
            stream.to("out");
            let t = builder.build().unwrap();
            let mut driver = SubTopologyDriver::new(&t, 0).unwrap();
            let mut env = TaskEnv::new(0);
            let key = Some(crate::KSerde::to_bytes(&"k".to_string()));
            process_in(&mut driver, &mut env, key, Some(crate::KSerde::to_bytes(&0i64)), 0)
                .unwrap();
            env.outputs[0].value.clone()
        };
        let out = std::thread::Builder::new().stack_size(2 << 20).spawn(run).unwrap();
        assert_eq!(out.join().unwrap(), Some(crate::KSerde::to_bytes(&HOPS)));
    }

    #[test]
    fn an_undeclared_store_is_refused_at_build() {
        let mut b = InternalBuilder::new();
        let src = b.add_source("s".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
        b.add_store(StoreSpec::new("c", StoreKind::KeyValue)).unwrap();
        let factory: ProcessorFactory = Arc::new(|s| Box::new(Counter { store: s[1] }));
        b.add_processor("cnt".into(), factory, &[src], vec!["c".into(), "ghost".into()]).unwrap();
        let t = b.build().unwrap();
        match SubTopologyDriver::new(&t, 0) {
            Err(StreamsError::InvalidTopology(msg)) => assert!(msg.contains("ghost"), "{msg}"),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a processor declaring a store never added must be refused"),
        }
        let id = TaskId { subtopology: 0, partition: 0 };
        assert!(matches!(
            crate::task::StreamTask::new(&t, id, "app"),
            Err(StreamsError::InvalidTopology(_))
        ));
    }

    /// Records the store ids it was built with as its output values.
    struct Ids(Vec<StoreId>);
    impl Processor for Ids {
        fn process(&mut self, ctx: &mut ProcessorContext<'_>, record: FlowRecord) {
            for id in &self.0 {
                ctx.forward(FlowRecord { new: Some(i64b(id.index() as i64)), ..record.clone() });
            }
        }
    }

    #[test]
    fn a_processor_gets_its_store_ids_in_declaration_order() {
        let mut b = InternalBuilder::new();
        let src = b.add_source("s".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
        for name in ["a", "b", "c"] {
            b.add_store(StoreSpec::new(name, StoreKind::KeyValue)).unwrap();
        }
        let ids: ProcessorFactory = Arc::new(|s| Box::new(Ids(s.to_vec())));
        let p = b
            .add_processor("p".into(), ids, &[src], vec!["c".into(), "a".into(), "b".into()])
            .unwrap();
        b.add_sink("k".into(), TopicRef::external("out"), ValueMode::Plain, &[p]).unwrap();
        let t = b.build().unwrap();
        let mut driver = SubTopologyDriver::new(&t, 0).unwrap();
        let mut env = task_env(&t, 0);
        let names: Vec<&str> = env.stores.iter().map(|e| e.spec.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"], "the store table is in name order");
        process_in(&mut driver, &mut env, None, None, 0).unwrap();
        let got: Vec<_> = env.outputs.iter().map(|o| o.value.clone().unwrap()).collect();
        assert_eq!(got, [i64b(2), i64b(0), i64b(1)], "ids in declaration order");
    }

    #[test]
    fn stream_time_is_monotone() {
        let mut b = InternalBuilder::new();
        let src = b.add_source("s".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
        b.add_sink("k".into(), TopicRef::external("out"), ValueMode::Plain, &[src]).unwrap();
        let t = b.build().unwrap();
        let mut driver = SubTopologyDriver::new(&t, 0).unwrap();
        let mut env = TaskEnv::new(0);
        process_in(&mut driver, &mut env, None, Some(i64b(1)), 100).unwrap();
        process_in(&mut driver, &mut env, None, Some(i64b(1)), 50).unwrap(); // out of order
        assert_eq!(env.stream_time, 100, "stream time never regresses");
    }
}
