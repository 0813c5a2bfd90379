//! The internal (untyped) topology builder.
//!
//! The typed DSL delegates here: it adds named nodes, wires parent→child
//! edges, declares stores and internal topics, and finally [`build`]s the
//! immutable [`Topology`], computing sub-topologies as connected components
//! over in-memory edges (topic boundaries — repartition topics — separate
//! components, §3.2).
//!
//! [`build`]: InternalBuilder::build

use super::node::{Node, NodeKind, NodeTags, ProcessorFactory, TopicRef, ValueMode};
use super::{InternalTopic, SubTopology, Topology};
use crate::error::StreamsError;
use crate::state::StoreSpec;
use std::collections::{BTreeMap, HashMap};

/// Mutable builder accumulating nodes and metadata.
#[derive(Default)]
pub struct InternalBuilder {
    nodes: Vec<Node>,
    names: HashMap<String, usize>,
    stores: BTreeMap<String, StoreSpec>,
    /// store name → node indices that use it.
    store_users: HashMap<String, Vec<usize>>,
    internal_topics: Vec<InternalTopic>,
    /// store name → source topic that doubles as its changelog (§3.3).
    source_changelogs: BTreeMap<String, TopicRef>,
    counter: usize,
    /// The first error of a call that could not return one (a DSL call):
    /// [`build`](Self::build) returns it.
    deferred: Option<StreamsError>,
}

impl InternalBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Generate a unique operator name with the given role prefix
    /// (mirrors Kafka Streams' `KSTREAM-MAP-0000000001` convention).
    pub fn next_name(&mut self, role: &str) -> String {
        let n = self.counter;
        self.counter += 1;
        format!("{role}-{n:010}")
    }

    fn insert(&mut self, name: String, kind: NodeKind) -> Result<usize, StreamsError> {
        if self.names.contains_key(&name) {
            return Err(StreamsError::InvalidTopology(format!("duplicate node name {name}")));
        }
        let idx = self.nodes.len();
        self.names.insert(name.clone(), idx);
        self.nodes.push(Node { name, kind, children: Vec::new(), tags: NodeTags::default() });
        Ok(idx)
    }

    /// Mark a node as key-changing (output key may differ from input key).
    pub fn tag_key_changing(&mut self, node: usize) {
        self.nodes[node].tags.key_changing = true;
    }

    /// Mark a node as a join/merge (inputs must be co-partitioned).
    pub fn tag_join(&mut self, node: usize) {
        self.nodes[node].tags.join = true;
    }

    /// Record the grace period of a windowed operator node.
    pub fn tag_grace(&mut self, node: usize, grace_ms: i64) {
        self.nodes[node].tags.grace_ms = Some(grace_ms);
    }

    /// Mark a node as a suppress operator, with the upstream window's grace
    /// period when known.
    pub fn tag_suppress(&mut self, node: usize, upstream_grace_ms: Option<i64>) {
        self.nodes[node].tags.suppress = true;
        if let Some(g) = upstream_grace_ms {
            self.nodes[node].tags.grace_ms = Some(g);
        }
    }

    /// Add a source node reading `topic`.
    pub fn add_source(
        &mut self,
        name: String,
        topic: TopicRef,
        mode: ValueMode,
    ) -> Result<usize, StreamsError> {
        self.insert(name, NodeKind::Source { topic, mode })
    }

    /// Add a processor node downstream of `parents`.
    pub fn add_processor(
        &mut self,
        name: String,
        factory: ProcessorFactory,
        parents: &[usize],
        stores: Vec<String>,
    ) -> Result<usize, StreamsError> {
        // A reference to an undeclared store is not rejected here: the
        // verifier (`crate::analyze`, rule `undeclared-store`) reports it as
        // an error-severity diagnostic on the built topology, and the
        // driver refuses it when a task is built from that topology.
        let idx = self.insert(name, NodeKind::Processor { factory, stores: stores.clone() })?;
        for s in stores {
            self.store_users.entry(s).or_default().push(idx);
        }
        self.connect(parents, idx)?;
        Ok(idx)
    }

    /// Add a sink node downstream of `parents`.
    pub fn add_sink(
        &mut self,
        name: String,
        topic: TopicRef,
        mode: ValueMode,
        parents: &[usize],
    ) -> Result<usize, StreamsError> {
        let idx = self.insert(name, NodeKind::Sink { topic, mode })?;
        self.connect(parents, idx)?;
        Ok(idx)
    }

    /// Wire explicit parent→child edges (the Processor API's free-form
    /// wiring). The builder only rejects self-edges; larger cycles are
    /// reported by the verifier (`crate::analyze`, rule `cycle`).
    pub fn connect(&mut self, parents: &[usize], child: usize) -> Result<(), StreamsError> {
        for &p in parents {
            if p >= self.nodes.len() {
                return Err(StreamsError::InvalidTopology(format!("unknown parent node {p}")));
            }
            if p == child {
                return Err(StreamsError::InvalidTopology("self edge".into()));
            }
            self.nodes[p].children.push(child);
        }
        Ok(())
    }

    /// Declare a state store.
    pub fn add_store(&mut self, spec: StoreSpec) -> Result<(), StreamsError> {
        if self.stores.contains_key(&spec.name) {
            return Err(StreamsError::InvalidTopology(format!("duplicate store {}", spec.name)));
        }
        self.stores.insert(spec.name.clone(), spec);
        Ok(())
    }

    /// Mark a store as restorable from `topic` directly: no changelog topic
    /// is created and writes are not changelogged — the source *is* the
    /// changelog (§3.3's optimization for tables read straight off a topic).
    pub fn set_source_changelog(
        &mut self,
        store: &str,
        topic: TopicRef,
    ) -> Result<(), StreamsError> {
        let spec = self
            .stores
            .get_mut(store)
            .ok_or_else(|| StreamsError::InvalidTopology(format!("unknown store {store}")))?;
        spec.changelog = false;
        self.source_changelogs.insert(store.to_string(), topic);
        Ok(())
    }

    /// Keep `result`'s error for [`build`](Self::build) to return: how a
    /// typed DSL call, which returns a handle, reports an invalid topology.
    pub fn defer(&mut self, result: Result<(), StreamsError>) {
        if let Err(e) = result {
            self.deferred.get_or_insert(e);
        }
    }

    /// Declare an internal topic (repartition channel).
    pub fn add_internal_topic(&mut self, topic: InternalTopic) {
        if !self.internal_topics.iter().any(|t| t.name == topic.name) {
            self.internal_topics.push(topic);
        }
    }

    /// Build the immutable topology: compute connected components (sub-
    /// topologies), attach stores to the component of their users, and
    /// register changelog topics for changelogged stores.
    pub fn build(mut self) -> Result<Topology, StreamsError> {
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        if let Some(e) = self.deferred {
            return Err(e);
        }
        if self.nodes.is_empty() {
            return Err(StreamsError::InvalidTopology("empty topology".into()));
        }
        // Union-find over undirected in-memory edges.
        let n = self.nodes.len();
        let mut parent: Vec<usize> = (0..n).collect();
        for i in 0..n {
            for &c in self.nodes[i].children.clone().iter() {
                let (a, b) = (find(&mut parent, i), find(&mut parent, c));
                if a != b {
                    parent[a] = b;
                }
            }
        }
        // Nodes sharing a store must be co-located in one sub-topology
        // (e.g. the two sides of a table-table join).
        // Union-find merges commute; the final partition is canonicalized by
        // smallest-node-index grouping below.
        // detlint:allow[unordered-iter] commutative merges; canonicalized after
        for users in self.store_users.values() {
            for w in users.windows(2) {
                let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
                if a != b {
                    parent[a] = b;
                }
            }
        }
        // Group into sub-topologies, ordered by smallest node index so the
        // numbering matches definition order (Figure 3's numbering).
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for i in 0..n {
            let root = find(&mut parent, i);
            groups.entry(root).or_default().push(i);
        }
        let mut groups: Vec<Vec<usize>> = groups.into_values().collect();
        groups.sort_by_key(|g| g[0]);

        let mut subtopologies = Vec::with_capacity(groups.len());
        let mut node_to_sub: HashMap<usize, usize> = HashMap::new();
        for (si, group) in groups.iter().enumerate() {
            let mut source_topics = Vec::new();
            for &ni in group {
                node_to_sub.insert(ni, si);
                if let NodeKind::Source { topic, .. } = &self.nodes[ni].kind {
                    if !source_topics.contains(topic) {
                        source_topics.push(topic.clone());
                    }
                }
            }
            if source_topics.is_empty() {
                return Err(StreamsError::InvalidTopology(format!(
                    "sub-topology {si} has no source"
                )));
            }
            subtopologies.push(SubTopology {
                nodes: group.clone(),
                source_topics,
                stores: Vec::new(),
            });
        }

        // Attach stores to their owning sub-topology and create changelog
        // topics. Declared-but-unused stores are kept aside for the
        // verifier (rule `unused-store`) instead of failing the build.
        let declared: Vec<String> = self.stores.keys().cloned().collect();
        let mut stores: BTreeMap<String, (StoreSpec, usize)> = BTreeMap::new();
        let mut unused_stores = Vec::new();
        for (name, spec) in std::mem::take(&mut self.stores) {
            let users = self.store_users.get(&name).cloned().unwrap_or_default();
            let Some(&first) = users.first() else {
                unused_stores.push(spec);
                continue;
            };
            let sub = node_to_sub[&first];
            subtopologies[sub].stores.push(name.clone());
            if spec.changelog {
                self.internal_topics.push(InternalTopic {
                    name: Topology::changelog_topic(&name),
                    compacted: true,
                    partitions: None,
                });
            }
            stores.insert(name, (spec, sub));
        }
        // Processor references to stores that were never declared — the
        // verifier reports these as errors (rule `undeclared-store`).
        let mut undeclared_stores: Vec<(String, usize)> = Vec::new();
        // detlint:allow[unordered-iter] collected then sorted below
        for (name, users) in &self.store_users {
            if !declared.contains(name) {
                for &u in users {
                    undeclared_stores.push((name.clone(), u));
                }
            }
        }
        undeclared_stores.sort();

        let mut topology = Topology {
            nodes: self.nodes,
            subtopologies,
            stores,
            internal_topics: self.internal_topics,
            source_changelogs: self.source_changelogs,
            unused_stores,
            undeclared_stores,
            diagnostics: Vec::new(),
        };
        // Run the static verifier once at build time; `Topology::verify()`
        // returns this cached result (config-aware checks re-run it).
        topology.diagnostics = crate::analyze::run(&topology, None);
        Ok(topology)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::{Processor, ProcessorContext};
    use crate::record::FlowRecord;
    use crate::state::StoreKind;
    use std::sync::Arc;

    struct Nop;
    impl Processor for Nop {
        fn process(&mut self, _ctx: &mut ProcessorContext<'_>, _record: FlowRecord) {}
    }

    fn nop_factory() -> ProcessorFactory {
        Arc::new(|_| Box::new(Nop))
    }

    #[test]
    fn empty_topology_rejected() {
        assert!(InternalBuilder::new().build().is_err());
    }

    #[test]
    fn linear_chain_is_one_subtopology() {
        let mut b = InternalBuilder::new();
        let src = b.add_source("src".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
        let p = b.add_processor("p".into(), nop_factory(), &[src], vec![]).unwrap();
        b.add_sink("sink".into(), TopicRef::external("out"), ValueMode::Plain, &[p]).unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.subtopologies.len(), 1);
        assert_eq!(t.subtopologies[0].nodes.len(), 3);
        assert_eq!(t.subtopologies[0].source_topics[0].name, "in");
    }

    #[test]
    fn repartition_splits_subtopologies() {
        // Mirrors Figure 3: filter/map before the repartition topic,
        // aggregation after it.
        let mut b = InternalBuilder::new();
        let src = b
            .add_source("src".into(), TopicRef::external("pageview-events"), ValueMode::Plain)
            .unwrap();
        let map = b.add_processor("map".into(), nop_factory(), &[src], vec![]).unwrap();
        b.add_sink(
            "repart-sink".into(),
            TopicRef::internal("agg-repartition"),
            ValueMode::Plain,
            &[map],
        )
        .unwrap();
        let src2 = b
            .add_source(
                "repart-src".into(),
                TopicRef::internal("agg-repartition"),
                ValueMode::Plain,
            )
            .unwrap();
        let agg = b.add_processor("agg".into(), nop_factory(), &[src2], vec![]).unwrap();
        b.add_sink(
            "sink".into(),
            TopicRef::external("pageview-windowed-counts"),
            ValueMode::Plain,
            &[agg],
        )
        .unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.subtopologies.len(), 2, "split at the repartition topic");
        assert_eq!(t.subtopology_for_topic("pageview-events"), Some(0));
        assert_eq!(t.subtopology_for_topic("agg-repartition"), Some(1));
        let desc = t.describe();
        assert!(desc.contains("Sub-topology 0"));
        assert!(desc.contains("Sub-topology 1"));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = InternalBuilder::new();
        b.add_source("x".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
        assert!(b.add_source("x".into(), TopicRef::external("in2"), ValueMode::Plain).is_err());
    }

    #[test]
    fn unknown_store_surfaces_as_diagnostic() {
        let mut b = InternalBuilder::new();
        let src = b.add_source("s".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
        b.add_processor("p".into(), nop_factory(), &[src], vec!["ghost".into()]).unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.undeclared_stores, vec![("ghost".to_string(), 1)]);
        assert!(t.verify().iter().any(|d| d.rule == crate::analyze::Rule::UndeclaredStore
            && d.severity == crate::analyze::Severity::Error));
    }

    #[test]
    fn store_creates_changelog_topic() {
        let mut b = InternalBuilder::new();
        let src = b.add_source("s".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
        b.add_store(StoreSpec::new("counts", StoreKind::KeyValue)).unwrap();
        b.add_processor("p".into(), nop_factory(), &[src], vec!["counts".into()]).unwrap();
        let t = b.build().unwrap();
        assert!(t.internal_topics.iter().any(|it| it.name == "counts-changelog" && it.compacted));
        assert_eq!(t.stores["counts"].1, 0, "store owned by sub-topology 0");
        assert_eq!(t.subtopologies[0].stores, vec!["counts".to_string()]);
    }

    #[test]
    fn non_changelogged_store_has_no_topic() {
        let mut b = InternalBuilder::new();
        let src = b.add_source("s".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
        b.add_store(StoreSpec::new("tmp", StoreKind::KeyValue).without_changelog()).unwrap();
        b.add_processor("p".into(), nop_factory(), &[src], vec!["tmp".into()]).unwrap();
        let t = b.build().unwrap();
        assert!(t.internal_topics.is_empty());
    }

    #[test]
    fn shared_store_merges_subtopologies() {
        // Two unconnected chains sharing one store must be fused.
        let mut b = InternalBuilder::new();
        let s1 = b.add_source("s1".into(), TopicRef::external("a"), ValueMode::Plain).unwrap();
        let s2 = b.add_source("s2".into(), TopicRef::external("b"), ValueMode::Plain).unwrap();
        b.add_store(StoreSpec::new("shared", StoreKind::KeyValue)).unwrap();
        b.add_processor("p1".into(), nop_factory(), &[s1], vec!["shared".into()]).unwrap();
        b.add_processor("p2".into(), nop_factory(), &[s2], vec!["shared".into()]).unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.subtopologies.len(), 1);
        assert_eq!(t.subtopologies[0].source_topics.len(), 2);
    }

    #[test]
    fn generated_names_are_unique() {
        let mut b = InternalBuilder::new();
        let a = b.next_name("KSTREAM-MAP");
        let c = b.next_name("KSTREAM-MAP");
        assert_ne!(a, c);
        assert!(a.starts_with("KSTREAM-MAP-"));
    }
}
