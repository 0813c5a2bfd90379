//! Operator topologies (§3.2–§3.3).
//!
//! A topology is a DAG of sources, processors, and sinks. It is divided into
//! **sub-topologies** at repartition boundaries: consecutive operators with
//! no data shuffling between them are fused into one sub-topology and
//! executed together, record-at-a-time, with no network hop (§3.2). Each
//! sub-topology runs as one task per input partition (§3.3).

pub mod builder;
pub mod node;

pub use builder::InternalBuilder;
pub use node::{Node, NodeKind, NodeTags, ProcessorFactory, TopicRef, ValueMode};

use crate::analyze::Diagnostic;
use crate::config::StreamsConfig;
use crate::state::StoreSpec;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of one task: `(sub-topology index, partition)` (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId {
    pub subtopology: usize,
    pub partition: u32,
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}_{}", self.subtopology, self.partition)
    }
}

/// A task id as a trace field: two integers, shown as the id displays.
impl From<TaskId> for kobs::FieldValue {
    fn from(id: TaskId) -> Self {
        kobs::FieldValue::Pair(id.subtopology as u32, id.partition)
    }
}

/// One sub-topology: a connected group of nodes between shuffle boundaries.
#[derive(Debug, Clone)]
pub struct SubTopology {
    /// Indices into [`Topology::nodes`].
    pub nodes: Vec<usize>,
    /// Topics its source nodes read (external or repartition topics).
    pub source_topics: Vec<TopicRef>,
    /// Store names owned by this sub-topology's processors.
    pub stores: Vec<String>,
}

/// An internal topic the application must create before running:
/// repartition channels and state changelogs (§3.2). Names are logical; the
/// runtime prefixes them with the application id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternalTopic {
    pub name: String,
    pub compacted: bool,
    /// Explicit partition count; `None` means "match the sub-topology's
    /// task count".
    pub partitions: Option<u32>,
}

/// A built, immutable topology shared by all instances of an application.
pub struct Topology {
    pub nodes: Vec<Node>,
    pub subtopologies: Vec<SubTopology>,
    /// Store specs by name, with the owning sub-topology.
    pub stores: BTreeMap<String, (StoreSpec, usize)>,
    pub internal_topics: Vec<InternalTopic>,
    /// Stores restored by replaying a *source topic* instead of a dedicated
    /// changelog — the §3.3 topology optimization (the source of a table is
    /// already a changelog of upserts, so a separate changelog topic would
    /// duplicate it). Maps store name → source topic.
    pub source_changelogs: BTreeMap<String, TopicRef>,
    /// Stores declared but referenced by no processor (verifier rule
    /// `unused-store`). They get no changelog topic and no task instance.
    pub unused_stores: Vec<StoreSpec>,
    /// `(store, node)` pairs where a processor references a store that was
    /// never declared (verifier rule `undeclared-store`).
    pub undeclared_stores: Vec<(String, usize)>,
    /// Diagnostics computed at build time (config-independent rules).
    pub diagnostics: Vec<Diagnostic>,
}

impl Topology {
    /// Run the static verifier (§4/§5 misuse lints) without application
    /// config: config-dependent rules (e.g. EOS changelog checks) are
    /// skipped.
    pub fn verify(&self) -> Vec<Diagnostic> {
        self.diagnostics.clone()
    }

    /// Run the static verifier with application config: adds
    /// guarantee-dependent rules.
    pub fn verify_with(&self, config: &StreamsConfig) -> Vec<Diagnostic> {
        crate::analyze::run(self, Some(config))
    }
    /// The changelog topic (logical name) for a store.
    pub fn changelog_topic(store: &str) -> String {
        format!("{store}-changelog")
    }

    /// Which sub-topology a (logical) topic feeds, if any.
    pub fn subtopology_for_topic(&self, topic: &str) -> Option<usize> {
        self.subtopologies.iter().position(|st| st.source_topics.iter().any(|t| t.name == topic))
    }

    /// Human-readable description (the shape of Figure 3).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (i, st) in self.subtopologies.iter().enumerate() {
            out.push_str(&format!("Sub-topology {i}:\n"));
            for &n in &st.nodes {
                let node = &self.nodes[n];
                match &node.kind {
                    NodeKind::Source { topic, .. } => {
                        out.push_str(&format!(
                            "  Source: {} (topic: {}{})\n",
                            node.name,
                            topic.name,
                            if topic.internal { ", internal" } else { "" }
                        ));
                    }
                    NodeKind::Processor { stores, .. } => {
                        if stores.is_empty() {
                            out.push_str(&format!("  Processor: {}\n", node.name));
                        } else {
                            out.push_str(&format!(
                                "  Processor: {} (stores: {})\n",
                                node.name,
                                stores.join(", ")
                            ));
                        }
                    }
                    NodeKind::Sink { topic, .. } => {
                        out.push_str(&format!(
                            "  Sink: {} (topic: {}{})\n",
                            node.name,
                            topic.name,
                            if topic.internal { ", internal" } else { "" }
                        ));
                    }
                }
            }
        }
        out
    }
}

impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}
