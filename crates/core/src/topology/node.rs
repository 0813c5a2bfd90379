//! Topology nodes: sources, processors, sinks.

use crate::processor::{Processor, StoreId};
use std::sync::Arc;

/// Creates a fresh processor instance for each task (§3.3: tasks execute
/// independently, each with its own operator instances and state), handed
/// the ids of the stores its node declares, in declaration order.
pub type ProcessorFactory = Arc<dyn Fn(&[StoreId]) -> Box<dyn Processor> + Send + Sync>;

/// How record values cross a topic boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueMode {
    /// Value bytes are the `new` value; `old` does not cross.
    Plain,
    /// Value bytes encode the `(old, new)` revision pair so downstream
    /// tasks can retract prior results (§5).
    Change,
}

/// Reference to a topic, marking whether it is application-internal (name
/// gets prefixed with the application id at runtime, §3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicRef {
    pub name: String,
    pub internal: bool,
}

impl TopicRef {
    pub fn external(name: impl Into<String>) -> Self {
        Self { name: name.into(), internal: false }
    }

    pub fn internal(name: impl Into<String>) -> Self {
        Self { name: name.into(), internal: true }
    }

    /// Physical topic name for an application.
    pub fn resolve(&self, app_id: &str) -> String {
        if self.internal {
            format!("{app_id}-{}", self.name)
        } else {
            self.name.clone()
        }
    }
}

/// Node behaviour.
pub enum NodeKind {
    /// Reads one topic and forwards decoded records to children.
    Source { topic: TopicRef, mode: ValueMode },
    /// Applies a processor (with optional state stores).
    Processor { factory: ProcessorFactory, stores: Vec<String> },
    /// Writes records to a topic.
    Sink { topic: TopicRef, mode: ValueMode },
}

impl std::fmt::Debug for NodeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeKind::Source { topic, mode } => {
                f.debug_struct("Source").field("topic", topic).field("mode", mode).finish()
            }
            NodeKind::Processor { stores, .. } => {
                f.debug_struct("Processor").field("stores", stores).finish_non_exhaustive()
            }
            NodeKind::Sink { topic, mode } => {
                f.debug_struct("Sink").field("topic", topic).field("mode", mode).finish()
            }
        }
    }
}

/// Static metadata the DSL attaches to nodes for the topology verifier
/// (`crate::analyze`). Tags describe *what kind* of operator a node is, so
/// graph-level lints can reason about partitioning and completeness without
/// inspecting opaque processor closures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeTags {
    /// The operator may emit records under a different key than it consumed
    /// (`map`, `select_key`, `flat_map`, `group_by`, custom processors) —
    /// downstream key-based operators need a repartition barrier first.
    pub key_changing: bool,
    /// The operator correlates records from multiple inputs and therefore
    /// requires its inputs to be co-partitioned (joins; `merge`).
    pub join: bool,
    /// Grace period of a windowed operator (§5): how long out-of-order
    /// records are still accepted after the window ends.
    pub grace_ms: Option<i64>,
    /// The operator buffers upstream revisions until window close
    /// (`suppress`); carries the upstream window's grace period if known.
    pub suppress: bool,
}

/// One topology node.
#[derive(Debug)]
pub struct Node {
    pub name: String,
    pub kind: NodeKind,
    /// Downstream node indices within the topology.
    pub children: Vec<usize>,
    /// Verifier metadata (see [`NodeTags`]).
    pub tags: NodeTags,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_ref_resolution() {
        assert_eq!(TopicRef::external("orders").resolve("app"), "orders");
        assert_eq!(TopicRef::internal("agg-repartition").resolve("app"), "app-agg-repartition");
    }
}
