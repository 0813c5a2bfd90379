//! Topic naming, partition addressing, and per-topic configuration (§3.1).

use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Deref;
use std::sync::{Mutex, PoisonError};

/// A topic's name, interned: one process-wide copy per distinct name, so
/// the name is a `Copy` pointer that no layer clones or allocates. The lock
/// is taken only when a name enters (topic creation, client setup, decoding
/// a log record), never to compare or hash one: equality, order and hash
/// are the name's, so maps keyed by a topic iterate in name order and hash
/// as a `String` key did.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Topic(&'static str);

impl Topic {
    /// The interned copy of `name`, made on its first use. The interner
    /// keeps every name it is given for the life of the process.
    pub fn new(name: &str) -> Self {
        static NAMES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
        let mut names = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&interned) = names.get(name) {
            return Self(interned);
        }
        let interned: &'static str = Box::leak(name.into());
        names.insert(interned);
        Self(interned)
    }

    /// A name the program already holds for its whole life (the internal
    /// topics), taken without the interner.
    pub(crate) const fn from_static(name: &'static str) -> Self {
        Self(name)
    }
}

impl Deref for Topic {
    type Target = str;

    fn deref(&self) -> &str {
        self.0
    }
}

impl Borrow<str> for Topic {
    fn borrow(&self) -> &str {
        self.0
    }
}

impl fmt::Debug for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.0, f)
    }
}

/// Address of one partition of one topic — the unit of ordering, leadership,
/// replication, and parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TopicPartition {
    pub topic: Topic,
    pub partition: u32,
}

impl TopicPartition {
    pub fn new(topic: impl AsRef<str>, partition: u32) -> Self {
        Self { topic: Topic::new(topic.as_ref()), partition }
    }
}

impl fmt::Display for TopicPartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.topic, self.partition)
    }
}

/// Per-topic configuration.
#[derive(Debug, Clone)]
pub struct TopicConfig {
    /// Number of partitions.
    pub partitions: u32,
    /// Replication factor (clamped to cluster size at creation).
    pub replication: usize,
    /// Whether the topic is log-compacted (changelog topics are, §3.2).
    pub compacted: bool,
    /// Delete records older than this (ms), enforced by
    /// `Cluster::enforce_retention`.
    pub retention_ms: Option<i64>,
    /// Keep at most this many bytes per partition.
    pub retention_bytes: Option<usize>,
}

impl TopicConfig {
    /// A plain topic with `partitions` partitions and the cluster's default
    /// replication factor.
    pub fn new(partitions: u32) -> Self {
        Self {
            partitions,
            replication: 0,
            compacted: false,
            retention_ms: None,
            retention_bytes: None,
        }
    }

    pub fn with_replication(mut self, replication: usize) -> Self {
        self.replication = replication;
        self
    }

    pub fn compacted(mut self) -> Self {
        self.compacted = true;
        self
    }

    /// Delete records older than `ms` on the next retention pass.
    pub fn with_retention_ms(mut self, ms: i64) -> Self {
        assert!(ms >= 0);
        self.retention_ms = Some(ms);
        self
    }

    /// Keep at most `bytes` per partition.
    pub fn with_retention_bytes(mut self, bytes: usize) -> Self {
        self.retention_bytes = Some(bytes);
        self
    }
}

/// Kafka's default partitioner: hash of the key modulo partition count.
/// Records with the same key always land in the same partition, which is the
/// data-locality guarantee key-based operators rely on (§3.3).
pub fn partition_for_key(key: &[u8], num_partitions: u32) -> u32 {
    debug_assert!(num_partitions > 0);
    // FNV-1a: stable across runs (unlike `DefaultHasher`), cheap, good
    // dispersion for short keys.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (hash % num_partitions as u64) as u32
}

/// The partition a record goes to when its sender names only the topic:
/// [`partition_for_key`] of its key, and partition 0 for a keyless record
/// (round-robin is not needed — all workloads in this reproduction are
/// keyed). Every sender that resolves partitions itself must use this rule,
/// or co-partitioned topics stop lining up.
pub fn default_partition(key: Option<&[u8]>, num_partitions: u32) -> u32 {
    key.map_or(0, |k| partition_for_key(k, num_partitions))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format() {
        let tp = TopicPartition::new("orders", 3);
        assert_eq!(tp.to_string(), "orders-3");
    }

    #[test]
    fn partitioner_is_stable_and_in_range() {
        for np in [1u32, 2, 7, 100] {
            for key in [b"a".as_slice(), b"hello", b"", b"key-42"] {
                let p1 = partition_for_key(key, np);
                let p2 = partition_for_key(key, np);
                assert_eq!(p1, p2);
                assert!(p1 < np);
            }
        }
    }

    #[test]
    fn partitioner_disperses() {
        let np = 16;
        let mut hits = vec![0u32; np as usize];
        for i in 0..1600 {
            let key = format!("key-{i}");
            hits[partition_for_key(key.as_bytes(), np) as usize] += 1;
        }
        // Every partition should get a decent share.
        assert!(hits.iter().all(|&h| h > 30), "skewed: {hits:?}");
    }

    #[test]
    fn config_builders() {
        let c = TopicConfig::new(4).with_replication(3).compacted();
        assert_eq!(c.partitions, 4);
        assert_eq!(c.replication, 3);
        assert!(c.compacted);
    }
}
