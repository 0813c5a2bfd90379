//! State stores (§3.2, §4).
//!
//! Stateful operators read and write local stores; every write is also
//! captured as an append to a compacted *changelog topic*, making the store
//! a "disposable materialized view" (§4): a migrated or recovered task
//! rebuilds the store by replaying the changelog.
//!
//! Three store shapes cover the DSL:
//! * [`kv::KvStore`] — plain key/value (non-windowed aggregates, table
//!   materializations), hash-indexed, scans sorted by key,
//! * [`window::WindowStore`] — `(window_start, key)` → value: a tree of
//!   window starts, each with a hash bucket of keys, scans sorted by
//!   `(start, key)`, with stream-time-driven expiry implementing the grace
//!   period (§5),
//! * [`session::SessionStore`] — variable-length session windows per key.

pub mod cache;
pub mod kv;
pub mod session;
pub mod spill;
pub mod window;

pub use cache::{DirtyEntry, PutOutcome, RecordCache};
pub use kv::KvStore;
pub use session::SessionStore;
pub use window::WindowStore;

use crate::kserde::{decode_windowed_key, encode_windowed_key};
use bytes::Bytes;

/// What shape of store an operator needs (declared in the topology).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    KeyValue,
    Window,
    Session,
}

/// A store declaration attached to a processor node.
#[derive(Debug, Clone)]
pub struct StoreSpec {
    pub name: String,
    pub kind: StoreKind,
    /// Whether writes replicate to a changelog topic (§3.2: on by default).
    pub changelog: bool,
    /// Retention of the changelog topic in ms; `None` means unbounded
    /// (compaction only). Windowed/session stores must retain at least
    /// window size + grace (§5), or late records can no longer be restored
    /// after a failover — the verifier's `grace-exceeds-retention` rule
    /// checks this.
    pub retention_ms: Option<i64>,
}

impl StoreSpec {
    pub fn new(name: impl Into<String>, kind: StoreKind) -> Self {
        Self { name: name.into(), kind, changelog: true, retention_ms: None }
    }

    /// Disable changelogging (volatile store).
    pub fn without_changelog(mut self) -> Self {
        self.changelog = false;
        self
    }

    /// Bound changelog retention to `ms` milliseconds.
    pub fn with_retention_ms(mut self, ms: i64) -> Self {
        assert!(ms > 0);
        self.retention_ms = Some(ms);
        self
    }
}

/// A concrete store instance owned by one task.
#[derive(Debug)]
pub enum Store {
    Kv(KvStore),
    Window(WindowStore),
    Session(SessionStore),
}

impl Store {
    pub fn new(kind: StoreKind) -> Self {
        match kind {
            StoreKind::KeyValue => Store::Kv(KvStore::new()),
            StoreKind::Window => Store::Window(WindowStore::new()),
            StoreKind::Session => Store::Session(SessionStore::new()),
        }
    }

    /// Apply one changelog record during restore-by-replay. The changelog
    /// key encodes the store-shape-specific composite key.
    pub fn apply_changelog(&mut self, key: &Bytes, value: Option<Bytes>) {
        match self {
            Store::Kv(s) => {
                s.put(key.clone(), value);
            }
            Store::Window(s) => {
                if let Ok((k, start)) = decode_windowed_key(key) {
                    s.put(k, start, value);
                }
            }
            Store::Session(s) => {
                if let Ok((k, range)) = session::decode_session_key(key) {
                    match value {
                        Some(v) => s.put(k, range.0, range.1, v),
                        None => s.remove(&k, range.0, range.1),
                    }
                }
            }
        }
    }

    /// Encode the changelog key for a windowed entry.
    pub fn windowed_changelog_key(key: &[u8], window_start: i64) -> Bytes {
        encode_windowed_key(key, window_start)
    }

    /// Dump every entry as `(changelog key, value)` in key order — a
    /// store-shape-independent fingerprint of the contents (equivalence
    /// tests, interactive debugging).
    pub fn dump(&self) -> Vec<(Bytes, Bytes)> {
        let mut out: Vec<(Bytes, Bytes)> = match self {
            // A KV store's changelog key is its key, which `iter` sorts by.
            Store::Kv(s) => return s.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            Store::Window(s) => s
                .iter()
                .map(|(start, k, v)| (Self::windowed_changelog_key(k, start), v.clone()))
                .collect(),
            Store::Session(s) => s
                .iter()
                .map(|(k, e)| (session::encode_session_key(k, e.start, e.end), e.value.clone()))
                .collect(),
        };
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Total entries (tests, metrics).
    pub fn len(&self) -> usize {
        match self {
            Store::Kv(s) => s.len(),
            Store::Window(s) => s.len(),
            Store::Session(s) => s.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn as_kv(&mut self) -> &mut KvStore {
        match self {
            Store::Kv(s) => s,
            _ => panic!("store is not key-value"),
        }
    }

    pub fn as_window(&mut self) -> &mut WindowStore {
        match self {
            Store::Window(s) => s,
            _ => panic!("store is not windowed"),
        }
    }

    pub fn as_session(&mut self) -> &mut SessionStore {
        match self {
            Store::Session(s) => s,
            _ => panic!("store is not session"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_new_matches_kind() {
        assert!(matches!(Store::new(StoreKind::KeyValue), Store::Kv(_)));
        assert!(matches!(Store::new(StoreKind::Window), Store::Window(_)));
        assert!(matches!(Store::new(StoreKind::Session), Store::Session(_)));
    }

    #[test]
    fn kv_changelog_replay() {
        let mut s = Store::new(StoreKind::KeyValue);
        s.apply_changelog(&Bytes::from_static(b"a"), Some(Bytes::from_static(b"1")));
        s.apply_changelog(&Bytes::from_static(b"a"), Some(Bytes::from_static(b"2")));
        s.apply_changelog(&Bytes::from_static(b"b"), Some(Bytes::from_static(b"9")));
        s.apply_changelog(&Bytes::from_static(b"b"), None);
        assert_eq!(s.as_kv().get(b"a"), Some(Bytes::from_static(b"2")));
        assert_eq!(s.as_kv().get(b"b"), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn window_changelog_replay() {
        let mut s = Store::new(StoreKind::Window);
        let key = Store::windowed_changelog_key(b"k", 5000);
        s.apply_changelog(&key, Some(Bytes::from_static(b"v")));
        assert_eq!(s.as_window().fetch(b"k", 5000), Some(Bytes::from_static(b"v")));
        s.apply_changelog(&key, None);
        assert_eq!(s.as_window().fetch(b"k", 5000), None);
    }

    #[test]
    fn spec_builder() {
        let spec = StoreSpec::new("agg", StoreKind::Window).without_changelog();
        assert!(!spec.changelog);
        assert_eq!(spec.kind, StoreKind::Window);
    }
}
