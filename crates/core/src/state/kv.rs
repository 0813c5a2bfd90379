//! In-memory key/value store: hash-indexed for point access, sorted on scan.
//!
//! Every record of a key-level aggregate or table materialization probes
//! this store, while scans happen at cold moments only (a suppress index
//! rebuild, a spill after commit, a store dump in a test). So the map is a
//! `HashMap` and [`KvStore::range`] / [`KvStore::iter`] collect and sort by
//! key: callers see the same key order an ordered tree would give them, and
//! the hash order — which differs from process to process — never reaches
//! an output, a changelog or a span.
//!
//! The hasher is std's default `RandomState`: record keys come from outside
//! the program, and a faster fixed-key hasher would let a producer craft
//! keys that all collide.

use bytes::Bytes;
use std::collections::hash_map::{Entry, HashMap};

/// A key/value store. `put(key, None)` deletes.
#[derive(Debug, Default, Clone)]
pub struct KvStore {
    map: HashMap<Bytes, Bytes>,
}

impl KvStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.map.get(key).cloned()
    }

    /// Insert or delete; returns the previous value (the `old` half of a
    /// revision record, §5).
    pub fn put(&mut self, key: Bytes, value: Option<Bytes>) -> Option<Bytes> {
        match value {
            Some(v) => self.map.insert(key, v),
            None => self.map.remove(&key),
        }
    }

    /// Read-modify-write in one probe: `f` maps the current value to the new
    /// one (`None` deletes, or leaves an absent key absent). Returns
    /// `(old, new)` — what [`get`](Self::get) then [`put`](Self::put) of
    /// `f`'s result would have returned and stored.
    pub fn update(
        &mut self,
        key: Bytes,
        f: impl FnOnce(Option<&Bytes>) -> Option<Bytes>,
    ) -> (Option<Bytes>, Option<Bytes>) {
        update_entry(&mut self.map, key, f)
    }

    /// Entries with keys in `[from, to)`, in key order.
    pub fn range(&self, from: &[u8], to: &[u8]) -> impl Iterator<Item = (&Bytes, &Bytes)> {
        // detlint:allow[unordered-iter] filtered, then sorted by key in `sorted`
        Self::sorted(self.map.iter().filter(|(k, _)| from <= k.as_ref() && k.as_ref() < to))
    }

    /// All entries, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Bytes, &Bytes)> {
        // detlint:allow[unordered-iter] sorted by key in `sorted`
        Self::sorted(self.map.iter())
    }

    /// The one place hash order is turned into key order (keys are unique,
    /// so the result does not depend on the order `entries` arrive in).
    fn sorted<'a>(
        entries: impl Iterator<Item = (&'a Bytes, &'a Bytes)>,
    ) -> std::vec::IntoIter<(&'a Bytes, &'a Bytes)> {
        let mut out: Vec<(&Bytes, &Bytes)> = entries.collect();
        out.sort_unstable_by(|a, b| a.0.cmp(b.0));
        out.into_iter()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn clear(&mut self) {
        self.map.clear();
    }
}

/// [`KvStore::update`] on any hash map of keys to values — also a window
/// store's per-window read-modify-write.
pub(super) fn update_entry(
    map: &mut HashMap<Bytes, Bytes>,
    key: Bytes,
    f: impl FnOnce(Option<&Bytes>) -> Option<Bytes>,
) -> (Option<Bytes>, Option<Bytes>) {
    match map.entry(key) {
        Entry::Occupied(mut slot) => {
            let new = f(Some(slot.get()));
            let old = match &new {
                Some(v) => slot.insert(v.clone()),
                None => slot.remove(),
            };
            (Some(old), new)
        }
        Entry::Vacant(slot) => {
            let new = f(None);
            if let Some(v) = &new {
                slot.insert(v.clone());
            }
            (None, new)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn put_get_delete() {
        let mut s = KvStore::new();
        assert_eq!(s.put(b("a"), Some(b("1"))), None);
        assert_eq!(s.get(b"a"), Some(b("1")));
        assert_eq!(s.put(b("a"), Some(b("2"))), Some(b("1")), "old value returned");
        assert_eq!(s.put(b("a"), None), Some(b("2")));
        assert_eq!(s.get(b"a"), None);
        assert!(s.is_empty());
    }

    #[test]
    fn delete_missing_is_noop() {
        let mut s = KvStore::new();
        assert_eq!(s.put(b("x"), None), None);
    }

    #[test]
    fn range_scan() {
        let mut s = KvStore::new();
        for k in ["a", "b", "c", "d"] {
            s.put(b(k), Some(b("v")));
        }
        let keys: Vec<&[u8]> = s.range(b"b", b"d").map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, vec![b"b".as_slice(), b"c".as_slice()]);
    }

    #[test]
    fn iter_is_ordered() {
        let mut s = KvStore::new();
        for k in ["c", "a", "b"] {
            s.put(b(k), Some(b("v")));
        }
        let keys: Vec<&[u8]> = s.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, vec![b"a".as_slice(), b"b".as_slice(), b"c".as_slice()]);
    }
}
