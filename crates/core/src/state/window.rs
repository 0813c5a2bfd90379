//! Windowed state store: `(window_start, key)` → value.
//!
//! An ordered tree of window starts, each holding a hash bucket of that
//! window's keys. Ordering by window start first keeps expiry (Figure 6.d's
//! garbage collection of windows older than the grace period) a cheap
//! prefix split; hashing keys within a window makes the per-record
//! `fetch`/`put`/`update` one descent of a tree of a handful of live windows
//! plus one hash probe, with no `(start, key)` tuple compares, and a
//! per-key `fetch_range` one probe per window start in range.
//!
//! As in [`KvStore`](super::KvStore), the hasher is std's `RandomState` and
//! hash order never leaves the store: every scan (`iter`, `iter_below`,
//! `expire_before`) sorts each bucket by key, so callers see `(start, key)`
//! order exactly as an ordered tree would give it.

use super::kv::update_entry;
use bytes::Bytes;
use std::collections::{BTreeMap, HashMap};

/// An in-memory windowed store.
#[derive(Debug, Default, Clone)]
pub struct WindowStore {
    /// Window start → that window's entries. A bucket is dropped once it
    /// is empty, so every start in the tree holds at least one entry.
    windows: BTreeMap<i64, HashMap<Bytes, Bytes>>,
    len: usize,
}

impl WindowStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Value for `key` in the window starting at `window_start`.
    pub fn fetch(&self, key: &[u8], window_start: i64) -> Option<Bytes> {
        self.windows.get(&window_start)?.get(key).cloned()
    }

    /// Insert or delete; returns the previous value.
    pub fn put(&mut self, key: Bytes, window_start: i64, value: Option<Bytes>) -> Option<Bytes> {
        self.update(key, window_start, |_| value).0
    }

    /// Read-modify-write in one lookup of the window and one probe of its
    /// bucket: `f` maps the window's current value to the new one (`None`
    /// deletes, or leaves an absent window absent). Returns `(old, new)` —
    /// what [`fetch`](Self::fetch) then [`put`](Self::put) of `f`'s result
    /// would have returned and stored, without `fetch`'s clone of the value.
    pub fn update(
        &mut self,
        key: Bytes,
        window_start: i64,
        f: impl FnOnce(Option<&Bytes>) -> Option<Bytes>,
    ) -> (Option<Bytes>, Option<Bytes>) {
        let bucket = self.windows.entry(window_start).or_default();
        let (old, new) = update_entry(bucket, key, f);
        if bucket.is_empty() {
            self.windows.remove(&window_start);
        }
        self.len = self.len + usize::from(new.is_some()) - usize::from(old.is_some());
        (old, new)
    }

    /// All `(window_start, value)` entries for `key` with window start in
    /// `[from, to]` (inclusive), in window order — one probe per window
    /// start in range. Used by stream-stream joins to probe the other
    /// side's buffered records.
    pub fn fetch_range(&self, key: &[u8], from: i64, to: i64) -> Vec<(i64, Bytes)> {
        if from > to {
            return Vec::new();
        }
        self.windows
            .range(from..=to)
            .filter_map(|(start, bucket)| Some((*start, bucket.get(key)?.clone())))
            .collect()
    }

    /// All entries with window start `< before`, removed and returned in
    /// `(start, key)` order — the grace-period GC (§5). The caller decides
    /// `before` from observed stream time.
    pub fn expire_before(&mut self, before: i64) -> Vec<(i64, Bytes, Bytes)> {
        // Operators call this once per record and almost always nothing is
        // due: leave the tree alone then.
        if self.earliest_window().is_none_or(|start| start >= before) {
            return Vec::new();
        }
        let keep = self.windows.split_off(&before);
        let mut expired = Vec::new();
        for (start, bucket) in std::mem::replace(&mut self.windows, keep) {
            let from = expired.len();
            // detlint:allow[unordered-iter] this bucket's run is sorted by key below
            expired.extend(bucket.into_iter().map(|(k, v)| (start, k, v)));
            expired[from..].sort_unstable_by(|a, b| a.1.cmp(&b.1));
        }
        self.len -= expired.len();
        expired
    }

    /// Iterate every entry as `(window_start, key, value)` in
    /// `(start, key)` order.
    pub fn iter(&self) -> impl Iterator<Item = (i64, &Bytes, &Bytes)> {
        self.windows.iter().flat_map(|(start, bucket)| sorted(bucket).map(|(k, v)| (*start, k, v)))
    }

    /// Iterate only entries with window start `< before`, in
    /// `(start, key)` order — the bounded variant of [`iter`](Self::iter)
    /// for flush scans that must not touch live windows above the horizon.
    pub fn iter_below(&self, before: i64) -> impl Iterator<Item = (i64, &Bytes, &Bytes)> {
        self.windows
            .range(..before)
            .flat_map(|(start, bucket)| sorted(bucket).map(|(k, v)| (*start, k, v)))
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Earliest retained window start (tests).
    pub fn earliest_window(&self) -> Option<i64> {
        self.windows.keys().next().copied()
    }
}

/// A bucket's entries in key order (keys are unique, so the result does not
/// depend on the hash order they are collected in).
fn sorted(bucket: &HashMap<Bytes, Bytes>) -> std::vec::IntoIter<(&Bytes, &Bytes)> {
    // detlint:allow[unordered-iter] collected, then sorted by key below
    let mut out: Vec<(&Bytes, &Bytes)> = bucket.iter().collect();
    out.sort_unstable_by(|a, b| a.0.cmp(b.0));
    out.into_iter()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn put_fetch_by_window() {
        let mut s = WindowStore::new();
        s.put(b("k"), 0, Some(b("w0")));
        s.put(b("k"), 5000, Some(b("w1")));
        assert_eq!(s.fetch(b"k", 0), Some(b("w0")));
        assert_eq!(s.fetch(b"k", 5000), Some(b("w1")));
        assert_eq!(s.fetch(b"k", 10_000), None);
        assert_eq!(s.fetch(b"other", 0), None);
    }

    #[test]
    fn put_returns_old_value() {
        let mut s = WindowStore::new();
        assert_eq!(s.put(b("k"), 0, Some(b("1"))), None);
        assert_eq!(s.put(b("k"), 0, Some(b("2"))), Some(b("1")));
    }

    #[test]
    fn fetch_range_filters_key_and_window() {
        let mut s = WindowStore::new();
        s.put(b("a"), 1000, Some(b("a1")));
        s.put(b("a"), 2000, Some(b("a2")));
        s.put(b("a"), 3000, Some(b("a3")));
        s.put(b("b"), 2000, Some(b("b2")));
        let got = s.fetch_range(b"a", 1500, 3000);
        assert_eq!(got, vec![(2000, b("a2")), (3000, b("a3"))]);
        assert!(s.fetch_range(b"a", 4000, 5000).is_empty());
        assert!(s.fetch_range(b"a", 3000, 1000).is_empty(), "inverted range");
    }

    #[test]
    fn expire_before_removes_and_returns() {
        let mut s = WindowStore::new();
        s.put(b("k"), 0, Some(b("old")));
        s.put(b("k"), 5000, Some(b("mid")));
        s.put(b("k"), 10_000, Some(b("new")));
        let evicted = s.expire_before(5000);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, 0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.earliest_window(), Some(5000));
    }

    #[test]
    fn expire_nothing() {
        let mut s = WindowStore::new();
        s.put(b("k"), 100, Some(b("v")));
        assert!(s.expire_before(50).is_empty());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn expiry_below_the_earliest_window_touches_nothing() {
        let mut s = WindowStore::new();
        s.put(b("b"), 5000, Some(b("1")));
        s.put(b("a"), 5000, Some(b("2")));
        s.put(b("a"), 10_000, Some(b("3")));
        let before: Vec<_> = s.iter().map(|(start, k, v)| (start, k.clone(), v.clone())).collect();
        for horizon in [i64::MIN, 0, 5000] {
            assert!(s.expire_before(horizon).is_empty(), "nothing starts below {horizon}");
            assert_eq!(s.len(), 3);
            assert_eq!(s.earliest_window(), Some(5000));
            let after: Vec<_> =
                s.iter().map(|(start, k, v)| (start, k.clone(), v.clone())).collect();
            assert_eq!(after, before, "iteration order and contents unchanged");
        }
        assert!(WindowStore::new().expire_before(i64::MAX).is_empty(), "empty store");
        assert_eq!(s.expire_before(5001).len(), 2, "the next horizon up still expires");
    }

    #[test]
    fn delete_entry() {
        let mut s = WindowStore::new();
        s.put(b("k"), 0, Some(b("v")));
        s.put(b("k"), 0, None);
        assert!(s.is_empty());
    }

    #[test]
    fn iter_below_is_bounded() {
        let mut s = WindowStore::new();
        s.put(b("k"), 0, Some(b("a")));
        s.put(b("k"), 5000, Some(b("b")));
        s.put(b("k"), 10_000, Some(b("c")));
        let got: Vec<i64> = s.iter_below(5000).map(|(start, _, _)| start).collect();
        assert_eq!(got, vec![0], "only windows strictly below the horizon");
        assert_eq!(s.len(), 3, "iteration does not remove");
    }

    #[test]
    fn long_keys_in_fetch_range() {
        // Keys longer than the range-scan sentinel must still be found.
        let mut s = WindowStore::new();
        let long_key = Bytes::from(vec![0xffu8; 64]);
        s.put(long_key.clone(), 1000, Some(b("v")));
        let got = s.fetch_range(&long_key, 0, 1000);
        assert_eq!(got.len(), 1);
    }
}
