//! Windowed state store: `(window_start, key)` → value.
//!
//! Keyed by window start *first* so expiry (Figure 6.d's garbage collection
//! of windows older than the grace period) is a cheap prefix removal, and
//! per-key window scans are still efficient within the bounded window range.

use bytes::Bytes;
use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::Bound;

/// An in-memory windowed store.
#[derive(Debug, Default, Clone)]
pub struct WindowStore {
    map: BTreeMap<(i64, Bytes), Bytes>,
}

impl WindowStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Value for `key` in the window starting at `window_start`.
    pub fn fetch(&self, key: &[u8], window_start: i64) -> Option<Bytes> {
        self.map.get(&(window_start, Bytes::copy_from_slice(key))).cloned()
    }

    /// Insert or delete; returns the previous value.
    pub fn put(&mut self, key: Bytes, window_start: i64, value: Option<Bytes>) -> Option<Bytes> {
        match value {
            Some(v) => self.map.insert((window_start, key), v),
            None => self.map.remove(&(window_start, key)),
        }
    }

    /// Read-modify-write in one descent: `f` maps the window's current value
    /// to the new one (`None` deletes, or leaves an absent window absent).
    /// Returns `(old, new)` — what [`fetch`](Self::fetch) then
    /// [`put`](Self::put) of `f`'s result would have returned and stored,
    /// without `fetch`'s copy of the key.
    pub fn update(
        &mut self,
        key: Bytes,
        window_start: i64,
        f: impl FnOnce(Option<&Bytes>) -> Option<Bytes>,
    ) -> (Option<Bytes>, Option<Bytes>) {
        match self.map.entry((window_start, key)) {
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

    /// All `(window_start, value)` entries for `key` with window start in
    /// `[from, to]` (inclusive), in window order. Used by stream-stream
    /// joins to probe the other side's buffered records.
    pub fn fetch_range(&self, key: &[u8], from: i64, to: i64) -> Vec<(i64, Bytes)> {
        if from > to {
            return Vec::new();
        }
        let upper =
            if to == i64::MAX { Bound::Unbounded } else { Bound::Excluded((to + 1, Bytes::new())) };
        self.map
            .range((Bound::Included((from, Bytes::new())), upper))
            .filter(|((_, k), _)| k.as_ref() == key)
            .map(|((start, _), v)| (*start, v.clone()))
            .collect()
    }

    /// All entries with window start `< before`, removed and returned —
    /// the grace-period GC (§5). The caller decides `before` from observed
    /// stream time.
    pub fn expire_before(&mut self, before: i64) -> Vec<(i64, Bytes, Bytes)> {
        // Operators call this once per record and almost always nothing is
        // due: leave the tree alone then.
        if self.earliest_window().is_none_or(|start| start >= before) {
            return Vec::new();
        }
        let keep = self.map.split_off(&(before, Bytes::new()));
        let expired = std::mem::replace(&mut self.map, keep);
        expired.into_iter().map(|((start, k), v)| (start, k, v)).collect()
    }

    /// Iterate every entry as `(window_start, key, value)` in window order.
    pub fn iter(&self) -> impl Iterator<Item = (i64, &Bytes, &Bytes)> {
        self.map.iter().map(|((start, k), v)| (*start, k, v))
    }

    /// Iterate only entries with window start `< before`, in window order —
    /// the bounded variant of [`iter`](Self::iter) for flush scans that must
    /// not touch live windows above the horizon.
    pub fn iter_below(&self, before: i64) -> impl Iterator<Item = (i64, &Bytes, &Bytes)> {
        self.map.range(..(before, Bytes::new())).map(|((start, k), v)| (*start, k, v))
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Earliest retained window start (tests).
    pub fn earliest_window(&self) -> Option<i64> {
        self.map.keys().next().map(|(s, _)| *s)
    }
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
