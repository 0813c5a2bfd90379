//! Write-back record cache: per-store dirty-entry maps that absorb repeated
//! same-key writes between commits (§6.2's output-suppression caching,
//! applied at the store layer).
//!
//! Without caching, every `put` appends one changelog record and (for table
//! operators) forwards one revision — a key updated N times per commit
//! interval costs O(N) downstream traffic. The cache collapses those N
//! updates into **one** dirty entry that is flushed exactly once per commit
//! interval, so the cost drops to O(distinct keys per interval).
//!
//! The stores themselves stay *write-through*: the underlying KV/window/
//! session store always holds the latest value, so reads never consult the
//! cache. Only the two log-shaped side effects are deferred:
//!
//! * the **changelog append** (the store's replication stream), and
//! * the **downstream revision** (`old` = value before the first cached
//!   write, `new` = latest value) for operators that opted in.
//!
//! Atomicity is untouched: the task flushes every dirty entry inside the
//! commit path, *before* `send_offsets_to_transaction`/`commit_transaction`,
//! so flushed appends and the input offsets that produced them land in the
//! same transaction. A crash between flush and commit aborts both together.
//!
//! The cache is bounded: above `max_entries` dirty entries, the
//! least-recently-written entry is evicted — flushed to the changelog (and
//! forwarded, if registered) immediately, mid-interval. `max_entries == 0`
//! disables caching entirely (every write flushes inline, the pre-cache
//! behaviour).

use bytes::Bytes;
use std::collections::{HashMap, VecDeque};

/// One dirty (unflushed) store write.
#[derive(Debug, Clone)]
pub struct DirtyEntry {
    /// Value before the *first* cached write since the last flush — the
    /// `old` half of the coalesced downstream revision. Only meaningful
    /// when `forward` is set.
    pub old: Option<Bytes>,
    /// Latest written value (the changelog append payload; `None` is a
    /// tombstone).
    pub new: Option<Bytes>,
    /// Timestamp of the latest write (revision timestamp on flush).
    pub ts: i64,
    /// Whether a downstream revision must be emitted on flush.
    pub forward: bool,
    /// Recency stamp for LRU eviction.
    seq: u64,
}

/// What one [`RecordCache::put`] did.
#[derive(Debug)]
pub struct PutOutcome {
    /// The write coalesced into an existing dirty entry.
    pub hit: bool,
    /// Entry evicted to respect the capacity bound; must be flushed now.
    pub evicted: Option<(Bytes, DirtyEntry)>,
}

/// A bounded per-store dirty-entry map with LRU eviction.
///
/// Keys are *changelog keys* (the store-shape-specific composite encoding),
/// so one cache shape serves KV, window, and session stores alike.
#[derive(Debug, Default)]
pub struct RecordCache {
    max_entries: usize,
    map: HashMap<Bytes, DirtyEntry>,
    /// Lazy LRU queue of `(seq, key)`; stale pairs (seq no longer matching
    /// the entry) are skipped at eviction time and compacted away whenever
    /// the queue exceeds `2 * max_entries`, which bounds it.
    order: VecDeque<(u64, Bytes)>,
    next_seq: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl RecordCache {
    /// A cache holding at most `max_entries` dirty entries; `0` disables
    /// caching.
    pub fn new(max_entries: usize) -> Self {
        Self { max_entries, ..Self::default() }
    }

    /// Whether writes should route through this cache at all.
    pub fn enabled(&self) -> bool {
        self.max_entries > 0
    }

    /// Configured capacity (0 = disabled).
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// Current dirty-entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(hits, misses, evictions)` since creation.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Record a write. `old_if_first` is the store value *before* this
    /// write; it becomes the coalesced revision's `old` only when this is
    /// the key's first cached write since the last flush. The outcome says
    /// whether the write coalesced into an existing dirty entry and carries
    /// the entry evicted to make room, if the bound was exceeded — the
    /// caller must flush an evicted entry (changelog append + forward)
    /// immediately.
    pub fn put(
        &mut self,
        key: Bytes,
        old_if_first: Option<Bytes>,
        new: Option<Bytes>,
        ts: i64,
        forward: bool,
    ) -> PutOutcome {
        debug_assert!(self.enabled(), "put on a disabled cache");
        let seq = self.next_seq;
        self.next_seq += 1;
        let hit = match self.map.get_mut(&key) {
            Some(entry) => {
                // Same key written again before flush: the repeated update
                // the cache exists to absorb. Keep the earliest `old`,
                // overwrite the rest.
                self.hits += 1;
                entry.new = new;
                entry.ts = ts;
                entry.forward |= forward;
                entry.seq = seq;
                true
            }
            None => {
                self.misses += 1;
                self.map
                    .insert(key.clone(), DirtyEntry { old: old_if_first, new, ts, forward, seq });
                false
            }
        };
        self.order.push_back((seq, key));
        // A rewritten key leaves its earlier pair behind. Eviction skips
        // those, so dropping them changes no eviction order — it only keeps
        // a hot key under a long commit interval from growing the queue by
        // one pair per write.
        if self.order.len() > 2 * self.max_entries {
            let map = &self.map;
            self.order.retain(|(seq, key)| map.get(key).is_some_and(|e| e.seq == *seq));
        }
        PutOutcome { hit, evicted: self.evict_if_over() }
    }

    /// Evict the least-recently-written entry when over capacity.
    fn evict_if_over(&mut self) -> Option<(Bytes, DirtyEntry)> {
        if self.map.len() <= self.max_entries {
            return None;
        }
        while let Some((seq, key)) = self.order.pop_front() {
            // Skip stale queue pairs left behind by later writes to the key.
            if self.map.get(&key).is_some_and(|e| e.seq == seq) {
                let entry = self.map.remove(&key).expect("checked");
                self.evictions += 1;
                return Some((key, entry));
            }
        }
        unreachable!("over-capacity cache with an exhausted LRU queue");
    }

    /// Drain every dirty entry in ascending changelog-key order (the commit
    /// flush; key order keeps seed replays byte-identical regardless of
    /// write order).
    pub fn drain_sorted(&mut self) -> Vec<(Bytes, DirtyEntry)> {
        self.order.clear();
        // detlint:allow[unordered-iter] drained then sorted by key below
        let mut out: Vec<(Bytes, DirtyEntry)> = self.map.drain().collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn repeated_puts_coalesce_to_one_entry() {
        let mut c = RecordCache::new(8);
        assert!(c.put(b("k"), None, Some(b("1")), 10, true).evicted.is_none());
        assert!(c.put(b("k"), Some(b("1")), Some(b("2")), 20, true).evicted.is_none());
        assert!(c.put(b("k"), Some(b("2")), Some(b("3")), 30, true).evicted.is_none());
        let drained = c.drain_sorted();
        assert_eq!(drained.len(), 1, "N same-key puts → 1 dirty entry");
        let (key, e) = &drained[0];
        assert_eq!(key, &b("k"));
        assert_eq!(e.old, None, "old = value before the FIRST cached write");
        assert_eq!(e.new, Some(b("3")), "new = latest value");
        assert_eq!(e.ts, 30);
        assert_eq!(c.stats(), (2, 1, 0));
    }

    #[test]
    fn drain_is_key_ordered() {
        let mut c = RecordCache::new(8);
        for k in ["c", "a", "b"] {
            c.put(b(k), None, Some(b("v")), 0, false);
        }
        let keys: Vec<Bytes> = c.drain_sorted().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b("a"), b("b"), b("c")]);
        assert!(c.is_empty());
    }

    #[test]
    fn lru_evicts_least_recently_written() {
        let mut c = RecordCache::new(2);
        c.put(b("a"), None, Some(b("1")), 0, false);
        c.put(b("b"), None, Some(b("2")), 1, false);
        // Touch `a` again so `b` becomes least recent.
        c.put(b("a"), Some(b("1")), Some(b("3")), 2, false);
        let outcome = c.put(b("c"), None, Some(b("4")), 3, false);
        assert!(!outcome.hit);
        let (key, entry) = outcome.evicted.expect("over capacity");
        assert_eq!(key, b("b"), "least-recently-written entry evicted");
        assert_eq!(entry.new, Some(b("2")));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().2, 1);
    }

    #[test]
    fn lru_queue_stays_bounded_under_hot_keys() {
        let mut c = RecordCache::new(4);
        for i in 0..10_000i64 {
            let key = b(["a", "b", "c"][i as usize % 3]);
            assert!(c.put(key, None, Some(b("v")), i, false).evicted.is_none());
            assert!(c.order.len() <= 2 * c.max_entries(), "queue {} at write {i}", c.order.len());
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats(), (9_997, 3, 0));
    }

    #[test]
    fn compaction_does_not_change_eviction_order() {
        // Same recency order — c, d, a, b from least to most recent — reached
        // with few rewrites of `a` (stale pairs still queued) and with many
        // (queue compacted on the way): the same key must be evicted.
        for rewrites in [2, 50] {
            let mut c = RecordCache::new(4);
            for (i, k) in ["a", "b", "c", "d"].into_iter().enumerate() {
                c.put(b(k), None, Some(b("v")), i as i64, false);
            }
            for _ in 0..rewrites {
                c.put(b("a"), None, Some(b("v")), 9, false);
            }
            c.put(b("b"), None, Some(b("v")), 10, false);
            let compacted = c.order.len() < 4 + rewrites + 1;
            assert_eq!(compacted, rewrites == 50, "{rewrites} rewrites: queue {}", c.order.len());
            let (key, _) = c.put(b("e"), None, Some(b("v")), 11, false).evicted.expect("over");
            assert_eq!(key, b("c"), "least-recently-written entry, {rewrites} rewrites");
            let (key, _) = c.put(b("f"), None, Some(b("v")), 12, false).evicted.expect("over");
            assert_eq!(key, b("d"));
        }
    }

    #[test]
    fn capacity_one_flushes_on_every_key_change() {
        let mut c = RecordCache::new(1);
        assert!(c.put(b("a"), None, Some(b("1")), 0, false).evicted.is_none());
        // Same key: still one entry, no eviction.
        let same = c.put(b("a"), None, Some(b("2")), 1, false);
        assert!(same.hit && same.evicted.is_none());
        // Different key: evicts `a`.
        let (key, e) = c.put(b("z"), None, Some(b("9")), 2, false).evicted.expect("evicts");
        assert_eq!(key, b("a"));
        assert_eq!(e.new, Some(b("2")));
    }

    #[test]
    fn tombstones_are_cached_like_values() {
        let mut c = RecordCache::new(4);
        c.put(b("k"), None, Some(b("v")), 0, true);
        c.put(b("k"), Some(b("v")), None, 1, true);
        let drained = c.drain_sorted();
        assert_eq!(drained[0].1.new, None, "put-then-delete flushes one tombstone");
    }

    #[test]
    fn forward_flag_is_sticky() {
        let mut c = RecordCache::new(4);
        c.put(b("k"), None, Some(b("1")), 0, true);
        c.put(b("k"), None, Some(b("2")), 1, false);
        assert!(c.drain_sorted()[0].1.forward, "a registered revision survives later plain writes");
    }
}
