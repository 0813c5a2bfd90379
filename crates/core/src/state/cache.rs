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
//!
//! Recency is an index-linked list threaded through a slot vector: a hash
//! map takes a key to its slot, and each slot links to the next older and
//! next newer one. A rewrite relinks its slot to the tail, an eviction takes
//! the head and hands its slot to the newcomer — every `put` is one probe
//! plus O(1) relinking, however long the commit interval.

use bytes::Bytes;
use std::collections::HashMap;

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
}

/// What one [`RecordCache::put`] did.
#[derive(Debug)]
pub struct PutOutcome {
    /// The write coalesced into an existing dirty entry.
    pub hit: bool,
    /// Entry evicted to respect the capacity bound; must be flushed now.
    pub evicted: Option<(Bytes, DirtyEntry)>,
}

/// The end of the recency list, in either direction.
const NIL: usize = usize::MAX;

/// One dirty entry and its place in the recency list.
#[derive(Debug)]
struct Slot {
    key: Bytes,
    entry: DirtyEntry,
    /// The next older slot, or [`NIL`] at the head.
    prev: usize,
    /// The next newer slot, or [`NIL`] at the tail.
    next: usize,
}

/// A bounded per-store dirty-entry map with LRU eviction.
///
/// Keys are *changelog keys* (the store-shape-specific composite encoding),
/// so one cache shape serves KV, window, and session stores alike.
#[derive(Debug, Default)]
pub struct RecordCache {
    max_entries: usize,
    /// Key → its slot in `slots`.
    index: HashMap<Bytes, usize>,
    /// Every dirty entry; at most `max_entries`, all live.
    slots: Vec<Slot>,
    /// Least recently written slot.
    head: usize,
    /// Most recently written slot.
    tail: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl RecordCache {
    /// A cache holding at most `max_entries` dirty entries; `0` disables
    /// caching.
    pub fn new(max_entries: usize) -> Self {
        Self { max_entries, head: NIL, tail: NIL, ..Self::default() }
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
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
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
        if let Some(&at) = self.index.get(&key) {
            // Same key written again before flush: the repeated update the
            // cache exists to absorb. Keep the earliest `old`, overwrite the
            // rest.
            self.hits += 1;
            let entry = &mut self.slots[at].entry;
            entry.new = new;
            entry.ts = ts;
            entry.forward |= forward;
            if at != self.tail {
                self.unlink(at);
                self.link_tail(at);
            }
            return PutOutcome { hit: true, evicted: None };
        }
        self.misses += 1;
        let slot = Slot {
            key: key.clone(),
            entry: DirtyEntry { old: old_if_first, new, ts, forward },
            prev: NIL,
            next: NIL,
        };
        let (at, evicted) = if self.slots.len() < self.max_entries {
            self.slots.push(slot);
            (self.slots.len() - 1, None)
        } else {
            // Full: the least-recently-written entry leaves, and the
            // newcomer — always the most recent — takes its slot.
            let at = self.head;
            self.unlink(at);
            let out = std::mem::replace(&mut self.slots[at], slot);
            self.index.remove(&out.key);
            self.evictions += 1;
            (at, Some((out.key, out.entry)))
        };
        self.index.insert(key, at);
        self.link_tail(at);
        PutOutcome { hit: false, evicted }
    }

    /// Take slot `at` out of the recency list.
    fn unlink(&mut self, at: usize) {
        let Slot { prev, next, .. } = self.slots[at];
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Append slot `at` to the recency list as the most recent write.
    fn link_tail(&mut self, at: usize) {
        self.slots[at].prev = self.tail;
        self.slots[at].next = NIL;
        match self.tail {
            NIL => self.head = at,
            t => self.slots[t].next = at,
        }
        self.tail = at;
    }

    /// Drain every dirty entry in ascending changelog-key order (the commit
    /// flush; key order keeps seed replays byte-identical regardless of
    /// write order).
    pub fn drain_sorted(&mut self) -> Vec<(Bytes, DirtyEntry)> {
        self.index.clear();
        (self.head, self.tail) = (NIL, NIL);
        let mut out: Vec<(Bytes, DirtyEntry)> =
            self.slots.drain(..).map(|slot| (slot.key, slot.entry)).collect();
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
    fn hot_keys_never_evict_under_capacity() {
        let mut c = RecordCache::new(4);
        for i in 0..10_000i64 {
            let key = b(["a", "b", "c"][i as usize % 3]);
            assert!(c.put(key, None, Some(b("v")), i, false).evicted.is_none());
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats(), (9_997, 3, 0));
        // After any number of rewrites, recency is still the last write
        // order: c, then a, then b once `a` and `b` are written again.
        c.put(b("d"), None, Some(b("v")), 10_000, false);
        c.put(b("a"), None, Some(b("v")), 10_001, false);
        c.put(b("b"), None, Some(b("v")), 10_002, false);
        let (key, _) = c.put(b("e"), None, Some(b("v")), 10_003, false).evicted.expect("over");
        assert_eq!(key, b("c"));
    }

    #[test]
    fn rewrites_do_not_change_eviction_order() {
        // Same recency order — c, d, a, b from least to most recent — reached
        // with few rewrites of `a` and with many: the same keys must be
        // evicted, in the same order.
        for rewrites in [2, 50] {
            let mut c = RecordCache::new(4);
            for (i, k) in ["a", "b", "c", "d"].into_iter().enumerate() {
                c.put(b(k), None, Some(b("v")), i as i64, false);
            }
            for _ in 0..rewrites {
                c.put(b("a"), None, Some(b("v")), 9, false);
            }
            c.put(b("b"), None, Some(b("v")), 10, false);
            for (i, want) in ["c", "d", "a", "b"].into_iter().enumerate() {
                let fresh = b(&format!("new{i}"));
                let (key, _) = c.put(fresh, None, Some(b("v")), 11, false).evicted.expect("over");
                assert_eq!(key, b(want), "eviction {i}, {rewrites} rewrites");
            }
        }
    }

    #[test]
    fn drain_resets_the_recency_list() {
        let mut c = RecordCache::new(2);
        c.put(b("a"), None, Some(b("1")), 0, false);
        c.put(b("b"), None, Some(b("2")), 1, false);
        assert_eq!(c.drain_sorted().len(), 2);
        c.put(b("b"), None, Some(b("3")), 2, false);
        c.put(b("a"), None, Some(b("4")), 3, false);
        let (key, e) = c.put(b("z"), None, Some(b("5")), 4, false).evicted.expect("over");
        assert_eq!((key, e.new), (b("b"), Some(b("3"))), "only writes since the drain count");
        assert_eq!(c.stats(), (0, 5, 1));
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
