//! Record batches: the unit of append, replication, and idempotence.
//!
//! A batch carries the producer metadata used by the broker to deduplicate
//! retried appends (§4.1) and the transactional/control flags used by the
//! transaction protocol (§4.2). Sequence numbers are encoded once per batch
//! (the base sequence); per-record sequences are inferred monotonically,
//! exactly as the paper describes.
//!
//! This module holds the workspace's one `unsafe` data structure: a stored
//! batch is a single heap block behind a thin, counted handle.

#![allow(unsafe_code)]

use crate::record::Record;
use crate::{
    Offset, ProducerEpoch, ProducerId, NO_OFFSET, NO_PRODUCER_ID, NO_SEQUENCE, NO_TIMESTAMP,
};
use std::alloc::{self, Layout, LayoutError};
use std::fmt;
use std::mem;
use std::ops::Deref;
use std::ptr::{self, NonNull};
use std::sync::atomic::{self, AtomicUsize, Ordering};

/// Transaction control-marker type (§4.2.2). Control batches are written by
/// the transaction coordinator, not by producers, and are invisible to
/// applications — consumers use them to resolve transaction outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlType {
    /// All records from this batch's producer id appended before this marker
    /// (since the last marker) are committed.
    Commit,
    /// … are aborted and must not be returned to read-committed consumers.
    Abort,
}

/// Producer/transaction metadata attached to every appended batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchMeta {
    /// Broker-assigned producer id; [`NO_PRODUCER_ID`] for plain appends.
    pub producer_id: ProducerId,
    /// Producer epoch for zombie fencing.
    pub producer_epoch: ProducerEpoch,
    /// Sequence number of the first record in the batch;
    /// [`NO_SEQUENCE`] for non-idempotent appends.
    pub base_sequence: i64,
    /// Whether the batch is part of an open transaction.
    pub transactional: bool,
    /// `Some` iff this is a control batch (commit/abort marker).
    pub control: Option<ControlType>,
}

impl BatchMeta {
    /// Metadata for a plain, non-idempotent, non-transactional append.
    pub fn plain() -> Self {
        Self {
            producer_id: NO_PRODUCER_ID,
            producer_epoch: 0,
            base_sequence: NO_SEQUENCE,
            transactional: false,
            control: None,
        }
    }

    /// Metadata for an idempotent (sequenced) append.
    pub fn idempotent(producer_id: ProducerId, epoch: ProducerEpoch, base_sequence: i64) -> Self {
        Self {
            producer_id,
            producer_epoch: epoch,
            base_sequence,
            transactional: false,
            control: None,
        }
    }

    /// Metadata for a transactional data append.
    pub fn transactional(
        producer_id: ProducerId,
        epoch: ProducerEpoch,
        base_sequence: i64,
    ) -> Self {
        Self {
            producer_id,
            producer_epoch: epoch,
            base_sequence,
            transactional: true,
            control: None,
        }
    }

    /// Metadata for a control (marker) batch written by the coordinator.
    pub fn control(producer_id: ProducerId, epoch: ProducerEpoch, ctl: ControlType) -> Self {
        Self {
            producer_id,
            producer_epoch: epoch,
            base_sequence: NO_SEQUENCE,
            transactional: true,
            control: Some(ctl),
        }
    }

    /// True when the batch carries a real producer id and sequence
    /// (i.e. it participates in idempotence checks).
    pub fn is_idempotent(&self) -> bool {
        self.producer_id != NO_PRODUCER_ID && self.base_sequence != NO_SEQUENCE
    }

    /// True for transaction control-marker batches.
    pub fn is_control(&self) -> bool {
        self.control.is_some()
    }
}

/// A batch as stored in the log: a thin handle to one shared, immutable
/// [`BatchBody`] — metadata plus records with their assigned offsets.
///
/// Offsets inside a batch are contiguous at append time, but compaction may
/// later remove individual records, leaving gaps — Kafka preserves original
/// offsets through compaction and so do we, hence per-record offsets.
///
/// The leader log builds the body once at append, and every follower
/// replica, every fetch of the whole batch and every task buffering it holds
/// the same one, so a stored batch costs each further holder one pointer and
/// cloning it copies neither a record nor the metadata. Whatever needs
/// different entries — a fetch cut by its bounds, compaction — builds a new
/// batch. `meta` and `entries` read through the handle (`Deref`).
///
/// The body is one heap block — a reference count, the entry count, the
/// metadata, then the entries — so a batch costs one allocation, not an
/// `Arc` plus a boxed slice. The handle is one pointer wide.
pub struct StoredBatch(NonNull<Header>);

/// The fixed start of a batch's block: how many handles share it and how
/// many entries follow the metadata.
#[repr(C)]
struct Header {
    refs: AtomicUsize,
    len: usize,
}

/// What a [`StoredBatch`] handle shares.
#[repr(C)]
pub struct BatchBody {
    header: Header,
    /// Producer/transaction metadata stamped at append time.
    pub meta: BatchMeta,
    /// `(offset, record)` pairs in strictly increasing offset order.
    pub entries: [(Offset, Record)],
}

/// The block layout of a body with `len` entries, and the byte offsets of
/// its metadata and its first entry: `Layout::extend` places fields as
/// `repr(C)` does.
fn layout(len: usize) -> (Layout, usize, usize) {
    let layout = || {
        let (head, meta_at) = Layout::new::<Header>().extend(Layout::new::<BatchMeta>())?;
        let (block, entries_at) = head.extend(Layout::array::<(Offset, Record)>(len)?)?;
        Ok::<_, LayoutError>((block.pad_to_align(), meta_at, entries_at))
    };
    layout().unwrap_or_else(|_| panic!("a batch of {len} entries overflows the address space"))
}

/// A block whose entries are being written: if the entry iterator panics
/// or runs short, the entries written so far are dropped and the block is
/// freed.
struct Partial {
    base: NonNull<u8>,
    layout: Layout,
    entries_at: usize,
    written: usize,
}

impl Drop for Partial {
    fn drop(&mut self) {
        // SAFETY: `base` was allocated with `layout`, and the first `written`
        // entry slots were initialised by `StoredBatch::new`; nothing else
        // has seen the block.
        unsafe {
            let first = self.base.as_ptr().add(self.entries_at).cast::<(Offset, Record)>();
            ptr::drop_in_place(ptr::slice_from_raw_parts_mut(first, self.written));
            alloc::dealloc(self.base.as_ptr(), self.layout);
        }
    }
}

// SAFETY: a handle is a counted shared reference to an immutable body, as
// an `Arc<BatchBody>` is: the count is atomic, the body is only ever read
// through `&`, and it is dropped once, by the last handle. So it may move
// and be shared across threads whenever the body itself is `Send + Sync`,
// which the assertion below checks.
unsafe impl Send for StoredBatch {}
// SAFETY: see `Send` above.
unsafe impl Sync for StoredBatch {}

const _: () = {
    const fn send_sync<T: Send + Sync + ?Sized>() {}
    send_sync::<BatchBody>();
};

impl StoredBatch {
    /// A batch of `entries`, stamped with `meta`.
    pub fn new<I>(meta: BatchMeta, entries: I) -> Self
    where
        I: IntoIterator<Item = (Offset, Record)>,
        I::IntoIter: ExactSizeIterator,
    {
        let entries = entries.into_iter();
        let len = entries.len();
        let (layout, meta_at, entries_at) = layout(len);
        // SAFETY: `layout` is never zero-sized: it holds at least the header.
        let Some(base) = NonNull::new(unsafe { alloc::alloc(layout) }) else {
            alloc::handle_alloc_error(layout)
        };
        let mut block = Partial { base, layout, entries_at, written: 0 };
        let first = base.as_ptr().wrapping_add(entries_at).cast::<(Offset, Record)>();
        for entry in entries.take(len) {
            // SAFETY: `written < len`, so the slot lies inside the block, and
            // `layout` aligns every entry slot.
            unsafe { first.add(block.written).write(entry) };
            block.written += 1;
        }
        assert_eq!(block.written, len, "entry iterator yielded fewer than its len");
        mem::forget(block);
        // SAFETY: the header and metadata slots lie inside the block at the
        // offsets `layout` computed, which align them.
        unsafe {
            base.as_ptr().cast::<Header>().write(Header { refs: AtomicUsize::new(1), len });
            base.as_ptr().add(meta_at).cast::<BatchMeta>().write(meta);
        }
        let batch = Self(base.cast());
        // The `repr(C)` view the handle derefs to agrees with `layout`.
        let at = |field: *const u8| field.addr() - base.as_ptr().addr();
        debug_assert_eq!(
            (size_of_val::<BatchBody>(&batch), at(ptr::from_ref(&batch.meta).cast())),
            (layout.size(), meta_at)
        );
        debug_assert_eq!(at(batch.entries.as_ptr().cast()), entries_at);
        batch
    }

    /// The block as a `BatchBody`: the slice-to-struct cast keeps `len` as
    /// the length of the `entries` tail.
    fn body(&self) -> *mut BatchBody {
        // SAFETY: a live handle's header is initialised and `len` never
        // changes after `new`.
        let len = unsafe { self.0.as_ref().len };
        ptr::slice_from_raw_parts_mut(self.0.as_ptr().cast::<(Offset, Record)>(), len)
            as *mut BatchBody
    }

    fn refs(&self) -> &AtomicUsize {
        // SAFETY: a live handle's header is initialised; the count is only
        // touched atomically.
        unsafe { &self.0.as_ref().refs }
    }

    /// True when `a` and `b` are handles to the same stored batch, not
    /// merely equal ones.
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        a.0 == b.0
    }

    /// First offset in the batch ([`NO_OFFSET`] for an empty batch, which
    /// the log never stores).
    pub fn base_offset(&self) -> Offset {
        self.entries.first().map_or(NO_OFFSET, |(o, _)| *o)
    }

    /// Last offset in the batch ([`NO_OFFSET`] for an empty batch).
    pub fn last_offset(&self) -> Offset {
        self.entries.last().map_or(NO_OFFSET, |(o, _)| *o)
    }

    /// Last sequence number covered by this batch
    /// (base_sequence + record count - 1), or [`NO_SEQUENCE`].
    pub fn last_sequence(&self) -> i64 {
        if self.meta.base_sequence == NO_SEQUENCE {
            NO_SEQUENCE
        } else {
            self.meta.base_sequence + self.entries.len() as i64 - 1
        }
    }

    /// Maximum record timestamp in the batch.
    pub fn max_timestamp(&self) -> i64 {
        self.entries.iter().map(|(_, r)| r.timestamp).max().unwrap_or(NO_TIMESTAMP)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the batch holds no records (never true for stored batches).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate size in bytes (records plus a fixed per-batch header —
    /// the "few extra numeric fields" of §4.3).
    pub fn approximate_size(&self) -> usize {
        const BATCH_HEADER_BYTES: usize = 61; // Kafka v2 batch header size
        BATCH_HEADER_BYTES + self.entries.iter().map(|(_, r)| r.approximate_size()).sum::<usize>()
    }
}

impl Deref for StoredBatch {
    type Target = BatchBody;

    fn deref(&self) -> &BatchBody {
        // SAFETY: the block stays allocated and initialised while this handle
        // lives, and nothing writes to it after `new`.
        unsafe { &*self.body() }
    }
}

impl Clone for StoredBatch {
    fn clone(&self) -> Self {
        // Relaxed suffices: a new handle is made from an existing one, which
        // already keeps the block alive (as `Arc::clone` reasons).
        if self.refs().fetch_add(1, Ordering::Relaxed) > isize::MAX as usize {
            std::process::abort();
        }
        Self(self.0)
    }
}

impl Drop for StoredBatch {
    fn drop(&mut self) {
        if self.refs().fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // Every other handle's last use happens before the body is dropped.
        atomic::fence(Ordering::Acquire);
        let (layout, ..) = layout(self.len());
        // SAFETY: this was the last handle, so nothing else reads the block:
        // the body (metadata and entries) is dropped once, in place, and the
        // block is freed with the layout `new` allocated it with.
        unsafe {
            ptr::drop_in_place(self.body());
            alloc::dealloc(self.0.as_ptr().cast(), layout);
        }
    }
}

impl PartialEq for StoredBatch {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for StoredBatch {}

impl fmt::Debug for StoredBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("StoredBatch").field(&&**self).finish()
    }
}

impl PartialEq for BatchBody {
    fn eq(&self, other: &Self) -> bool {
        self.meta == other.meta && self.entries == other.entries
    }
}

impl Eq for BatchBody {}

impl fmt::Debug for BatchBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchBody")
            .field("meta", &self.meta)
            .field("entries", &&self.entries)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn rec(ts: i64) -> Record {
        Record::new(Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"v")), ts)
    }

    #[test]
    fn plain_meta_is_not_idempotent() {
        let m = BatchMeta::plain();
        assert!(!m.is_idempotent());
        assert!(!m.is_control());
        assert!(!m.transactional);
    }

    #[test]
    fn idempotent_meta() {
        let m = BatchMeta::idempotent(7, 0, 10);
        assert!(m.is_idempotent());
        assert!(!m.transactional);
    }

    #[test]
    fn control_meta_is_transactional() {
        let m = BatchMeta::control(7, 1, ControlType::Commit);
        assert!(m.is_control());
        assert!(m.transactional);
        assert!(!m.is_idempotent());
    }

    #[test]
    fn stored_batch_offsets_and_sequences() {
        let b = StoredBatch::new(
            BatchMeta::idempotent(1, 0, 5),
            vec![(100, rec(1)), (101, rec(3)), (102, rec(2))],
        );
        assert_eq!(b.base_offset(), 100);
        assert_eq!(b.last_offset(), 102);
        assert_eq!(b.last_sequence(), 7);
        assert_eq!(b.max_timestamp(), 3);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn non_idempotent_batch_has_no_sequence() {
        let b = StoredBatch::new(BatchMeta::plain(), vec![(0, rec(1))]);
        assert_eq!(b.last_sequence(), NO_SEQUENCE);
    }

    #[test]
    fn handles_share_one_block_and_compare_by_content() {
        let a = StoredBatch::new(BatchMeta::plain(), [(0, rec(1)), (1, rec(2))]);
        let b = a.clone();
        let c = StoredBatch::new(BatchMeta::plain(), vec![(0, rec(1)), (1, rec(2))]);
        assert!(StoredBatch::ptr_eq(&a, &b) && !StoredBatch::ptr_eq(&a, &c));
        assert_eq!(a, c);
        assert_eq!(size_of::<StoredBatch>(), size_of::<usize>());
        assert_eq!(size_of::<Option<StoredBatch>>(), size_of::<usize>());
        assert_eq!(format!("{b:?}"), format!("{c:?}"));
        let empty = StoredBatch::new(BatchMeta::plain(), []);
        assert!(empty.is_empty() && empty.base_offset() == NO_OFFSET);
    }

    #[test]
    fn a_short_entry_iterator_panics() {
        /// Claims one more entry than it yields.
        struct Short(std::vec::IntoIter<(Offset, Record)>);
        impl Iterator for Short {
            type Item = (Offset, Record);
            fn next(&mut self) -> Option<Self::Item> {
                self.0.next()
            }
        }
        impl ExactSizeIterator for Short {
            fn len(&self) -> usize {
                self.0.len() + 1
            }
        }
        let payload = Bytes::from(vec![7; 40]);
        let entries = vec![(0, Record::new(None, Some(payload.clone()), 0))];
        let short = Short(entries.into_iter());
        // The written entry is dropped and the block freed on the way out
        // (under Miri, a leak fails the test).
        let built = std::panic::catch_unwind(|| StoredBatch::new(BatchMeta::plain(), short));
        assert!(built.is_err());
    }

    /// Handles move and are shared across threads, as `Arc` is.
    #[test]
    fn stored_batch_is_send_and_sync() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<StoredBatch>();
    }

    #[test]
    fn approximate_size_includes_header() {
        let b = StoredBatch::new(BatchMeta::plain(), vec![(0, rec(1))]);
        assert!(b.approximate_size() > rec(1).approximate_size());
    }
}
