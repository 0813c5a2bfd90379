//! Record batches: the unit of append, replication, and idempotence.
//!
//! A batch carries the producer metadata used by the broker to deduplicate
//! retried appends (§4.1) and the transactional/control flags used by the
//! transaction protocol (§4.2). Sequence numbers are encoded once per batch
//! (the base sequence); per-record sequences are inferred monotonically,
//! exactly as the paper describes.

use crate::record::Record;
use crate::{
    Offset, ProducerEpoch, ProducerId, NO_OFFSET, NO_PRODUCER_ID, NO_SEQUENCE, NO_TIMESTAMP,
};
use std::ops::Deref;
use std::sync::Arc;

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

/// A batch as stored in the log: a handle to one shared, immutable
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredBatch(Arc<BatchBody>);

/// What a [`StoredBatch`] handle shares.
#[derive(Debug, PartialEq, Eq)]
pub struct BatchBody {
    /// Producer/transaction metadata stamped at append time.
    pub meta: BatchMeta,
    /// `(offset, record)` pairs in strictly increasing offset order.
    pub entries: Box<[(Offset, Record)]>,
}

impl Deref for StoredBatch {
    type Target = BatchBody;

    fn deref(&self) -> &BatchBody {
        &self.0
    }
}

impl StoredBatch {
    /// A batch of `entries`, stamped with `meta`.
    pub fn new(meta: BatchMeta, entries: impl Into<Box<[(Offset, Record)]>>) -> Self {
        Self(Arc::new(BatchBody { meta, entries: entries.into() }))
    }

    /// True when `a` and `b` are handles to the same stored batch, not
    /// merely equal ones.
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
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
    fn approximate_size_includes_header() {
        let b = StoredBatch::new(BatchMeta::plain(), vec![(0, rec(1))]);
        assert!(b.approximate_size() > rec(1).approximate_size());
    }
}
