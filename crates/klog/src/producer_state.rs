//! Per-partition producer state: the broker-side sequence cache that makes
//! producer retries idempotent (§4.1).
//!
//! For each producer id the partition leader remembers the latest epoch and
//! the last appended sequence number. An incoming batch is:
//!
//! * a **duplicate** if its entire sequence range was already appended —
//!   the broker acks it without re-appending (this is what absorbs retries
//!   after lost acks),
//! * **in order** if its base sequence is exactly `last + 1`,
//! * **out of order** otherwise (a gap ⇒ data loss ⇒ reject).
//!
//! The state is rebuilt from the log itself when a new leader takes over
//! (§4.1's "re-populate its sequence number cache by looking at the local
//! logs"), which [`ProducerStateTable::rebuild_from`] implements.

use crate::batch::StoredBatch;
use crate::error::LogError;
use crate::{Offset, ProducerEpoch, ProducerId, NO_SEQUENCE};
use std::collections::HashMap;

/// Outcome of validating an incoming batch's sequence numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequenceCheck {
    /// First batch from this producer or exactly the next sequence: append.
    InOrder,
    /// The whole batch was appended before; return the cached offset range
    /// instead of appending again.
    Duplicate {
        /// Base offset of the previously appended identical batch.
        base_offset: Offset,
        /// Last offset of the previously appended identical batch.
        last_offset: Offset,
    },
}

#[derive(Debug, Clone)]
struct ProducerEntry {
    epoch: ProducerEpoch,
    /// Last appended sequence; `NO_SEQUENCE` right after an epoch bump.
    last_seq: i64,
    /// Offset range of the most recent appended batch, kept so duplicate
    /// retries can be acked with the original offsets.
    last_batch: Option<(i64, i64, Offset, Offset)>, // (base_seq, last_seq, base_off, last_off)
    /// First offset of this producer's current open transaction on this
    /// partition, if any. Drives the last-stable-offset (§4.2.3).
    txn_first_offset: Option<Offset>,
}

/// One producer's state as serialized into an on-disk snapshot — the public
/// mirror of the internal table entry, keyed by producer id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProducerSnapshotEntry {
    /// The producer id this entry belongs to.
    pub producer_id: ProducerId,
    /// Latest known epoch.
    pub epoch: ProducerEpoch,
    /// Last appended sequence at that epoch ([`NO_SEQUENCE`] if none).
    pub last_seq: i64,
    /// `(base_seq, last_seq, base_offset, last_offset)` of the most recent
    /// batch, kept so duplicate retries ack with original offsets.
    pub last_batch: Option<(i64, i64, Offset, Offset)>,
    /// First offset of the producer's open transaction, if any.
    pub txn_first_offset: Option<Offset>,
}

/// The per-partition table of producer states.
#[derive(Debug, Clone, Default)]
pub struct ProducerStateTable {
    entries: HashMap<ProducerId, ProducerEntry>,
}

impl ProducerStateTable {
    /// An empty table (no producers seen yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Validate an idempotent batch before appending.
    ///
    /// Returns [`SequenceCheck::Duplicate`] with the original offsets for
    /// full duplicates, or [`LogError::OutOfOrderSequence`] /
    /// [`LogError::ProducerFenced`] when the sequence or epoch is wrong.
    pub fn check(
        &self,
        producer_id: ProducerId,
        epoch: ProducerEpoch,
        base_seq: i64,
        record_count: usize,
    ) -> Result<SequenceCheck, LogError> {
        crate::invariant!(
            base_seq != NO_SEQUENCE,
            "sequence-present",
            "idempotent batch from producer {producer_id} (epoch {epoch}) carries no base sequence"
        );
        let Some(entry) = self.entries.get(&producer_id) else {
            // First ever batch from this producer: any starting sequence is
            // accepted (Kafka requires 0 for epoch 0, but allows a fresh
            // start after epoch bumps; we accept the first seen).
            return Ok(SequenceCheck::InOrder);
        };
        if epoch < entry.epoch {
            return Err(LogError::ProducerFenced {
                producer_id,
                current_epoch: entry.epoch,
                got_epoch: epoch,
            });
        }
        if epoch > entry.epoch {
            // New epoch resets the sequence space.
            return Ok(SequenceCheck::InOrder);
        }
        let last_seq_of_batch = base_seq + record_count as i64 - 1;
        if let Some((cached_base, cached_last, base_off, last_off)) = entry.last_batch {
            if base_seq == cached_base && last_seq_of_batch == cached_last {
                return Ok(SequenceCheck::Duplicate {
                    base_offset: base_off,
                    last_offset: last_off,
                });
            }
        }
        if entry.last_seq == NO_SEQUENCE || base_seq == entry.last_seq + 1 {
            Ok(SequenceCheck::InOrder)
        } else if last_seq_of_batch <= entry.last_seq {
            // An older duplicate that we no longer have offsets for: Kafka
            // returns DuplicateSequence which producers treat as success
            // with unknown offset; we conservatively report it as a
            // duplicate of the last batch range if unknown.
            Err(LogError::OutOfOrderSequence {
                producer_id,
                expected: entry.last_seq + 1,
                got: base_seq,
            })
        } else {
            Err(LogError::OutOfOrderSequence {
                producer_id,
                expected: entry.last_seq + 1,
                got: base_seq,
            })
        }
    }

    /// Record a successfully appended batch.
    pub fn on_append(
        &mut self,
        producer_id: ProducerId,
        epoch: ProducerEpoch,
        base_seq: i64,
        base_offset: Offset,
        last_offset: Offset,
        transactional: bool,
    ) {
        let record_count = (last_offset - base_offset + 1).max(0);
        let entry = self.entries.entry(producer_id).or_insert(ProducerEntry {
            epoch,
            last_seq: NO_SEQUENCE,
            last_batch: None,
            txn_first_offset: None,
        });
        crate::invariant!(
            epoch >= entry.epoch,
            "epoch-fencing",
            "producer {producer_id} appended at stale epoch {epoch} (current epoch {})",
            entry.epoch
        );
        if epoch > entry.epoch {
            entry.epoch = epoch;
            entry.last_seq = NO_SEQUENCE;
            entry.last_batch = None;
        }
        if base_seq != NO_SEQUENCE {
            crate::invariant!(
                entry.last_seq == NO_SEQUENCE || base_seq == entry.last_seq + 1,
                "sequence-monotonicity",
                "producer {producer_id} (epoch {epoch}) appended base sequence {base_seq}, \
                 expected {}",
                entry.last_seq + 1
            );
            let last_seq = base_seq + record_count - 1;
            entry.last_seq = last_seq;
            entry.last_batch = Some((base_seq, last_seq, base_offset, last_offset));
        }
        if transactional && entry.txn_first_offset.is_none() {
            entry.txn_first_offset = Some(base_offset);
        }
    }

    /// Close the producer's open transaction on this partition (on marker
    /// append), returning the first offset the transaction covered.
    pub fn end_txn(&mut self, producer_id: ProducerId) -> Option<Offset> {
        self.entries.get_mut(&producer_id).and_then(|e| e.txn_first_offset.take())
    }

    /// First offset of the producer's open transaction, if any.
    pub fn txn_first_offset(&self, producer_id: ProducerId) -> Option<Offset> {
        self.entries.get(&producer_id).and_then(|e| e.txn_first_offset)
    }

    /// Smallest first-offset among all open transactions — the candidate
    /// last-stable-offset bound for read-committed fetches.
    pub fn earliest_open_txn_offset(&self) -> Option<Offset> {
        // detlint:allow[unordered-iter] min() over values is order-insensitive
        self.entries.values().filter_map(|e| e.txn_first_offset).min()
    }

    /// Latest known epoch for a producer id, if any batch was seen.
    pub fn epoch_of(&self, producer_id: ProducerId) -> Option<ProducerEpoch> {
        self.entries.get(&producer_id).map(|e| e.epoch)
    }

    /// Last appended sequence for a producer id at its current epoch.
    pub fn last_sequence(&self, producer_id: ProducerId) -> Option<i64> {
        self.entries.get(&producer_id).map(|e| e.last_seq)
    }

    /// Number of tracked producers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no producer has been seen.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Apply one stored batch's state transition — the shared step behind
    /// [`rebuild_from`](Self::rebuild_from) and snapshot-seeded recovery.
    /// Control markers close the producer's transaction; data batches update
    /// epoch/sequence/open-txn tracking. Batches without a producer id are
    /// ignored.
    pub fn apply_batch(&mut self, b: &StoredBatch) {
        if b.meta.producer_id < 0 {
            return;
        }
        if b.meta.is_control() {
            // A marker closes the producer's transaction.
            self.on_append(
                b.meta.producer_id,
                b.meta.producer_epoch,
                NO_SEQUENCE,
                b.base_offset(),
                b.last_offset(),
                false,
            );
            self.end_txn(b.meta.producer_id);
        } else {
            self.on_append(
                b.meta.producer_id,
                b.meta.producer_epoch,
                b.meta.base_sequence,
                b.base_offset(),
                b.last_offset(),
                b.meta.transactional,
            );
        }
    }

    /// Rebuild the table by scanning stored batches in offset order — what a
    /// freshly elected leader replica does from its local log (§4.1).
    pub fn rebuild_from<'a>(batches: impl IntoIterator<Item = &'a StoredBatch>) -> Self {
        let mut table = Self::new();
        for b in batches {
            table.apply_batch(b);
        }
        table
    }

    /// Export every entry for a producer-state snapshot, sorted by producer
    /// id so snapshots are byte-identical across runs.
    pub fn snapshot_entries(&self) -> Vec<ProducerSnapshotEntry> {
        let mut out: Vec<ProducerSnapshotEntry> = self
            .entries
            .iter() // detlint:allow[unordered-iter] sorted by pid below
            .map(|(pid, e)| ProducerSnapshotEntry {
                producer_id: *pid,
                epoch: e.epoch,
                last_seq: e.last_seq,
                last_batch: e.last_batch,
                txn_first_offset: e.txn_first_offset,
            })
            .collect();
        out.sort_unstable_by_key(|e| e.producer_id);
        out
    }

    /// Rebuild a table from snapshot entries (disk recovery's fast path; the
    /// suffix above the snapshot offset is then replayed with
    /// [`apply_batch`](Self::apply_batch)).
    pub fn from_snapshot_entries(
        snapshot: impl IntoIterator<Item = ProducerSnapshotEntry>,
    ) -> Self {
        let mut table = Self::new();
        for e in snapshot {
            table.entries.insert(
                e.producer_id,
                ProducerEntry {
                    epoch: e.epoch,
                    last_seq: e.last_seq,
                    last_batch: e.last_batch,
                    txn_first_offset: e.txn_first_offset,
                },
            );
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchMeta, ControlType};
    use crate::record::Record;
    use bytes::Bytes;

    fn rec() -> Record {
        Record::new(Some(Bytes::from_static(b"k")), Some(Bytes::from_static(b"v")), 0)
    }

    #[test]
    fn first_batch_accepted() {
        let t = ProducerStateTable::new();
        assert_eq!(t.check(1, 0, 0, 3).unwrap(), SequenceCheck::InOrder);
    }

    #[test]
    fn in_order_sequence_accepted() {
        let mut t = ProducerStateTable::new();
        t.on_append(1, 0, 0, 0, 2, false);
        assert_eq!(t.check(1, 0, 3, 2).unwrap(), SequenceCheck::InOrder);
    }

    #[test]
    fn exact_duplicate_detected_with_original_offsets() {
        let mut t = ProducerStateTable::new();
        t.on_append(1, 0, 0, 100, 102, false);
        assert_eq!(
            t.check(1, 0, 0, 3).unwrap(),
            SequenceCheck::Duplicate { base_offset: 100, last_offset: 102 }
        );
    }

    #[test]
    fn gap_rejected() {
        let mut t = ProducerStateTable::new();
        t.on_append(1, 0, 0, 0, 0, false);
        let err = t.check(1, 0, 5, 1).unwrap_err();
        assert!(matches!(err, LogError::OutOfOrderSequence { expected: 1, got: 5, .. }));
    }

    #[test]
    fn stale_epoch_fenced() {
        let mut t = ProducerStateTable::new();
        t.on_append(1, 2, 0, 0, 0, false);
        let err = t.check(1, 1, 1, 1).unwrap_err();
        assert!(matches!(err, LogError::ProducerFenced { current_epoch: 2, got_epoch: 1, .. }));
    }

    #[test]
    fn epoch_bump_resets_sequences() {
        let mut t = ProducerStateTable::new();
        t.on_append(1, 0, 0, 0, 9, false);
        // New epoch may start from sequence 0 again.
        assert_eq!(t.check(1, 1, 0, 1).unwrap(), SequenceCheck::InOrder);
        t.on_append(1, 1, 0, 10, 10, false);
        assert_eq!(t.last_sequence(1), Some(0));
        assert_eq!(t.epoch_of(1), Some(1));
    }

    #[test]
    fn txn_first_offset_tracked_and_cleared() {
        let mut t = ProducerStateTable::new();
        t.on_append(1, 0, 0, 50, 52, true);
        t.on_append(1, 0, 3, 60, 61, true);
        assert_eq!(t.txn_first_offset(1), Some(50));
        assert_eq!(t.earliest_open_txn_offset(), Some(50));
        assert_eq!(t.end_txn(1), Some(50));
        assert_eq!(t.txn_first_offset(1), None);
        assert_eq!(t.earliest_open_txn_offset(), None);
    }

    #[test]
    fn earliest_open_txn_across_producers() {
        let mut t = ProducerStateTable::new();
        t.on_append(1, 0, 0, 70, 70, true);
        t.on_append(2, 0, 0, 30, 30, true);
        assert_eq!(t.earliest_open_txn_offset(), Some(30));
        t.end_txn(2);
        assert_eq!(t.earliest_open_txn_offset(), Some(70));
    }

    #[test]
    fn rebuild_from_log_matches_incremental() {
        let batches = vec![
            StoredBatch::new(BatchMeta::idempotent(1, 0, 0), vec![(0, rec()), (1, rec())]),
            StoredBatch::new(BatchMeta::transactional(2, 1, 0), vec![(2, rec())]),
            StoredBatch::new(BatchMeta::idempotent(1, 0, 2), vec![(3, rec())]),
            StoredBatch::new(BatchMeta::control(2, 1, ControlType::Commit), vec![(4, rec())]),
        ];
        let t = ProducerStateTable::rebuild_from(&batches);
        assert_eq!(t.last_sequence(1), Some(2));
        assert_eq!(t.epoch_of(2), Some(1));
        // Producer 2's txn was closed by the marker.
        assert_eq!(t.txn_first_offset(2), None);
        // Dedup still works against rebuilt state.
        assert_eq!(
            t.check(1, 0, 2, 1).unwrap(),
            SequenceCheck::Duplicate { base_offset: 3, last_offset: 3 }
        );
    }

    #[test]
    fn out_of_order_append_records_violation() {
        let _serial =
            crate::checks::TEST_SINK_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        crate::checks::take_violations();
        let mut t = ProducerStateTable::new();
        t.on_append(1, 0, 0, 0, 2, false);
        // A buggy caller skips check() and appends a gapped sequence.
        t.on_append(1, 0, 9, 3, 3, false);
        let v = crate::checks::take_violations();
        assert!(v.iter().any(|v| v.invariant == "sequence-monotonicity"), "{v:?}");
    }

    #[test]
    fn stale_epoch_append_records_violation() {
        let _serial =
            crate::checks::TEST_SINK_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        crate::checks::take_violations();
        let mut t = ProducerStateTable::new();
        t.on_append(1, 5, 0, 0, 0, false);
        // A zombie from epoch 3 bypasses the fencing check.
        t.on_append(1, 3, 0, 1, 1, false);
        let v = crate::checks::take_violations();
        assert!(v.iter().any(|v| v.invariant == "epoch-fencing"), "{v:?}");
    }

    #[test]
    fn snapshot_entries_round_trip() {
        let mut t = ProducerStateTable::new();
        t.on_append(2, 1, 0, 10, 12, true);
        t.on_append(1, 0, 0, 0, 2, false);
        let entries = t.snapshot_entries();
        assert_eq!(entries.len(), 2);
        assert!(entries.windows(2).all(|w| w[0].producer_id < w[1].producer_id), "sorted by pid");
        let rebuilt = ProducerStateTable::from_snapshot_entries(entries);
        assert_eq!(rebuilt.last_sequence(1), t.last_sequence(1));
        assert_eq!(rebuilt.epoch_of(2), t.epoch_of(2));
        assert_eq!(rebuilt.txn_first_offset(2), Some(10));
        // Dedup behaviour carries over: the retry is still a duplicate.
        assert_eq!(
            rebuilt.check(1, 0, 0, 3).unwrap(),
            SequenceCheck::Duplicate { base_offset: 0, last_offset: 2 }
        );
    }

    #[test]
    fn rebuild_ignores_plain_batches() {
        let batches = vec![StoredBatch::new(BatchMeta::plain(), vec![(0, rec())])];
        let t = ProducerStateTable::rebuild_from(&batches);
        assert!(t.is_empty());
    }
}
