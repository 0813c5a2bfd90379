//! On-disk encoding for segment frames, producer snapshots, and checkpoints,
//! written and read through the one [`crate::codec`].
//!
//! A CRC32 (IEEE) guards each frame and file, so recovery can detect torn
//! or corrupt writes and truncate at the last valid frame — the same
//! contract Kafka's log recovery relies on. Every decoder is total: any
//! malformed input decodes to `None`, never a panic.

use crate::batch::{BatchMeta, ControlType, StoredBatch};
use crate::codec::{crc32, open, seal, Reader, Writer};
use crate::log::AbortedTxn;
use crate::producer_state::ProducerSnapshotEntry;
use crate::record::Record;
use crate::{Offset, NO_PRODUCER_ID};
use bytes::Bytes;

/// Magic prefix of a producer-state snapshot file (`"KSN1"`).
pub const SNAPSHOT_MAGIC: u32 = 0x4B53_4E31;

/// Magic prefix of a checkpoint file (`"KCP1"`).
pub const CHECKPOINT_MAGIC: u32 = 0x4B43_5031;

const FLAG_TRANSACTIONAL: u8 = 1 << 0;
const FLAG_CONTROL: u8 = 1 << 1;
const FLAG_ABORT: u8 = 1 << 2;

/// Encode one stored batch as a frame payload (no length/CRC framing).
pub fn encode_batch(batch: &StoredBatch) -> Vec<u8> {
    let mut out = Writer::with_capacity(64 + batch.approximate_size());
    out.put_i64(batch.meta.producer_id);
    out.put_i32(batch.meta.producer_epoch);
    out.put_i64(batch.meta.base_sequence);
    let mut flags = 0u8;
    if batch.meta.transactional {
        flags |= FLAG_TRANSACTIONAL;
    }
    match batch.meta.control {
        Some(ControlType::Commit) => flags |= FLAG_CONTROL,
        Some(ControlType::Abort) => flags |= FLAG_CONTROL | FLAG_ABORT,
        None => {}
    }
    out.put_u8(flags);
    out.put_count(batch.entries.len());
    for (offset, rec) in batch.entries.iter() {
        out.put_i64(*offset);
        out.put_i64(rec.timestamp);
        out.put_opt_bytes(rec.key.as_deref());
        out.put_opt_bytes(rec.value.as_deref());
    }
    out.finish()
}

/// Decode a frame payload back into a stored batch. `None` on any
/// malformation (bad lengths, trailing garbage, empty batch).
pub fn decode_batch(payload: &[u8]) -> Option<StoredBatch> {
    let mut r = Reader::new(payload);
    let producer_id = r.i64()?;
    let producer_epoch = r.i32()?;
    let base_sequence = r.i64()?;
    let flags = r.u8()?;
    let control = if flags & FLAG_CONTROL != 0 {
        Some(if flags & FLAG_ABORT != 0 { ControlType::Abort } else { ControlType::Commit })
    } else {
        None
    };
    let meta = BatchMeta {
        producer_id,
        producer_epoch,
        base_sequence,
        transactional: flags & FLAG_TRANSACTIONAL != 0,
        control,
    };
    let count = r.count()?;
    if count == 0 {
        return None;
    }
    // Counts come from the input: grow as records decode, never reserve.
    let mut entries = Vec::new();
    for _ in 0..count {
        let offset = r.i64()?;
        let timestamp = r.i64()?;
        let key = r.opt_bytes()?.map(Bytes::copy_from_slice);
        let value = r.opt_bytes()?.map(Bytes::copy_from_slice);
        entries.push((offset, Record { key, value, timestamp }));
    }
    r.end(StoredBatch::new(meta, entries))
}

/// Frame a payload for appending to a segment file:
/// `[len: u32][crc32(payload): u32][payload]`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Writer::with_capacity(payload.len() + 8);
    out.put_count(payload.len());
    out.put_u32(crc32(payload));
    out.put_raw(payload);
    out.finish()
}

/// Read the next frame starting at `pos` in `buf`. Returns the validated
/// payload slice and the position just past the frame, or `None` when the
/// remainder is truncated or fails the CRC — the recovery cut point.
pub fn next_frame(buf: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let mut r = Reader::new(buf.get(pos..)?);
    let len = r.count()?;
    let crc = r.u32()?;
    let payload = r.take(len)?;
    (crc32(payload) == crc).then_some((payload, pos + 8 + len))
}

/// A decoded producer-state snapshot: the table entries and aborted-txn
/// index as of `snapshot_offset` (everything strictly below it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProducerSnapshot {
    /// All batches with last offset `< snapshot_offset` are reflected.
    pub snapshot_offset: Offset,
    /// Per-producer entries, sorted by producer id.
    pub entries: Vec<ProducerSnapshotEntry>,
    /// Aborted transactions whose marker is below `snapshot_offset`.
    pub aborted: Vec<AbortedTxn>,
}

/// Encode a producer-state snapshot file ([`seal`]ed).
pub fn encode_snapshot(snapshot: &ProducerSnapshot) -> Vec<u8> {
    seal(SNAPSHOT_MAGIC, |w| {
        w.put_i64(snapshot.snapshot_offset);
        w.put_count(snapshot.entries.len());
        for e in &snapshot.entries {
            w.put_i64(e.producer_id);
            w.put_i32(e.epoch);
            w.put_i64(e.last_seq);
            match e.last_batch {
                None => w.put_u8(0),
                Some((base_seq, last_seq, base_off, last_off)) => {
                    w.put_u8(1);
                    w.put_i64(base_seq);
                    w.put_i64(last_seq);
                    w.put_i64(base_off);
                    w.put_i64(last_off);
                }
            }
            match e.txn_first_offset {
                None => w.put_u8(0),
                Some(off) => {
                    w.put_u8(1);
                    w.put_i64(off);
                }
            }
        }
        w.put_count(snapshot.aborted.len());
        for a in &snapshot.aborted {
            w.put_i64(a.producer_id);
            w.put_i64(a.first_offset);
            w.put_i64(a.marker_offset);
        }
    })
}

/// Decode a producer-state snapshot file; `None` on magic/CRC mismatch or
/// malformation.
pub fn decode_snapshot(buf: &[u8]) -> Option<ProducerSnapshot> {
    let mut r = open(buf, SNAPSHOT_MAGIC)?;
    let snapshot_offset = r.i64()?;
    let n_entries = r.count()?;
    let mut entries = Vec::new();
    for _ in 0..n_entries {
        let producer_id = r.i64()?;
        if producer_id == NO_PRODUCER_ID {
            return None;
        }
        let epoch = r.i32()?;
        let last_seq = r.i64()?;
        let last_batch =
            if r.u8()? != 0 { Some((r.i64()?, r.i64()?, r.i64()?, r.i64()?)) } else { None };
        let txn_first_offset = if r.u8()? != 0 { Some(r.i64()?) } else { None };
        entries.push(ProducerSnapshotEntry {
            producer_id,
            epoch,
            last_seq,
            last_batch,
            txn_first_offset,
        });
    }
    let n_aborted = r.count()?;
    let mut aborted = Vec::new();
    for _ in 0..n_aborted {
        aborted.push(AbortedTxn {
            producer_id: r.i64()?,
            first_offset: r.i64()?,
            marker_offset: r.i64()?,
        });
    }
    r.end(ProducerSnapshot { snapshot_offset, entries, aborted })
}

/// Encode the `(log_start, high_watermark)` checkpoint file ([`seal`]ed).
pub fn encode_checkpoint(log_start: Offset, high_watermark: Offset) -> Vec<u8> {
    seal(CHECKPOINT_MAGIC, |w| {
        w.put_i64(log_start);
        w.put_i64(high_watermark);
    })
}

/// Decode a checkpoint file into `(log_start, high_watermark)`.
pub fn decode_checkpoint(buf: &[u8]) -> Option<(Offset, Offset)> {
    let mut r = open(buf, CHECKPOINT_MAGIC)?;
    let hw = (r.i64()?, r.i64()?);
    r.end(hw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchMeta;
    use crate::NO_SEQUENCE;

    fn sample_batch() -> StoredBatch {
        StoredBatch::new(
            BatchMeta::transactional(7, 2, 5),
            vec![
                (10, Record::of_str("k1", "v1", 100)),
                (11, Record::tombstone(Bytes::from_static(b"k2"), 101)),
                (12, Record::new(None, Some(Bytes::from_static(b"v3")), 102)),
            ],
        )
    }

    #[test]
    fn batch_round_trips() {
        let b = sample_batch();
        let enc = encode_batch(&b);
        assert_eq!(decode_batch(&enc).expect("decodes"), b);
    }

    #[test]
    fn control_batch_round_trips() {
        let b = StoredBatch::new(
            BatchMeta::control(3, 1, ControlType::Abort),
            vec![(42, Record { key: None, value: None, timestamp: 9 })],
        );
        let enc = encode_batch(&b);
        assert_eq!(decode_batch(&enc).expect("decodes"), b);
    }

    #[test]
    fn corrupt_payload_rejected() {
        let mut enc = encode_batch(&sample_batch());
        enc.truncate(enc.len() - 1);
        assert!(decode_batch(&enc).is_none(), "truncated payload must not decode");
        let mut garbage = encode_batch(&sample_batch());
        garbage.push(0xFF);
        assert!(decode_batch(&garbage).is_none(), "trailing garbage must not decode");
    }

    #[test]
    fn frame_round_trips_and_detects_corruption() {
        let payload = encode_batch(&sample_batch());
        let mut file = frame(&payload);
        let second = frame(&payload);
        file.extend_from_slice(&second);
        let (p1, next) = next_frame(&file, 0).expect("first frame");
        assert_eq!(p1, payload.as_slice());
        let (p2, end) = next_frame(&file, next).expect("second frame");
        assert_eq!(p2, payload.as_slice());
        assert_eq!(end, file.len());
        assert!(next_frame(&file, end).is_none(), "no frame past the end");
        // Flip one payload byte: the CRC must catch it.
        file[10] ^= 0x01;
        assert!(next_frame(&file, 0).is_none());
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = ProducerSnapshot {
            snapshot_offset: 99,
            entries: vec![
                ProducerSnapshotEntry {
                    producer_id: 1,
                    epoch: 0,
                    last_seq: 41,
                    last_batch: Some((40, 41, 90, 91)),
                    txn_first_offset: Some(90),
                },
                ProducerSnapshotEntry {
                    producer_id: 2,
                    epoch: 3,
                    last_seq: NO_SEQUENCE,
                    last_batch: None,
                    txn_first_offset: None,
                },
            ],
            aborted: vec![AbortedTxn { producer_id: 1, first_offset: 10, marker_offset: 20 }],
        };
        let enc = encode_snapshot(&snap);
        assert_eq!(decode_snapshot(&enc).expect("decodes"), snap);
    }

    #[test]
    fn snapshot_crc_guard() {
        let snap = ProducerSnapshot { snapshot_offset: 5, entries: vec![], aborted: vec![] };
        let mut enc = encode_snapshot(&snap);
        enc[4] ^= 0xFF;
        assert!(decode_snapshot(&enc).is_none());
    }

    #[test]
    fn checkpoint_round_trips() {
        let enc = encode_checkpoint(17, 40);
        assert_eq!(decode_checkpoint(&enc), Some((17, 40)));
        let mut bad = encode_checkpoint(17, 40);
        bad[5] ^= 0x10;
        assert_eq!(decode_checkpoint(&bad), None);
        assert_eq!(decode_checkpoint(&[]), None);
    }
}
