//! On-disk encoding for segment frames, producer snapshots, and checkpoints.
//!
//! Everything is little-endian and length-prefixed, with a CRC32 (IEEE) over
//! each payload so recovery can detect torn or corrupt writes and truncate
//! at the last valid frame — the same contract Kafka's log recovery relies
//! on. The codecs are hand-rolled (no external dependencies) and total: any
//! malformed input decodes to `None`, never a panic.

use crate::batch::{BatchMeta, ControlType, StoredBatch};
use crate::log::AbortedTxn;
use crate::producer_state::ProducerSnapshotEntry;
use crate::record::Record;
use crate::{Offset, NO_PRODUCER_ID};
use bytes::Bytes;

/// Magic prefix of a producer-state snapshot file (`"KSN1"`).
pub const SNAPSHOT_MAGIC: u32 = 0x4B53_4E31;

/// Magic prefix of a checkpoint file (`"KCP1"`).
pub const CHECKPOINT_MAGIC: u32 = 0x4B43_5031;

/// CRC32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `data` — the checksum framing every on-disk payload.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Little-endian write helpers
// ---------------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_opt_bytes(out: &mut Vec<u8>, v: Option<&Bytes>) {
    match v {
        None => put_i32(out, -1),
        Some(b) => {
            put_i32(out, i32::try_from(b.len()).unwrap_or(i32::MAX));
            out.extend_from_slice(b);
        }
    }
}

/// Cursor over a decoded payload; every read is bounds-checked.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    fn u8(&mut self) -> Option<u8> {
        self.array().map(|[b]| b)
    }

    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn i32(&mut self) -> Option<i32> {
        self.array().map(i32::from_le_bytes)
    }

    fn i64(&mut self) -> Option<i64> {
        self.array().map(i64::from_le_bytes)
    }

    fn opt_bytes(&mut self) -> Option<Option<Bytes>> {
        let len = self.i32()?;
        if len < 0 {
            return Some(None);
        }
        let s = self.take(len as usize)?;
        Some(Some(Bytes::copy_from_slice(s)))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Batch frames
// ---------------------------------------------------------------------------

const FLAG_TRANSACTIONAL: u8 = 1 << 0;
const FLAG_CONTROL: u8 = 1 << 1;
const FLAG_ABORT: u8 = 1 << 2;

/// Encode one stored batch as a frame payload (no length/CRC framing).
pub fn encode_batch(batch: &StoredBatch) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + batch.approximate_size());
    put_i64(&mut out, batch.meta.producer_id);
    put_i32(&mut out, batch.meta.producer_epoch);
    put_i64(&mut out, batch.meta.base_sequence);
    let mut flags = 0u8;
    if batch.meta.transactional {
        flags |= FLAG_TRANSACTIONAL;
    }
    match batch.meta.control {
        Some(ControlType::Commit) => flags |= FLAG_CONTROL,
        Some(ControlType::Abort) => flags |= FLAG_CONTROL | FLAG_ABORT,
        None => {}
    }
    put_u8(&mut out, flags);
    put_u32(&mut out, u32::try_from(batch.entries.len()).unwrap_or(u32::MAX));
    for (offset, rec) in batch.entries.iter() {
        put_i64(&mut out, *offset);
        put_i64(&mut out, rec.timestamp);
        put_opt_bytes(&mut out, rec.key.as_ref());
        put_opt_bytes(&mut out, rec.value.as_ref());
    }
    out
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
    let count = r.u32()? as usize;
    if count == 0 {
        return None;
    }
    // Counts come from the input: grow as records decode, never reserve.
    let mut entries = Vec::new();
    for _ in 0..count {
        let offset = r.i64()?;
        let timestamp = r.i64()?;
        let key = r.opt_bytes()?;
        let value = r.opt_bytes()?;
        entries.push((offset, Record { key, value, timestamp }));
    }
    if !r.done() {
        return None;
    }
    Some(StoredBatch::new(meta, entries))
}

/// Frame a payload for appending to a segment file:
/// `[len: u32][crc32(payload): u32][payload]`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut out, u32::try_from(payload.len()).unwrap_or(u32::MAX));
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// Read the next frame starting at `pos` in `buf`. Returns the validated
/// payload slice and the position just past the frame, or `None` when the
/// remainder is truncated or fails the CRC — the recovery cut point.
pub fn next_frame(buf: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let mut r = Reader::new(buf.get(pos..)?);
    let len = r.u32()? as usize;
    let crc = r.u32()?;
    let payload = r.take(len)?;
    if crc32(payload) != crc {
        return None;
    }
    Some((payload, pos + 8 + len))
}

// ---------------------------------------------------------------------------
// Producer-state snapshots
// ---------------------------------------------------------------------------

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

/// Encode a producer-state snapshot file (magic + body + trailing CRC).
pub fn encode_snapshot(snapshot: &ProducerSnapshot) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, SNAPSHOT_MAGIC);
    put_i64(&mut out, snapshot.snapshot_offset);
    put_u32(&mut out, u32::try_from(snapshot.entries.len()).unwrap_or(u32::MAX));
    for e in &snapshot.entries {
        put_i64(&mut out, e.producer_id);
        put_i32(&mut out, e.epoch);
        put_i64(&mut out, e.last_seq);
        match e.last_batch {
            None => put_u8(&mut out, 0),
            Some((base_seq, last_seq, base_off, last_off)) => {
                put_u8(&mut out, 1);
                put_i64(&mut out, base_seq);
                put_i64(&mut out, last_seq);
                put_i64(&mut out, base_off);
                put_i64(&mut out, last_off);
            }
        }
        match e.txn_first_offset {
            None => put_u8(&mut out, 0),
            Some(off) => {
                put_u8(&mut out, 1);
                put_i64(&mut out, off);
            }
        }
    }
    put_u32(&mut out, u32::try_from(snapshot.aborted.len()).unwrap_or(u32::MAX));
    for a in &snapshot.aborted {
        put_i64(&mut out, a.producer_id);
        put_i64(&mut out, a.first_offset);
        put_i64(&mut out, a.marker_offset);
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// Decode a producer-state snapshot file; `None` on magic/CRC mismatch or
/// malformation.
pub fn decode_snapshot(buf: &[u8]) -> Option<ProducerSnapshot> {
    if buf.len() < 4 {
        return None;
    }
    let (body, crc_bytes) = buf.split_at(buf.len() - 4);
    let stored_crc = u32::from_le_bytes(crc_bytes.try_into().ok()?);
    if crc32(body) != stored_crc {
        return None;
    }
    let mut r = Reader::new(body);
    if r.u32()? != SNAPSHOT_MAGIC {
        return None;
    }
    let snapshot_offset = r.i64()?;
    let n_entries = r.u32()? as usize;
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
    let n_aborted = r.u32()? as usize;
    let mut aborted = Vec::new();
    for _ in 0..n_aborted {
        aborted.push(AbortedTxn {
            producer_id: r.i64()?,
            first_offset: r.i64()?,
            marker_offset: r.i64()?,
        });
    }
    if !r.done() {
        return None;
    }
    Some(ProducerSnapshot { snapshot_offset, entries, aborted })
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// Encode the `(log_start, high_watermark)` checkpoint file.
pub fn encode_checkpoint(log_start: Offset, high_watermark: Offset) -> Vec<u8> {
    let mut out = Vec::with_capacity(24);
    put_u32(&mut out, CHECKPOINT_MAGIC);
    put_i64(&mut out, log_start);
    put_i64(&mut out, high_watermark);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// Decode a checkpoint file into `(log_start, high_watermark)`.
pub fn decode_checkpoint(buf: &[u8]) -> Option<(Offset, Offset)> {
    if buf.len() != 24 {
        return None;
    }
    let (body, crc_bytes) = buf.split_at(20);
    let stored_crc = u32::from_le_bytes(crc_bytes.try_into().ok()?);
    if crc32(body) != stored_crc {
        return None;
    }
    let mut r = Reader::new(body);
    if r.u32()? != CHECKPOINT_MAGIC {
        return None;
    }
    Some((r.i64()?, r.i64()?))
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
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is 0xCBF43926 (standard check value).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
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
