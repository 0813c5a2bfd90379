//! Property-based tests for the log substrate's core invariants.

use bytes::Bytes;
use klog::batch::{BatchMeta, ControlType};
use klog::compaction::compact;
use klog::producer_state::ProducerSnapshotEntry;
use klog::storage::format::{
    crc32, decode_batch, decode_checkpoint, decode_snapshot, encode_batch, encode_checkpoint,
    encode_snapshot, frame, next_frame, ProducerSnapshot, SNAPSHOT_MAGIC,
};
use klog::{AbortedTxn, IsolationLevel, Offset, PartitionLog, Record, StoredBatch};
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_record() -> impl Strategy<Value = Record> {
    ("[a-d]{1,3}", "[a-z]{0,6}", 0i64..10_000).prop_map(|(k, v, ts)| {
        Record::new(Some(Bytes::from(k.into_bytes())), Some(Bytes::from(v.into_bytes())), ts)
    })
}

fn arb_batches() -> impl Strategy<Value = Vec<Vec<Record>>> {
    prop::collection::vec(prop::collection::vec(arb_record(), 1..5), 1..40)
}

/// Replay a log into a key → latest-value map (read-uncommitted).
fn materialize(log: &PartitionLog) -> HashMap<Bytes, Option<Bytes>> {
    let mut state = HashMap::new();
    let mut pos = log.log_start();
    loop {
        let f = log.fetch(pos, 10_000, IsolationLevel::ReadUncommitted).unwrap();
        if f.count() == 0 && f.next_offset == pos {
            break;
        }
        for (_, rec) in f.records() {
            if let Some(k) = &rec.key {
                state.insert(k.clone(), rec.value.clone());
            }
        }
        pos = f.next_offset;
    }
    state
}

/// One step of the script that builds a log for the fetch property.
#[derive(Debug, Clone)]
enum LogOp {
    Plain(Vec<Record>),
    Idempotent(Vec<Record>),
    /// A transactional batch from producer `0..TXN_PRODUCERS`.
    Txn(usize, Vec<Record>),
    /// End that producer's open transaction, if it has one.
    End(usize, bool),
    /// Compact the stable prefix (leaves offset gaps inside batches).
    Compact,
    /// Move the high watermark to this percentage of the log end.
    AdvanceHw(i64),
}

const TXN_PRODUCERS: usize = 2;

fn arb_log_op() -> impl Strategy<Value = LogOp> {
    // Weighted choice: 3 plain / 2 idempotent / 4 txn / 3 end / 1 compact /
    // 3 watermark moves.
    (
        0u8..16,
        0usize..TXN_PRODUCERS,
        any::<bool>(),
        0i64..101,
        prop::collection::vec(arb_record(), 1..6),
    )
        .prop_map(|(w, p, commit, pct, records)| match w {
            0..=2 => LogOp::Plain(records),
            3..=4 => LogOp::Idempotent(records),
            5..=8 => LogOp::Txn(p, records),
            9..=11 => LogOp::End(p, commit),
            12 => LogOp::Compact,
            _ => LogOp::AdvanceHw(pct),
        })
}

/// A log under external watermark management, as a replica's is, driven
/// through `ops`.
fn build_log(ops: &[LogOp]) -> PartitionLog {
    let mut log = PartitionLog::new().with_managed_watermark();
    let mut idempotent_seq = 0i64;
    let mut txn_seq = [0i64; TXN_PRODUCERS];
    let mut open = [false; TXN_PRODUCERS];
    for op in ops {
        match op {
            LogOp::Plain(records) => {
                log.append(BatchMeta::plain(), records.clone()).unwrap();
            }
            LogOp::Idempotent(records) => {
                log.append(BatchMeta::idempotent(50, 0, idempotent_seq), records.clone()).unwrap();
                idempotent_seq += records.len() as i64;
            }
            LogOp::Txn(p, records) => {
                let meta = BatchMeta::transactional(100 + *p as i64, 0, txn_seq[*p]);
                log.append(meta, records.clone()).unwrap();
                txn_seq[*p] += records.len() as i64;
                open[*p] = true;
            }
            LogOp::End(p, commit) => {
                if std::mem::take(&mut open[*p]) {
                    let ctl = if *commit { ControlType::Commit } else { ControlType::Abort };
                    log.append_control(100 + *p as i64, 0, ctl, 0).unwrap();
                }
            }
            LogOp::Compact => {
                compact(&mut log).unwrap();
            }
            LogOp::AdvanceHw(pct) => log.advance_high_watermark(log.log_end() * pct / 100).unwrap(),
        }
    }
    log
}

/// What `fetch` must return, decided one record at a time: the loop `fetch`
/// ran before whole batches were handed out as stored, kept as the
/// reference. Returns the `(offset, record)` sequence and the next offset.
fn reference_fetch(
    log: &PartitionLog,
    from: Offset,
    max_records: usize,
    isolation: IsolationLevel,
) -> (Vec<(Offset, Record)>, Offset) {
    let bound = match isolation {
        IsolationLevel::ReadUncommitted => log.high_watermark(),
        IsolationLevel::ReadCommitted => log.high_watermark().min(log.last_stable_offset()),
    };
    let mut out: Vec<(Offset, Record)> = Vec::new();
    let mut next_offset = from;
    for batch in log.batches().filter(|b| b.last_offset() >= from) {
        if batch.base_offset() >= bound || out.len() >= max_records {
            break;
        }
        let base = batch.base_offset();
        let aborted = batch.meta.transactional
            && !batch.meta.is_control()
            && log.aborted_txns().iter().any(|a| {
                a.producer_id == batch.meta.producer_id
                    && a.first_offset <= base
                    && base < a.marker_offset
            });
        if batch.meta.is_control() || (isolation == IsolationLevel::ReadCommitted && aborted) {
            if batch.last_offset() < bound {
                next_offset = next_offset.max(batch.last_offset() + 1);
            }
            continue;
        }
        let room = max_records - out.len();
        let visible = batch.entries.iter().filter(|(o, _)| *o >= from && *o < bound).take(room);
        out.extend(visible.cloned());
        if let Some((last, _)) = out.last() {
            next_offset = next_offset.max(last + 1);
        }
    }
    (out, next_offset)
}

proptest! {
    /// Over random logs — plain, idempotent and transactional batches,
    /// commit and abort markers, compaction gaps, a moving high watermark —
    /// and random fetch bounds, `fetch` returns exactly what a per-record
    /// filter returns; a batch it covers whole is the stored allocation and
    /// a batch it cuts is a copy.
    #[test]
    fn fetch_matches_per_record_reference(
        ops in prop::collection::vec(arb_log_op(), 1..40),
        from_pct in 0i64..101,
        max_records in 1usize..24,
        read_committed in any::<bool>(),
    ) {
        let log = build_log(&ops);
        let from = log.log_end() * from_pct / 100;
        let isolation = if read_committed {
            IsolationLevel::ReadCommitted
        } else {
            IsolationLevel::ReadUncommitted
        };
        let got = log.fetch(from, max_records, isolation).unwrap();
        let (want, want_next) = reference_fetch(&log, from, max_records, isolation);
        let flat: Vec<(Offset, Record)> = got.records().map(|(o, r)| (o, r.clone())).collect();
        prop_assert_eq!(flat, want);
        prop_assert_eq!(got.next_offset, want_next);
        prop_assert_eq!(got.high_watermark, log.high_watermark());
        prop_assert_eq!(got.last_stable_offset, log.last_stable_offset());
        prop_assert_eq!(got.log_start, log.log_start());
        for fetched in &got.batches {
            let stored = log
                .batches()
                .find(|b| b.base_offset() <= fetched.base_offset()
                    && fetched.last_offset() <= b.last_offset())
                .expect("a fetched batch comes from one stored batch");
            prop_assert_eq!(&fetched.meta, &stored.meta);
            prop_assert_eq!(
                StoredBatch::ptr_eq(fetched, stored),
                fetched.len() == stored.len(),
                "whole batches are shared, cut ones copied: fetched {:?} of stored {:?}",
                (fetched.base_offset(), fetched.last_offset()),
                (stored.base_offset(), stored.last_offset())
            );
        }
    }

    /// Appends assign dense, strictly increasing offsets, and fetch returns
    /// exactly what was appended, in order.
    #[test]
    fn append_fetch_round_trip(batches in arb_batches()) {
        let mut log = PartitionLog::new();
        let mut expected = Vec::new();
        for batch in &batches {
            let out = log.append(BatchMeta::plain(), batch.clone()).unwrap();
            prop_assert_eq!(out.base_offset, expected.len() as i64);
            expected.extend(batch.iter().cloned());
        }
        let f = log.fetch(0, usize::MAX, IsolationLevel::ReadUncommitted).unwrap();
        prop_assert_eq!(f.count(), expected.len());
        for ((off, got), (i, want)) in f.records().zip(expected.iter().enumerate()) {
            prop_assert_eq!(off, i as i64);
            prop_assert_eq!(got, want);
        }
    }

    /// Fetching in arbitrary chunk sizes yields the same stream as one big
    /// fetch.
    #[test]
    fn chunked_fetch_equals_full_fetch(
        batches in arb_batches(),
        chunk in 1usize..7,
    ) {
        let mut log = PartitionLog::new();
        for batch in &batches {
            log.append(BatchMeta::plain(), batch.clone()).unwrap();
        }
        let full: Vec<(i64, Record)> = log
            .fetch(0, usize::MAX, IsolationLevel::ReadUncommitted)
            .unwrap()
            .records()
            .map(|(o, r)| (o, r.clone()))
            .collect();
        let mut chunked = Vec::new();
        let mut pos = 0;
        loop {
            let f = log.fetch(pos, chunk, IsolationLevel::ReadUncommitted).unwrap();
            if f.count() == 0 {
                break;
            }
            chunked.extend(f.records().map(|(o, r)| (o, r.clone())));
            pos = f.next_offset;
        }
        prop_assert_eq!(full, chunked);
    }

    /// Idempotent duplicate retries never grow the log, regardless of the
    /// retry pattern.
    #[test]
    fn duplicates_never_grow_log(
        batches in prop::collection::vec(prop::collection::vec(arb_record(), 1..4), 1..15),
        retries in prop::collection::vec(any::<bool>(), 1..15),
    ) {
        let mut log = PartitionLog::new();
        let mut seq = 0i64;
        let mut total = 0usize;
        for (i, batch) in batches.iter().enumerate() {
            let meta = BatchMeta::idempotent(1, 0, seq);
            log.append(meta.clone(), batch.clone()).unwrap();
            total += batch.len();
            // Retry the same batch 0..n times.
            if retries.get(i % retries.len()).copied().unwrap_or(false) {
                let out = log.append(meta, batch.clone()).unwrap();
                prop_assert!(out.duplicate);
            }
            seq += batch.len() as i64;
        }
        prop_assert_eq!(log.record_count(), total);
    }

    /// Compaction preserves the materialized view: replaying the compacted
    /// log yields exactly the same key→latest-value map.
    #[test]
    fn compaction_preserves_materialized_state(batches in arb_batches()) {
        let mut log = PartitionLog::new();
        for batch in &batches {
            log.append(BatchMeta::plain(), batch.clone()).unwrap();
        }
        let before = materialize(&log);
        let stats = compact(&mut log).unwrap();
        let after = materialize(&log);
        prop_assert_eq!(&before, &after);
        // And the compacted log holds at most one record per key.
        prop_assert!(stats.records_after <= before.len());
    }

    /// Compaction is idempotent.
    #[test]
    fn compaction_idempotent(batches in arb_batches()) {
        let mut log = PartitionLog::new();
        for batch in &batches {
            log.append(BatchMeta::plain(), batch.clone()).unwrap();
        }
        compact(&mut log).unwrap();
        let once = materialize(&log);
        let stats = compact(&mut log).unwrap();
        prop_assert_eq!(stats.records_before, stats.records_after);
        prop_assert_eq!(once, materialize(&log));
    }

    /// Producer-state recovery from the log is equivalent to the live
    /// table: retried batches are still recognised afterwards.
    #[test]
    fn recovery_preserves_dedup(
        batches in prop::collection::vec(prop::collection::vec(arb_record(), 1..4), 1..10),
    ) {
        let mut log = PartitionLog::new();
        let mut seq = 0i64;
        let mut metas = Vec::new();
        for batch in &batches {
            let meta = BatchMeta::idempotent(3, 0, seq);
            log.append(meta.clone(), batch.clone()).unwrap();
            metas.push((meta, batch.clone()));
            seq += batch.len() as i64;
        }
        log.recover_producer_state();
        // The most recent batch is still recognised as a duplicate.
        let (meta, batch) = metas.last().unwrap().clone();
        let out = log.append(meta, batch).unwrap();
        prop_assert!(out.duplicate);
    }

    /// Read-committed never returns records of an open or aborted
    /// transaction, and the two isolation levels agree on committed data.
    #[test]
    fn isolation_invariants(
        committed in prop::collection::vec(arb_record(), 0..10),
        aborted in prop::collection::vec(arb_record(), 0..10),
        open in prop::collection::vec(arb_record(), 0..10),
    ) {
        let mut log = PartitionLog::new();
        if !committed.is_empty() {
            log.append(BatchMeta::transactional(1, 0, 0), committed.clone()).unwrap();
            log.append_control(1, 0, ControlType::Commit, 0).unwrap();
        }
        if !aborted.is_empty() {
            log.append(BatchMeta::transactional(2, 0, 0), aborted.clone()).unwrap();
            log.append_control(2, 0, ControlType::Abort, 0).unwrap();
        }
        if !open.is_empty() {
            log.append(BatchMeta::transactional(3, 0, 0), open.clone()).unwrap();
        }
        let rc = log.fetch(0, usize::MAX, IsolationLevel::ReadCommitted).unwrap();
        prop_assert_eq!(rc.count(), committed.len());
        let ru = log.fetch(0, usize::MAX, IsolationLevel::ReadUncommitted).unwrap();
        prop_assert_eq!(ru.count(), committed.len() + aborted.len() + open.len());
        // LSO: everything below it is decided.
        prop_assert!(log.last_stable_offset() <= log.log_end());
        if open.is_empty() {
            prop_assert_eq!(log.last_stable_offset(), log.log_end());
        }
    }

    /// Over long random abort histories — four transactional producers,
    /// commits, aborts, suffix and prefix truncation, producer-state rescans
    /// — a read-committed fetch hides exactly the batches the linear scan
    /// over `aborted_txns()` (`reference_fetch`) calls aborted.
    #[test]
    fn abort_lookup_matches_linear_scan(
        ops in prop::collection::vec((0u8..12, 0i64..4, 1usize..3, 0i64..101), 1..160),
        from_pct in 0i64..101,
    ) {
        let mut log = PartitionLog::new();
        for (kind, p, n, pct) in ops {
            let pid = 100 + p;
            match kind {
                0..=3 => {
                    let seq = log.producer_state().last_sequence(pid).map_or(0, |s| s + 1);
                    let records = (0..n).map(|i| Record::of_str("k", "v", i as i64)).collect();
                    log.append(BatchMeta::transactional(pid, 0, seq), records).unwrap();
                }
                4 => {
                    log.append_control(pid, 0, ControlType::Commit, 0).unwrap();
                }
                5 | 6 => {
                    log.append_control(pid, 0, ControlType::Abort, 0).unwrap();
                }
                7 => {
                    log.append(BatchMeta::plain(), vec![Record::of_str("k", "v", 0)]).unwrap();
                }
                8 => log.truncate_suffix(log.log_end() * pct / 100).unwrap(),
                9 => log.truncate_prefix(log.log_end() * pct / 100).unwrap(),
                10 => log.recover_producer_state(),
                _ => {}
            }
        }
        // Close every transaction so the whole log is below the LSO.
        for pid in 100..104 {
            log.append_control(pid, 0, ControlType::Abort, 0).unwrap();
        }
        prop_assert_eq!(log.last_stable_offset(), log.log_end());
        let start = log.log_start();
        for from in [start, start + (log.log_end() - start) * from_pct / 100] {
            let got = log.fetch(from, usize::MAX, IsolationLevel::ReadCommitted).unwrap();
            let (want, want_next) =
                reference_fetch(&log, from, usize::MAX, IsolationLevel::ReadCommitted);
            let flat: Vec<(Offset, Record)> = got.records().map(|(o, r)| (o, r.clone())).collect();
            prop_assert_eq!(flat, want, "from {}", from);
            prop_assert_eq!(got.next_offset, want_next);
        }
    }

    /// Prefix truncation only removes data below the cut, and watermarks
    /// stay consistent.
    #[test]
    fn truncate_prefix_invariants(
        batches in arb_batches(),
        cut_frac in 0.0f64..1.2,
    ) {
        let mut log = PartitionLog::new();
        for batch in &batches {
            log.append(BatchMeta::plain(), batch.clone()).unwrap();
        }
        let end = log.log_end();
        let cut = ((end as f64) * cut_frac) as i64;
        log.truncate_prefix(cut).unwrap();
        prop_assert!(log.log_start() <= end);
        prop_assert!(log.log_start() >= cut.min(end).min(log.log_start()));
        prop_assert_eq!(log.log_end(), end, "truncation must not move the end");
        let f = log
            .fetch(log.log_start(), usize::MAX, IsolationLevel::ReadUncommitted)
            .unwrap();
        for (off, _) in f.records() {
            prop_assert!(off >= log.log_start());
        }
    }
}

// ---------------------------------------------------------------------------
// The on-disk decoders are total: whatever bytes recovery reads — garbage, a
// torn write, a flipped bit — decode to `None` or a value, never a panic.
// ---------------------------------------------------------------------------

fn arb_batch() -> impl Strategy<Value = StoredBatch> {
    let record = (prop::option::of("[a-d]{0,3}"), prop::option::of("[a-z]{0,6}"), any::<i64>())
        .prop_map(|(k, v, ts)| {
            Record::new(
                k.map(|k| Bytes::from(k.into_bytes())),
                v.map(|v| Bytes::from(v.into_bytes())),
                ts,
            )
        });
    (0u8..5, 0i64..1_000, 0i32..4, 0i64..1_000, prop::collection::vec(record, 1..5)).prop_map(
        |(kind, base, epoch, seq, records)| {
            let (meta, records) = match kind {
                0 => (BatchMeta::plain(), records),
                1 => (BatchMeta::idempotent(7, epoch, seq), records),
                2 => (BatchMeta::transactional(7, epoch, seq), records),
                k => {
                    let ctl = if k == 3 { ControlType::Commit } else { ControlType::Abort };
                    (BatchMeta::control(7, epoch, ctl), vec![Record::new(None, None, seq)])
                }
            };
            let entries = records.into_iter().enumerate().map(|(i, r)| (base + i as i64, r));
            StoredBatch::new(meta, entries.collect::<Vec<_>>())
        },
    )
}

proptest! {
    /// A stored batch's one block reads back the metadata and entries it
    /// was built from, at every length, through every handle: payloads of
    /// 0..48 bytes cross the 22-byte line between inline and shared `Bytes`.
    #[test]
    fn stored_batch_round_trips_meta_and_entries(
        len in 1usize..1_001,
        kind in 0u8..4,
        epoch in 0i32..4,
        seq in 0i64..1_000,
        salt in 0usize..48,
    ) {
        let meta = match kind {
            0 => BatchMeta::plain(),
            1 => BatchMeta::idempotent(7, epoch, seq),
            2 => BatchMeta::transactional(7, epoch, seq),
            _ => BatchMeta::control(7, epoch, ControlType::Abort),
        };
        let entries: Vec<(Offset, Record)> = (0..len)
            .map(|i| {
                let payload = vec![i as u8; (i * 7 + salt) % 48];
                let key = (i % 3 != 0).then(|| Bytes::from(payload.clone()));
                (seq + 2 * i as i64, Record::new(key, Some(Bytes::from(payload)), i as i64 - 5))
            })
            .collect();
        let batch = StoredBatch::new(meta.clone(), entries.clone());
        let shared = batch.clone();
        drop(batch);
        prop_assert_eq!(&shared.meta, &meta);
        prop_assert_eq!(&shared.entries, &entries[..]);
        prop_assert_eq!(shared.base_offset(), seq);
        prop_assert_eq!(shared.last_offset(), seq + 2 * (len as i64 - 1));
        prop_assert_eq!(shared.max_timestamp(), len as i64 - 6);
    }
}

fn arb_snapshot() -> impl Strategy<Value = ProducerSnapshot> {
    let entry = (
        0i64..1_000,
        any::<i32>(),
        any::<i64>(),
        prop::option::of((any::<i64>(), any::<i64>(), any::<i64>(), any::<i64>())),
        prop::option::of(any::<i64>()),
    )
        .prop_map(|(producer_id, epoch, last_seq, last_batch, txn_first_offset)| {
            ProducerSnapshotEntry { producer_id, epoch, last_seq, last_batch, txn_first_offset }
        });
    let aborted = (any::<i64>(), any::<i64>(), any::<i64>()).prop_map(
        |(producer_id, first_offset, marker_offset)| AbortedTxn {
            producer_id,
            first_offset,
            marker_offset,
        },
    );
    (any::<i64>(), prop::collection::vec(entry, 0..4), prop::collection::vec(aborted, 0..3))
        .prop_map(|(snapshot_offset, entries, aborted)| ProducerSnapshot {
            snapshot_offset,
            entries,
            aborted,
        })
}

/// Every single-bit flip of `bytes`.
fn bit_flips(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    (0..bytes.len() * 8).map(|bit| {
        let mut flipped = bytes.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        flipped
    })
}

proptest! {
    /// Arbitrary bytes — raw, and sealed with a valid frame or snapshot CRC
    /// so the parsers behind the checksum see garbage too (counts claiming
    /// billions of records included) — never panic a decoder.
    #[test]
    fn decoders_are_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        for pos in 0..bytes.len() + 2 {
            let _ = next_frame(&bytes, pos);
        }
        let _ = decode_batch(&bytes);
        let _ = decode_snapshot(&bytes);
        let _ = decode_checkpoint(&bytes);
        let framed = frame(&bytes);
        prop_assert_eq!(next_frame(&framed, 0), Some((bytes.as_slice(), framed.len())));
        let mut sealed = SNAPSHOT_MAGIC.to_le_bytes().to_vec();
        sealed.extend_from_slice(&bytes);
        sealed.extend_from_slice(&crc32(&sealed).to_le_bytes());
        let _ = decode_snapshot(&sealed);
    }

    /// A framed batch round-trips; every truncation and every single-bit
    /// flip of the frame is rejected, and no cut or flipped payload panics
    /// the batch decoder.
    #[test]
    fn batch_frames_round_trip_and_reject_damage(batch in arb_batch()) {
        let payload = encode_batch(&batch);
        prop_assert_eq!(decode_batch(&payload), Some(batch.clone()));
        let framed = frame(&payload);
        prop_assert_eq!(next_frame(&framed, 0), Some((payload.as_slice(), framed.len())));
        for cut in 0..payload.len() {
            prop_assert!(decode_batch(&payload[..cut]).is_none(), "payload cut at {}", cut);
        }
        for cut in 0..framed.len() {
            prop_assert!(next_frame(&framed[..cut], 0).is_none(), "frame cut at {}", cut);
        }
        for flipped in bit_flips(&payload) {
            let _ = decode_batch(&flipped);
        }
        for flipped in bit_flips(&framed) {
            let decoded = next_frame(&flipped, 0).and_then(|(p, _)| decode_batch(p));
            prop_assert!(decoded.is_none(), "a flipped frame decoded: {:?}", decoded);
        }
    }

    /// Snapshots and checkpoints round-trip; every truncation and every
    /// single-bit flip is rejected.
    #[test]
    fn snapshots_and_checkpoints_round_trip_and_reject_damage(
        snapshot in arb_snapshot(),
        log_start in any::<i64>(),
        high_watermark in any::<i64>(),
    ) {
        let enc = encode_snapshot(&snapshot);
        prop_assert_eq!(decode_snapshot(&enc), Some(snapshot));
        for cut in 0..enc.len() {
            prop_assert!(decode_snapshot(&enc[..cut]).is_none(), "snapshot cut at {}", cut);
        }
        for flipped in bit_flips(&enc) {
            prop_assert!(decode_snapshot(&flipped).is_none());
        }
        let enc = encode_checkpoint(log_start, high_watermark);
        prop_assert_eq!(decode_checkpoint(&enc), Some((log_start, high_watermark)));
        for cut in 0..enc.len() {
            prop_assert!(decode_checkpoint(&enc[..cut]).is_none(), "checkpoint cut at {}", cut);
        }
        for flipped in bit_flips(&enc) {
            prop_assert!(decode_checkpoint(&flipped).is_none());
        }
    }
}
