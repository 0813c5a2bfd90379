//! Key-based log compaction (§3.2).
//!
//! Changelog topics record every state-store update; brokers "remove records
//! for which another record was appended with the same key but a higher
//! offset". Compaction is what keeps changelogs bounded by *state size*
//! rather than *update count*, making restore-by-replay cheap (§4's
//! "disposable materialized views").
//!
//! Rules implemented here, matching Kafka's cleaner:
//! * only the *stable* region is compacted — offsets below
//!   `min(high watermark, last stable offset)`; the dirty tail is untouched,
//! * original offsets are preserved (batches become sparse),
//! * records of **aborted** transactions are removed outright,
//! * control (marker) batches are retained,
//! * keyless records are never compacted away,
//! * tombstones (null values) are retained as the latest value for their
//!   key (a pass never drops a key outright).

use crate::batch::StoredBatch;
use crate::error::LogError;
use crate::log::PartitionLog;
use crate::record::Record;
use crate::Offset;
use bytes::Bytes;
use std::collections::HashMap;

/// What a compaction pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Records in the compacted range before the pass.
    pub records_before: usize,
    /// Records retained after the pass.
    pub records_after: usize,
    /// Approximate bytes before the pass.
    pub bytes_before: usize,
    /// Approximate bytes retained after the pass.
    pub bytes_after: usize,
}

impl CompactionStats {
    /// Fraction of records removed, in `[0, 1]`.
    pub fn reclaimed_fraction(&self) -> f64 {
        if self.records_before == 0 {
            0.0
        } else {
            1.0 - self.records_after as f64 / self.records_before as f64
        }
    }
}

/// Run one compaction pass over `log`. Fails only when the log's disk
/// cannot be rewritten.
pub fn compact(log: &mut PartitionLog) -> Result<CompactionStats, LogError> {
    let bound: Offset = log.high_watermark().min(log.last_stable_offset());
    let aborted = log.aborted_txns().to_vec();
    let is_aborted = |batch: &StoredBatch| {
        batch.meta.transactional
            && !batch.meta.is_control()
            && aborted.iter().any(|a| {
                a.producer_id == batch.meta.producer_id
                    && a.first_offset <= batch.base_offset()
                    && batch.base_offset() < a.marker_offset
            })
    };

    let before: Vec<StoredBatch> = log.batches().cloned().collect();
    let records_before: usize =
        before.iter().filter(|b| !b.meta.is_control()).map(StoredBatch::len).sum();
    let bytes_before: usize = before.iter().map(StoredBatch::approximate_size).sum();

    // Pass 1: latest retained offset per key in the clean region.
    let mut latest: HashMap<Bytes, Offset> = HashMap::new();
    for batch in &before {
        if batch.meta.is_control() || is_aborted(batch) {
            continue;
        }
        for (off, rec) in batch.entries.iter() {
            if *off >= bound {
                break;
            }
            if let Some(key) = &rec.key {
                latest.insert(key.clone(), *off);
            }
        }
    }

    // Pass 2: rewrite batches. A batch that loses nothing is kept as stored
    // (still the batch its replicas and consumers share); one that
    // loses records is rebuilt from copies of the survivors.
    let mut out: Vec<StoredBatch> = Vec::with_capacity(before.len());
    for batch in before {
        if batch.meta.is_control() {
            out.push(batch);
            continue;
        }
        let aborted_batch = is_aborted(&batch);
        let keep = |(off, rec): &(Offset, Record)| {
            if *off >= bound {
                return true; // dirty tail untouched
            }
            if aborted_batch {
                return false; // aborted data removed
            }
            match &rec.key {
                None => true, // keyless records kept
                // Superseded by a later record?
                Some(key) => latest.get(key) == Some(off),
            }
        };
        if batch.entries.iter().all(keep) {
            out.push(batch);
            continue;
        }
        let entries: Box<[(Offset, Record)]> =
            batch.entries.iter().filter(|e| keep(e)).cloned().collect();
        if !entries.is_empty() {
            out.push(StoredBatch::new(batch.meta.clone(), entries));
        }
    }

    let records_after: usize =
        out.iter().filter(|b| !b.meta.is_control()).map(StoredBatch::len).sum();
    let bytes_after: usize = out.iter().map(StoredBatch::approximate_size).sum();
    log.replace_batches(out)?;
    let stats = CompactionStats { records_before, records_after, bytes_before, bytes_after };
    kobs::counter!("klog.compaction.passes").add(1);
    kobs::counter!("klog.compaction.records_removed").add((records_before - records_after) as u64);
    kobs::event!(
        log.max_timestamp(),
        "klog",
        "compaction",
        records_before = records_before,
        records_after = records_after,
        bytes_after = bytes_after,
    );
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchMeta, ControlType};
    use crate::log::IsolationLevel;

    fn kv(key: &str, val: &str, ts: i64) -> Record {
        Record::of_str(key, val, ts)
    }

    #[test]
    fn keeps_only_latest_per_key() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::plain(), vec![kv("a", "1", 0), kv("b", "1", 1)]).unwrap();
        log.append(BatchMeta::plain(), vec![kv("a", "2", 2)]).unwrap();
        log.append(BatchMeta::plain(), vec![kv("a", "3", 3), kv("b", "2", 4)]).unwrap();
        let stats = compact(&mut log).unwrap();
        assert_eq!(stats.records_before, 5);
        assert_eq!(stats.records_after, 2);
        let f = log.fetch(0, 100, IsolationLevel::ReadUncommitted).unwrap();
        let vals: Vec<(Offset, &[u8])> =
            f.records().map(|(o, r)| (o, r.value.as_deref().unwrap())).collect();
        // Original offsets preserved.
        assert_eq!(vals, vec![(3, b"3".as_slice()), (4, b"2".as_slice())]);
    }

    #[test]
    fn dirty_tail_not_compacted() {
        let mut log = PartitionLog::new().with_managed_watermark();
        log.append(BatchMeta::plain(), vec![kv("a", "1", 0)]).unwrap();
        log.append(BatchMeta::plain(), vec![kv("a", "2", 1)]).unwrap();
        log.advance_high_watermark(1).unwrap(); // only offset 0 is clean
        compact(&mut log).unwrap();
        // Both records survive: offset 0 is latest *in the clean region*,
        // offset 1 is dirty.
        assert_eq!(log.record_count(), 2);
    }

    #[test]
    fn open_transaction_region_not_compacted() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::plain(), vec![kv("a", "1", 0)]).unwrap();
        log.append(BatchMeta::transactional(1, 0, 0), vec![kv("a", "2", 1)]).unwrap();
        // Txn open ⇒ LSO = 1 ⇒ only offset 0 clean; nothing superseded.
        compact(&mut log).unwrap();
        assert_eq!(log.record_count(), 2);
    }

    #[test]
    fn aborted_records_removed() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::plain(), vec![kv("a", "keep", 0)]).unwrap();
        log.append(BatchMeta::transactional(1, 0, 0), vec![kv("b", "gone", 1)]).unwrap();
        log.append_control(1, 0, ControlType::Abort, 2).unwrap();
        let stats = compact(&mut log).unwrap();
        assert_eq!(stats.records_after, 1);
        let f = log.fetch(0, 100, IsolationLevel::ReadUncommitted).unwrap();
        assert_eq!(f.count(), 1);
        assert_eq!(f.records().next().unwrap().1.value.as_deref(), Some(b"keep".as_slice()));
    }

    #[test]
    fn tombstone_kept_as_latest_value() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::plain(), vec![kv("a", "1", 0)]).unwrap();
        log.append(BatchMeta::plain(), vec![Record::tombstone(Bytes::from_static(b"a"), 1)])
            .unwrap();
        compact(&mut log).unwrap();
        assert_eq!(log.record_count(), 1, "tombstone retained");
    }

    #[test]
    fn keyless_records_survive() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::plain(), vec![Record::new(None, Some(Bytes::from_static(b"x")), 0)])
            .unwrap();
        log.append(BatchMeta::plain(), vec![Record::new(None, Some(Bytes::from_static(b"y")), 1)])
            .unwrap();
        compact(&mut log).unwrap();
        assert_eq!(log.record_count(), 2);
    }

    #[test]
    fn committed_txn_data_compacts_normally() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::transactional(1, 0, 0), vec![kv("a", "1", 0)]).unwrap();
        log.append_control(1, 0, ControlType::Commit, 1).unwrap();
        log.append(BatchMeta::transactional(1, 0, 1), vec![kv("a", "2", 2)]).unwrap();
        log.append_control(1, 0, ControlType::Commit, 3).unwrap();
        let stats = compact(&mut log).unwrap();
        assert_eq!(stats.records_after, 1);
        let f = log.fetch(0, 100, IsolationLevel::ReadCommitted).unwrap();
        assert_eq!(f.records().next().unwrap().1.value.as_deref(), Some(b"2".as_slice()));
    }

    #[test]
    fn restore_replay_after_compaction_yields_latest_state() {
        // The paper's claim: state stores are disposable because replaying
        // the compacted changelog reconstructs them exactly.
        let mut log = PartitionLog::new();
        for i in 0..100 {
            let key = format!("k{}", i % 10);
            log.append(BatchMeta::plain(), vec![kv(&key, &format!("v{i}"), i)]).unwrap();
        }
        let stats = compact(&mut log).unwrap();
        assert_eq!((stats.records_before, stats.records_after), (100, 10));
        assert!(stats.reclaimed_fraction() > 0.8);
        // Replay scans one record per key, and the last value per key
        // matches the uncompacted history.
        let f = log.fetch(log.log_start(), 1000, IsolationLevel::ReadUncommitted).unwrap();
        assert_eq!(f.count(), 10);
        let mut state = HashMap::new();
        for (_, r) in f.records() {
            state.insert(r.key.clone().unwrap(), r.value.clone().unwrap());
        }
        for k in 0..10u32 {
            let expected = format!("v{}", 90 + k); // last write of k{k} was at i = 90+k
            assert_eq!(
                state[&Bytes::from(format!("k{k}").into_bytes())],
                Bytes::from(expected.into_bytes())
            );
        }
    }

    #[test]
    fn idempotent_dedup_still_works_after_compaction() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::idempotent(1, 0, 0), vec![kv("a", "1", 0)]).unwrap();
        log.append(BatchMeta::idempotent(1, 0, 1), vec![kv("a", "2", 1)]).unwrap();
        compact(&mut log).unwrap();
        let retry = log.append(BatchMeta::idempotent(1, 0, 1), vec![kv("a", "2", 1)]).unwrap();
        assert!(retry.duplicate, "producer table survives compaction");
    }
}
