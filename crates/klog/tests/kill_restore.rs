//! Kill-and-restore property tests for the disk storage backend.
//!
//! Drives a disk-attached [`PartitionLog`] through a randomized script of
//! plain and transactional appends, commit/abort markers, prefix and suffix
//! truncations, compactions, full resyncs onto a clean directory and (on a
//! managed-watermark log) high-watermark moves — every mutation that reaches
//! the disk — with a tiny segment-roll
//! threshold so every script crosses several segment rolls. Then it
//! "crashes" the instance — drops the handle, discarding ALL in-memory
//! state — reopens the directory through real recovery
//! ([`PartitionLog::recover`]), and asserts the rebuilt log is the
//! pre-crash one:
//!
//! * every stored batch round-trips (checked both structurally and on the
//!   encoded wire bytes),
//! * the segment boundaries match: before the crash the segment files are
//!   named by the segment bases, and recovery rebuilds the same segments,
//! * log start / end, high watermark, and last stable offset match,
//! * the aborted-transaction index matches (read-committed correctness),
//! * producer dedup state survives (a retry of a producer's last batch is
//!   still recognised as a duplicate),
//! * no protocol-invariant violations were recorded in the sink.
//!
//! A second property then damages the last segment file before recovery —
//! cuts it at a random byte (a torn write) or overwrites one random byte —
//! and asserts recovery yields the pre-crash log cut at its last wholly
//! surviving frame.

use bytes::Bytes;
use klog::batch::{BatchMeta, ControlType};
use klog::checks;
use klog::compaction::compact;
use klog::storage::format::{encode_batch, frame};
use klog::{DiskConfig, DiskLog, IsolationLevel, Offset, PartitionLog, Record};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The invariant sink is process-global and the two properties run on
/// parallel test threads; the second records violations on purpose (its
/// oracle's rescan), so each case holds this lock while it uses the sink.
static SINK_LOCK: Mutex<()> = Mutex::new(());

/// One step of the randomized workload.
#[derive(Debug, Clone)]
enum Op {
    /// Append a non-transactional batch.
    Plain(Vec<(String, String)>),
    /// Append a transactional batch from producer `pid_idx`.
    Txn(usize, Vec<(String, String)>),
    /// End producer `pid_idx`'s open transaction (commit or abort). A no-op
    /// when the producer has no open transaction.
    End(usize, bool),
    /// Truncate the log prefix at roughly `pct`% of the current length.
    TruncatePrefix(u8),
    /// Truncate the log suffix at roughly `pct`% of the current length.
    TruncateSuffix(u8),
    /// Compact the stable prefix.
    Compact,
    /// Move the high watermark to roughly `pct`% of the current length (a
    /// no-op unless the log's watermark is managed).
    AdvanceHw(u8),
    /// Rewrite the log onto its wiped directory, as a diverged replica's
    /// repair does.
    Resync,
}

const PRODUCERS: usize = 3;

fn arb_kvs() -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec(("[a-f]{1,4}", "[a-z]{0,8}"), 1..4)
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Weighted choice: 3 plain / 3 txn / 2 end-txn / 1 prefix cut / 1 suffix
    // cut / 1 compact / 2 watermark moves / 1 resync.
    (0u8..14, 0usize..PRODUCERS, any::<bool>(), 0u8..100, arb_kvs()).prop_map(
        |(w, p, c, pct, kvs)| match w {
            0..=2 => Op::Plain(kvs),
            3..=5 => Op::Txn(p, kvs),
            6..=7 => Op::End(p, c),
            8 => Op::TruncatePrefix(pct),
            9 => Op::TruncateSuffix(pct),
            10 => Op::Compact,
            11..=12 => Op::AdvanceHw(pct),
            _ => Op::Resync,
        },
    )
}

fn recs(kvs: &[(String, String)], ts: i64) -> Vec<Record> {
    kvs.iter()
        .map(|(k, v)| {
            Record::new(
                Some(Bytes::from(k.clone().into_bytes())),
                Some(Bytes::from(v.clone().into_bytes())),
                ts,
            )
        })
        .collect()
}

fn case_dir() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("klog-killrestore-{}-{n}", std::process::id()))
}

fn pid(p: usize) -> i64 {
    100 + p as i64
}

/// A producer's last appended batch: what a retry re-sends, and where the
/// batch landed.
type LastBatch = (BatchMeta, Vec<Record>, Offset);

/// Run `ops` against a fresh disk-backed log at `cfg`. Returns the log and
/// each producer's last appended batch that a retry must still dedup.
fn run_script(
    ops: &[Op],
    cfg: &DiskConfig,
    managed: bool,
) -> (PartitionLog, [Option<LastBatch>; PRODUCERS]) {
    let mut log = PartitionLog::new();
    if managed {
        log = log.with_managed_watermark();
    }
    log.attach_disk(DiskLog::open_clean(cfg.clone()).unwrap());
    let mut next_seq = [0i64; PRODUCERS];
    let mut open = [false; PRODUCERS];
    let mut last: [Option<LastBatch>; PRODUCERS] = Default::default();
    let mut ts = 0i64;
    for op in ops {
        ts += 1;
        let at = |log: &PartitionLog, pct: u8| {
            log.log_start() + (log.log_end() - log.log_start()) * i64::from(pct) / 100
        };
        match op {
            Op::Plain(kvs) => {
                log.append(BatchMeta::plain(), recs(kvs, ts)).unwrap();
            }
            Op::Txn(p, kvs) => {
                let meta = BatchMeta::transactional(pid(*p), 0, next_seq[*p]);
                let out = log.append(meta.clone(), recs(kvs, ts)).unwrap();
                if !out.duplicate {
                    next_seq[*p] += kvs.len() as i64;
                    last[*p] = Some((meta, recs(kvs, ts), out.base_offset));
                }
                open[*p] = true;
            }
            Op::End(p, commit) => {
                if open[*p] {
                    let ctl = if *commit { ControlType::Commit } else { ControlType::Abort };
                    log.append_control(pid(*p), 0, ctl, ts).unwrap();
                    open[*p] = false;
                }
            }
            Op::TruncatePrefix(pct) => {
                // Stay below the LSO so we never cut an open transaction's
                // first offset out from under the aborted-index replay, and
                // below the HW, as retention does.
                let cut = at(&log, *pct).min(log.last_stable_offset()).min(log.high_watermark());
                log.truncate_prefix(cut).unwrap();
            }
            Op::TruncateSuffix(pct) => {
                log.truncate_suffix(at(&log, *pct)).unwrap();
                // The producer table was rebuilt from what survived: follow
                // it, and retry nothing appended before the rebuild.
                let table = log.producer_state();
                for p in 0..PRODUCERS {
                    let seq = table.last_sequence(pid(p)).filter(|s| *s >= 0);
                    next_seq[p] = seq.map_or(0, |s| s + 1);
                    open[p] = table.txn_first_offset(pid(p)).is_some();
                    last[p] = None;
                }
            }
            Op::Compact => {
                compact(&mut log).unwrap();
            }
            Op::AdvanceHw(pct) => log.advance_high_watermark(at(&log, *pct)).unwrap(),
            Op::Resync => log.resync_disk(cfg.clone()).unwrap(),
        }
    }
    (log, last)
}

/// Everything observable about a log that recovery must preserve.
#[derive(Debug, PartialEq)]
struct Observed {
    log_start: i64,
    log_end: i64,
    high_watermark: i64,
    last_stable_offset: i64,
    segment_bases: Vec<Offset>,
    aborted: Vec<klog::AbortedTxn>,
    read_committed: Vec<(Offset, Record)>,
    batches: Vec<klog::StoredBatch>,
    encoded: Vec<Vec<u8>>,
}

impl Observed {
    /// What the log holds, without the transaction state derived from it.
    fn contents(self) -> (i64, i64, i64, Vec<Offset>, Vec<Vec<u8>>) {
        (self.log_start, self.log_end, self.high_watermark, self.segment_bases, self.encoded)
    }
}

fn observed(log: &PartitionLog) -> Observed {
    let batches: Vec<_> = log.batches().cloned().collect();
    let encoded = batches.iter().map(encode_batch).collect();
    let fetched = log.fetch(log.log_start(), usize::MAX, IsolationLevel::ReadCommitted).unwrap();
    Observed {
        log_start: log.log_start(),
        log_end: log.log_end(),
        high_watermark: log.high_watermark(),
        last_stable_offset: log.last_stable_offset(),
        segment_bases: log.segment_bases().collect(),
        aborted: log.aborted_txns().to_vec(),
        read_committed: fetched.records().map(|(o, r)| (o, r.clone())).collect(),
        batches,
        encoded,
    }
}

/// Producer dedup survived: retrying each producer's last batch that the
/// recovered log still holds whole is flagged as a duplicate, at its
/// original offsets, not re-appended.
fn assert_dedups(
    log: &mut PartitionLog,
    last: &[Option<LastBatch>; PRODUCERS],
) -> Result<(), TestCaseError> {
    for (p, batch) in last.iter().enumerate() {
        let Some((meta, records, base)) = batch else { continue };
        let held_whole =
            log.batches().any(|b| b.base_offset() == *base && b.len() == records.len());
        if !held_whole || *base < log.log_start() {
            continue;
        }
        let out = log.append(meta.clone(), records.clone()).unwrap();
        prop_assert!(out.duplicate, "recovered log must still dedup producer {}", p);
        prop_assert_eq!(out.base_offset, *base);
    }
    Ok(())
}

/// The segment files in `dir`, in offset order, with the base each is
/// named by.
fn segment_files(dir: &Path) -> Vec<(Offset, PathBuf)> {
    let mut files: Vec<(Offset, PathBuf)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "log"))
        .map(|p| (p.file_stem().unwrap().to_str().unwrap().parse().unwrap(), p))
        .collect();
    files.sort();
    files
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn crash_recovery_is_byte_identical(
        ops in prop::collection::vec(arb_op(), 1..40),
        managed in any::<bool>(),
    ) {
        let _serial = SINK_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        checks::take_violations();
        let dir = case_dir();
        // roll=3 records: scripts of up to ~120 records cross many rolls.
        let cfg = DiskConfig::at(&dir).with_roll_records(3);
        let (log, last) = run_script(&ops, &cfg, managed);
        let before = observed(&log);
        let files: Vec<Offset> = segment_files(&dir).into_iter().map(|(base, _)| base).collect();
        prop_assert_eq!(&files, &before.segment_bases, "one file per segment, named by its base");

        // Crash: drop the handle. All in-memory state is gone; only the
        // files under `dir` survive.
        drop(log);

        let mut recovered = PartitionLog::recover(cfg).unwrap();
        prop_assert_eq!(&before, &observed(&recovered));
        assert_dedups(&mut recovered, &last)?;

        let violations = checks::take_violations();
        prop_assert!(violations.is_empty(), "invariant violations: {violations:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_tail_recovers_to_last_whole_frame(
        ops in prop::collection::vec(arb_op(), 1..40),
        managed in any::<bool>(),
        damage in (any::<bool>(), any::<u64>(), 1u8..255),
    ) {
        let (flip, at, xor) = damage;
        let _serial = SINK_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        checks::take_violations();
        let dir = case_dir();
        let cfg = DiskConfig::at(&dir).with_roll_records(3);
        let (log, last) = run_script(&ops, &cfg, managed);
        let mut expected = log.clone();
        drop(log);

        if let Some((base, file)) = segment_files(&dir).pop() {
            let mut bytes = std::fs::read(&file).unwrap();
            let at = (at % bytes.len() as u64) as usize;
            if flip {
                bytes[at] ^= xor;
            } else {
                bytes.truncate(at);
            }
            std::fs::write(&file, &bytes).unwrap();
            // The last segment's batches are its file's frames, in order;
            // the first frame not wholly before the damage is lost, and
            // everything after it.
            let mut end = 0;
            let first_lost = expected
                .batches()
                .filter(|b| b.base_offset() >= base)
                .find(|b| {
                    end += frame(&encode_batch(b)).len();
                    end > at
                })
                .map(klog::StoredBatch::base_offset);
            if let Some(cut) = first_lost {
                expected.truncate_suffix(cut).unwrap();
                // The oracle's own rescan is not under test: over a log
                // compaction thinned, it sees the sequence gaps compaction
                // leaves and records them as violations.
                checks::take_violations();
            }
        }

        let mut recovered = PartitionLog::recover(cfg).unwrap();
        // The log's contents and bounds must match. Its transaction state
        // may not: the cut clone rebuilt its producer table by a rescan,
        // recovery seeds it from the snapshot when one survives, and the two
        // differ for a transaction whose data lies below the log start.
        prop_assert_eq!(observed(&expected).contents(), observed(&recovered).contents());
        assert_dedups(&mut recovered, &last)?;

        let violations = checks::take_violations();
        prop_assert!(violations.is_empty(), "invariant violations: {violations:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
