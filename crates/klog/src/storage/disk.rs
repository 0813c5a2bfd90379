//! The disk backend: one segment file per in-memory segment, a checkpoint,
//! a producer-state snapshot, and CRC-validated crash recovery.
//!
//! Layout of one partition-replica directory:
//!
//! ```text
//! <dir>/
//!   00000000000000000000.log        segment: framed batches (see format.rs)
//!   00000000000000004096.log        next segment, named by its base offset
//!   ...
//!   checkpoint                      (log_start, high_watermark)
//!   producer.snapshot               producer table + aborted txns at offset S
//! ```
//!
//! The files back the owning log's [`SegmentList`] one-to-one: the list
//! decides when a segment opens, rolls, is dropped or trimmed, and this
//! module writes exactly that — it never reads a file back to learn what
//! the list already holds. Recovery is the one reader: it reads files in
//! sorted name order, validates every frame's CRC, truncates the log at the
//! first corrupt or torn frame, and discards any later segments — exactly
//! Kafka's recovery contract. I/O is counted, never timed, so simulation
//! runs stay deterministic.

use super::format::{self, ProducerSnapshot};
use super::DiskConfig;
use crate::batch::StoredBatch;
use crate::error::LogError;
use crate::segment::{Segment, SegmentList, Truncation};
use crate::Offset;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Name of the checkpoint file inside a partition directory.
const CHECKPOINT_FILE: &str = "checkpoint";

/// Name of the producer-state snapshot file.
const SNAPSHOT_FILE: &str = "producer.snapshot";

fn io_err(context: &str, e: &std::io::Error) -> LogError {
    LogError::Io(format!("{context}: {e}"))
}

fn segment_name(base: Offset) -> String {
    format!("{base:020}.log")
}

/// The durable backing of one partition log's segments. Owned by (at most
/// one) [`crate::PartitionLog`]; cloning a log never clones its disk.
#[derive(Debug)]
pub struct DiskLog {
    cfg: DiskConfig,
    /// The file of the log's last segment, open for appends; `None` while
    /// the log holds no segment.
    active: Option<File>,
    /// Last checkpoint written, to skip redundant rewrites.
    last_checkpoint: Option<(Offset, Offset)>,
}

impl DiskLog {
    /// Create a fresh, empty disk log at the config's directory, removing
    /// any files left over from a previous incarnation.
    pub fn open_clean(cfg: DiskConfig) -> Result<Self, LogError> {
        fs::create_dir_all(&cfg.dir).map_err(|e| io_err("create dir", &e))?;
        for name in sorted_file_names(&cfg.dir)? {
            fs::remove_file(cfg.dir.join(&name)).map_err(|e| io_err("clean stale file", &e))?;
        }
        Ok(Self { cfg, active: None, last_checkpoint: None })
    }

    /// Records per segment of the log this disk backs.
    pub(crate) fn roll_records(&self) -> usize {
        self.cfg.roll_records
    }

    fn path_for(&self, name: &str) -> PathBuf {
        self.cfg.dir.join(name)
    }

    /// The file of the segment opened at `base` — the one naming rule.
    fn segment_path(&self, base: Offset) -> PathBuf {
        self.path_for(&segment_name(base))
    }

    // ------------------------------------------------------------------
    // Append path
    // ------------------------------------------------------------------

    /// Start the file of a new segment opened at `base`. When the segment
    /// closes a full one (a roll), the finished file is synced; `traced`
    /// says whether that sync records a span.
    pub(crate) fn open_segment(&mut self, base: Offset, traced: bool) -> Result<(), LogError> {
        if let Some(done) = self.active.take() {
            fsync(&done, traced)?;
            kobs::counter!("klog.disk.segment_rolls").add(1);
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.segment_path(base))
            .map_err(|e| io_err("open segment", &e))?;
        self.active = Some(file);
        Ok(())
    }

    /// Append one batch's frame to the active segment's file.
    pub(crate) fn append_batch(&mut self, batch: &StoredBatch) -> Result<(), LogError> {
        let Some(file) = self.active.as_mut() else {
            return Err(LogError::Io("append with no open segment file".into()));
        };
        let frame = format::frame(&format::encode_batch(batch));
        file.write_all(&frame).map_err(|e| io_err("append frame", &e))?;
        kobs::counter!("klog.disk.appends").add(1);
        kobs::counter!("klog.disk.append_bytes").add(frame.len() as u64);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Checkpoint and snapshot
    // ------------------------------------------------------------------

    /// Persist `(log_start, high_watermark)`. Atomic (write + rename), and
    /// skipped when the values are unchanged since the last write.
    pub(crate) fn write_checkpoint(
        &mut self,
        log_start: Offset,
        high_watermark: Offset,
    ) -> Result<(), LogError> {
        if self.last_checkpoint == Some((log_start, high_watermark)) {
            return Ok(());
        }
        write_atomic(
            &self.path_for(CHECKPOINT_FILE),
            &format::encode_checkpoint(log_start, high_watermark),
        )?;
        self.last_checkpoint = Some((log_start, high_watermark));
        Ok(())
    }

    /// Persist a producer-state snapshot (atomically).
    pub(crate) fn write_snapshot(&mut self, snapshot: &ProducerSnapshot) -> Result<(), LogError> {
        write_atomic(&self.path_for(SNAPSHOT_FILE), &format::encode_snapshot(snapshot))?;
        kobs::counter!("klog.disk.snapshot_writes").add(1);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Truncation and rewrite, from the in-memory segments
    // ------------------------------------------------------------------

    /// Apply a truncation the list already made: delete the files of the
    /// dropped segments, rewrite the trimmed one's file from the batches it
    /// kept, and reopen the last segment's file for appends.
    pub(crate) fn truncate(
        &mut self,
        cut: &Truncation,
        segments: &SegmentList,
    ) -> Result<(), LogError> {
        self.active = None;
        for &base in &cut.dropped {
            self.remove_segment(base)?;
        }
        if let Some(seg) = segments.segments().iter().find(|s| Some(s.base()) == cut.trimmed) {
            kobs::counter!("klog.disk.truncate_rewrites").add(1);
            self.write_segment(seg)?;
        }
        self.open_active(segments.segments().last())
    }

    /// Replace the on-disk contents with `segments` (compaction, or a full
    /// resync from the leader): delete the files of `old_bases`, write one
    /// file per segment, and reopen the last one for appends.
    pub(crate) fn rewrite(
        &mut self,
        old_bases: &[Offset],
        segments: &SegmentList,
    ) -> Result<(), LogError> {
        self.active = None;
        for &base in old_bases {
            self.remove_segment(base)?;
        }
        kobs::counter!("klog.disk.truncate_rewrites").add(1);
        for seg in segments.segments() {
            self.write_segment(seg)?;
        }
        self.open_active(segments.segments().last())
    }

    /// Write `seg`'s whole file from its batches (atomically).
    fn write_segment(&self, seg: &Segment) -> Result<(), LogError> {
        let data: Vec<u8> =
            seg.batches().iter().flat_map(|b| format::frame(&format::encode_batch(b))).collect();
        write_atomic(&self.segment_path(seg.base()), &data)
    }

    fn remove_segment(&mut self, base: Offset) -> Result<(), LogError> {
        match fs::remove_file(self.segment_path(base)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove segment", &e)),
        }
    }

    /// Open `last`'s file for appends (the active segment), if any.
    fn open_active(&mut self, last: Option<&Segment>) -> Result<(), LogError> {
        self.active = match last {
            Some(seg) => Some(
                OpenOptions::new()
                    .append(true)
                    .open(self.segment_path(seg.base()))
                    .map_err(|e| io_err("reopen segment", &e))?,
            ),
            None => None,
        };
        Ok(())
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    /// Reopen a partition directory after a crash: read segment files in
    /// name order, CRC-validate every frame, truncate the log at the first
    /// corruption (later segments are discarded, a file left with no valid
    /// frame is removed), and reopen the last file for appends. Returns the
    /// disk and one segment per surviving file.
    pub(crate) fn recover(cfg: DiskConfig) -> Result<(Self, Vec<Segment>), LogError> {
        fs::create_dir_all(&cfg.dir).map_err(|e| io_err("create dir", &e))?;
        let mut disk = Self { cfg, active: None, last_checkpoint: None };
        let mut segments: Vec<Segment> = Vec::new();
        let mut recovered_bytes = 0u64;
        let mut cut = false;
        for base in segment_bases_in(&disk.cfg.dir)? {
            let path = disk.segment_path(base);
            let (batches, valid_bytes, corrupt) =
                if cut { (Vec::new(), 0, true) } else { read_segment(&path)? };
            // Offsets must keep increasing across the whole log; a violation
            // means the tail predates an incomplete truncation — cut there.
            let prev_last = segments.last().and_then(|s| s.batches().last());
            let overlaps = batches.first().is_some_and(|first| {
                prev_last.is_some_and(|prev| first.base_offset() <= prev.last_offset())
            });
            if overlaps || batches.is_empty() {
                // Nothing after a corrupt frame is trustworthy, and a file
                // with no valid frame backs no segment.
                disk.remove_segment(base)?;
                cut |= overlaps || corrupt;
                continue;
            }
            if corrupt {
                // Truncate the torn tail in place and stop.
                let f = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| io_err("truncate corrupt segment", &e))?;
                f.set_len(valid_bytes).map_err(|e| io_err("truncate corrupt segment", &e))?;
                cut = true;
            }
            recovered_bytes += valid_bytes;
            segments.push(Segment::new(base, batches));
        }
        disk.open_active(segments.last())?;
        kobs::counter!("klog.disk.recoveries").add(1);
        let batches = segments.iter().map(|s| s.batches().len()).sum::<usize>();
        kobs::counter!("klog.disk.recovered_batches").add(batches as u64);
        kobs::counter!("klog.disk.recovered_bytes").add(recovered_bytes);
        Ok((disk, segments))
    }

    /// The checkpointed `(log_start, high_watermark)`, if a valid one exists.
    pub(crate) fn read_checkpoint(&self) -> Option<(Offset, Offset)> {
        fs::read(self.path_for(CHECKPOINT_FILE))
            .ok()
            .and_then(|buf| format::decode_checkpoint(&buf))
    }

    /// The latest valid producer-state snapshot, if one was written.
    pub(crate) fn read_snapshot(&self) -> Option<ProducerSnapshot> {
        fs::read(self.path_for(SNAPSHOT_FILE)).ok().and_then(|buf| format::decode_snapshot(&buf))
    }
}

/// Sync `file` and count it; if `traced`, also record an `fsync` child of
/// the current span, at that span's cursor (stamped 0, as klog has no
/// clock). The span has no length: the virtual clock does not move during
/// the sync, and no cost is invented for it. A failed sync is returned,
/// never retried: the kernel may already have dropped the dirty pages it
/// could not write.
fn fsync(file: &File, traced: bool) -> Result<(), LogError> {
    file.sync_all().map_err(|e| io_err("fsync", &e))?;
    kobs::counter!("klog.disk.fsyncs").add(1);
    if traced {
        let bytes = file.metadata().map_or(0, |m| m.len());
        let h = kobs::child_span!(0, "klog", "fsync", bytes = bytes as i64);
        kobs::ktrace::finish_span(h, 0);
    }
    Ok(())
}

/// Read one segment file: all CRC-valid batches, the byte length of the
/// valid prefix, and whether a corrupt/torn tail was detected.
fn read_segment(path: &Path) -> Result<(Vec<StoredBatch>, u64, bool), LogError> {
    let buf = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0, false)),
        Err(e) => return Err(io_err("read segment", &e)),
    };
    let mut batches = Vec::new();
    let mut pos = 0usize;
    while pos < buf.len() {
        let Some((payload, next)) = format::next_frame(&buf, pos) else {
            return Ok((batches, pos as u64, true));
        };
        let Some(batch) = format::decode_batch(payload) else {
            return Ok((batches, pos as u64, true));
        };
        // Within a file, offsets must be strictly increasing too.
        if batches
            .last()
            .is_some_and(|prev: &StoredBatch| batch.base_offset() <= prev.last_offset())
        {
            return Ok((batches, pos as u64, true));
        }
        batches.push(batch);
        pos = next;
    }
    Ok((batches, pos as u64, false))
}

/// Sorted names of all regular files in `dir` (empty when the directory does
/// not exist). Sorting makes directory iteration deterministic everywhere.
fn sorted_file_names(dir: &Path) -> Result<Vec<String>, LogError> {
    let rd = match fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err("read dir", &e)),
    };
    let mut names: Vec<String> = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| io_err("read dir entry", &e))?;
        if entry.file_type().map_err(|e| io_err("file type", &e))?.is_file() {
            if let Ok(name) = entry.file_name().into_string() {
                names.push(name);
            }
        }
    }
    names.sort_unstable();
    Ok(names)
}

/// Sorted base offsets of the `*.log` segment files in `dir`.
fn segment_bases_in(dir: &Path) -> Result<Vec<Offset>, LogError> {
    let mut bases: Vec<Offset> = sorted_file_names(dir)?
        .into_iter()
        .filter_map(|n| n.strip_suffix(".log").and_then(|s| s.parse::<Offset>().ok()))
        .collect();
    bases.sort_unstable();
    Ok(bases)
}

/// Write a file atomically: temp file in the same directory, then rename.
/// Nothing is synced: a crash may lose the write, never half-apply it.
/// Checkpoints, snapshots, rewritten segments and store spills use it.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), LogError> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, bytes).map_err(|e| io_err("write temp", &e))?;
    fs::rename(&tmp, path).map_err(|e| io_err("rename temp", &e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchMeta, ControlType};
    use crate::log::PartitionLog;
    use crate::record::Record;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn test_dir(tag: &str) -> PathBuf {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("klog-disk-test-{}-{tag}-{seq}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn recs(n: usize, ts: i64) -> Vec<Record> {
        (0..n).map(|i| Record::of_str("k", &format!("v{i}"), ts + i as i64)).collect()
    }

    /// A log backed by a fresh disk at `cfg`, holding `n` two-record batches.
    fn disk_log(cfg: &DiskConfig, n: usize) -> PartitionLog {
        let mut log = PartitionLog::new();
        log.attach_disk(DiskLog::open_clean(cfg.clone()).unwrap());
        for i in 0..n {
            log.append(BatchMeta::plain(), recs(2, i as i64 * 10)).unwrap();
        }
        log
    }

    fn batches(log: &PartitionLog) -> Vec<StoredBatch> {
        log.batches().cloned().collect()
    }

    fn bases(log: &PartitionLog) -> Vec<Offset> {
        log.segment_bases().collect()
    }

    /// Crash `log` (drop every in-memory byte) and recover it from `cfg`,
    /// checking the files still back its segments one-to-one.
    fn crash_and_recover(log: PartitionLog, cfg: &DiskConfig) -> PartitionLog {
        let files = segment_bases_in(&cfg.dir).unwrap();
        assert_eq!(bases(&log), files, "one file per segment before the crash");
        let expected = batches(&log);
        drop(log);
        let rec = PartitionLog::recover(cfg.clone()).unwrap();
        assert_eq!(batches(&rec), expected);
        assert_eq!(bases(&rec), files, "one segment per file after recovery");
        rec
    }

    #[test]
    fn append_and_recover_round_trips() {
        let cfg = DiskConfig::at(test_dir("roundtrip"));
        let rec = crash_and_recover(disk_log(&cfg, 2), &cfg);
        assert_eq!(rec.log_start(), 0);
        assert_eq!(rec.high_watermark(), 4);
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn rolls_into_new_segment_files() {
        let cfg = DiskConfig::at(test_dir("roll")).with_roll_records(4);
        let log = disk_log(&cfg, 6);
        // Two two-record batches fill a segment; the next append rolls.
        assert_eq!(bases(&log), vec![0, 4, 8]);
        let rec = crash_and_recover(log, &cfg);
        assert_eq!(rec.log_end(), 12);
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn recovery_truncates_at_corrupt_frame_and_drops_later_segments() {
        let cfg = DiskConfig::at(test_dir("corrupt")).with_roll_records(4);
        drop(disk_log(&cfg, 4));
        // Corrupt a byte in the middle of the FIRST segment's second frame.
        let first = cfg.dir.join(segment_name(0));
        let mut buf = fs::read(&first).unwrap();
        let (_, after_first) = format::next_frame(&buf, 0).expect("frame 0");
        buf[after_first + 12] ^= 0xFF;
        fs::write(&first, &buf).unwrap();
        let mut rec = PartitionLog::recover(cfg.clone()).unwrap();
        assert_eq!(rec.batches().count(), 1, "only the first valid frame survives");
        assert_eq!(rec.log_end(), 2);
        // Later segment files are gone; the log is appendable again.
        assert_eq!(segment_bases_in(&cfg.dir).unwrap(), vec![0]);
        rec.append(BatchMeta::plain(), recs(1, 5)).unwrap();
        assert_eq!(crash_and_recover(rec, &cfg).batches().count(), 2);
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn a_file_with_no_valid_frame_backs_no_segment() {
        let cfg = DiskConfig::at(test_dir("empty-file")).with_roll_records(4);
        drop(disk_log(&cfg, 2));
        // A crash between opening a rolled segment's file and writing its
        // first frame leaves an empty file behind.
        fs::write(cfg.dir.join(segment_name(4)), b"").unwrap();
        let rec = PartitionLog::recover(cfg.clone()).unwrap();
        assert_eq!(bases(&rec), vec![0]);
        assert_eq!(segment_bases_in(&cfg.dir).unwrap(), vec![0]);
        assert_eq!(rec.log_end(), 4);
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn truncate_prefix_drops_whole_files_and_trims_head() {
        let cfg = DiskConfig::at(test_dir("prefix")).with_roll_records(4);
        let mut log = disk_log(&cfg, 4);
        // The cut falls inside the head segment: its file is rewritten under
        // its old name with the batch it kept.
        log.truncate_prefix(3).unwrap();
        let mut log = crash_and_recover(log, &cfg);
        assert_eq!(bases(&log), vec![0, 4]);
        assert_eq!(log.batches().next().unwrap().base_offset(), 2);
        // A cut past the head segment drops its file; the straddling batch
        // (4..=5) survives whole, like the in-memory list.
        log.truncate_prefix(5).unwrap();
        let log = crash_and_recover(log, &cfg);
        assert_eq!(bases(&log), vec![4]);
        assert_eq!(log.batches().next().unwrap().base_offset(), 4);
        assert_eq!(log.log_start(), 5);
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn truncate_suffix_rewrites_tail_and_stays_appendable() {
        let cfg = DiskConfig::at(test_dir("suffix")).with_roll_records(4);
        let mut log = disk_log(&cfg, 4);
        // Batch 2..=3 straddles 3 → dropped whole (batch granularity); the
        // second segment's file goes.
        log.truncate_suffix(3).unwrap();
        log.append(BatchMeta::plain(), recs(1, 9)).unwrap();
        let rec = crash_and_recover(log, &cfg);
        let offsets: Vec<Offset> = rec.batches().map(StoredBatch::last_offset).collect();
        assert_eq!(offsets, vec![1, 2]);
        assert_eq!(bases(&rec), vec![0]);
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn compaction_rewrites_every_file() {
        let cfg = DiskConfig::at(test_dir("compact")).with_roll_records(2);
        let mut log = disk_log(&cfg, 3);
        assert_eq!(bases(&log), vec![0, 2, 4]);
        // Every record shares one key: one survivor, one segment, one file.
        crate::compaction::compact(&mut log).unwrap();
        let rec = crash_and_recover(log, &cfg);
        assert_eq!(bases(&rec), vec![5]);
        assert_eq!(rec.record_count(), 1);
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn snapshot_persists_and_survives_recovery() {
        let cfg = DiskConfig::at(test_dir("snapshot"));
        let mut d = DiskLog::open_clean(cfg.clone()).unwrap();
        let snap = ProducerSnapshot { snapshot_offset: 1, entries: vec![], aborted: vec![] };
        d.write_snapshot(&snap).unwrap();
        drop(d);
        let (d, _) = DiskLog::recover(cfg.clone()).unwrap();
        assert_eq!(d.read_snapshot(), Some(snap));
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn future_snapshot_is_discarded() {
        let cfg = DiskConfig::at(test_dir("futsnap"));
        let mut log = PartitionLog::new();
        log.attach_disk(DiskLog::open_clean(cfg.clone()).unwrap());
        log.append(BatchMeta::idempotent(7, 0, 0), recs(1, 0)).unwrap();
        drop(log);
        let (mut d, _) = DiskLog::recover(cfg.clone()).unwrap();
        d.write_snapshot(&ProducerSnapshot {
            snapshot_offset: 99,
            entries: vec![],
            aborted: vec![],
        })
        .unwrap();
        drop(d);
        // Seeding from the snapshot would forget producer 7; the rescan
        // that replaces it does not.
        let rec = PartitionLog::recover(cfg.clone()).unwrap();
        assert_eq!(rec.producer_state().epoch_of(7), Some(0), "snapshot beyond the log end");
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn control_batches_round_trip_through_disk() {
        let cfg = DiskConfig::at(test_dir("control"));
        let mut log = PartitionLog::new();
        log.attach_disk(DiskLog::open_clean(cfg.clone()).unwrap());
        log.append(BatchMeta::transactional(3, 0, 0), recs(1, 1)).unwrap();
        log.append_control(3, 0, ControlType::Abort, 2).unwrap();
        let aborted = log.aborted_txns().to_vec();
        let rec = crash_and_recover(log, &cfg);
        assert_eq!(rec.aborted_txns(), aborted.as_slice());
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn a_failed_fsync_is_returned() {
        // Linux rejects fsync on a character device with EINVAL.
        let dev_null = OpenOptions::new().write(true).open("/dev/null").unwrap();
        assert!(matches!(fsync(&dev_null, false), Err(LogError::Io(_))));
    }

    #[test]
    fn recover_from_empty_dir_is_a_fresh_log() {
        let cfg = DiskConfig::at(test_dir("empty"));
        let rec = PartitionLog::recover(cfg.clone()).unwrap();
        assert_eq!(rec.batches().count(), 0);
        assert_eq!(rec.log_start(), 0);
        assert_eq!(rec.high_watermark(), 0);
        let _ = fs::remove_dir_all(&cfg.dir);
    }
}
