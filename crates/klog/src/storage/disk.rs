//! The disk backend: real segment files, sparse indexes, snapshots, and
//! CRC-validated crash recovery.
//!
//! Layout of one partition-replica directory:
//!
//! ```text
//! <dir>/
//!   00000000000000000000.log        segment: framed batches (see format.rs)
//!   00000000000000000000.index      sparse offset index (rel_offset, file_pos)
//!   00000000000000000000.timeindex  sparse time index (timestamp, offset)
//!   00000000000000004096.log        next segment, named by base offset
//!   ...
//!   checkpoint                      (log_start, high_watermark)
//!   producer.snapshot               producer table + aborted txns at offset S
//! ```
//!
//! Segment files are append-only; rolling starts a new file named by the
//! first offset it will contain. Recovery reads files in sorted name order,
//! validates every frame's CRC, truncates the log at the first corrupt or
//! torn frame, and discards any later segments — exactly Kafka's recovery
//! contract. All I/O latency is *modeled* (config knobs in virtual
//! microseconds), never measured, so simulation runs stay deterministic.

use super::format::{self, ProducerSnapshot};
use super::{DiskConfig, FsyncPolicy};
use crate::batch::StoredBatch;
use crate::error::LogError;
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

fn stem(base: Offset) -> String {
    format!("{base:020}")
}

/// Everything recovered from a partition directory: the surviving batches in
/// offset order, the checkpointed bounds, the latest valid producer-state
/// snapshot, and a reopened [`DiskLog`] positioned for further appends.
#[derive(Debug)]
pub struct RecoveredLog {
    /// The reopened backend, ready to mirror new mutations.
    pub disk: DiskLog,
    /// All CRC-valid batches, in offset order, up to the first corruption.
    pub batches: Vec<StoredBatch>,
    /// Checkpointed earliest addressable offset.
    pub log_start: Offset,
    /// Checkpointed high watermark (clamped to the recovered log end).
    pub high_watermark: Offset,
    /// Latest valid producer-state snapshot, if one was written.
    pub snapshot: Option<ProducerSnapshot>,
}

/// Disk mirror of one partition log. Owned by (at most one) in-memory
/// [`crate::PartitionLog`]; cloning a log never clones its disk attachment.
#[derive(Debug)]
pub struct DiskLog {
    cfg: DiskConfig,
    /// Base offset of the active (last) segment; `None` before any append.
    active_base: Option<Offset>,
    active_file: Option<File>,
    active_records: usize,
    active_bytes: u64,
    /// Bytes appended since the last sparse index entry.
    bytes_since_index: u64,
    /// Max timestamp indexed in the active segment's time index.
    active_max_ts: i64,
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
        Ok(Self {
            cfg,
            active_base: None,
            active_file: None,
            active_records: 0,
            active_bytes: 0,
            bytes_since_index: 0,
            active_max_ts: i64::MIN,
            last_checkpoint: None,
        })
    }

    /// The directory this log writes to.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }

    /// The config this log was opened with.
    pub fn config(&self) -> &DiskConfig {
        &self.cfg
    }

    fn path_for(&self, name: &str) -> PathBuf {
        self.cfg.dir.join(name)
    }

    // ------------------------------------------------------------------
    // Append path
    // ------------------------------------------------------------------

    /// Mirror one appended batch. Returns `true` when the append rolled a
    /// new segment (the caller then writes a producer-state snapshot).
    pub fn append_batch(&mut self, batch: &StoredBatch) -> Result<bool, LogError> {
        let ts_ms = batch.max_timestamp().max(0);
        let mut rolled = false;
        if self.active_base.is_some() && self.active_records >= self.cfg.roll_records {
            // Roll: sync the finished segment per policy, then start a new
            // file named by this batch's base offset.
            if self.cfg.fsync == FsyncPolicy::OnRoll {
                if let Some(f) = self.active_file.as_ref() {
                    let bytes = self.active_bytes;
                    self.fsync(f, ts_ms, bytes);
                }
            }
            kobs::count("klog.disk.segment_rolls", 1);
            self.active_base = None;
            self.active_file = None;
            rolled = true;
        }
        if self.active_base.is_none() {
            self.open_segment(batch.base_offset())?;
        }
        let payload = format::encode_batch(batch);
        let frame = format::frame(&payload);
        let file_pos = self.active_bytes;
        let file = self.active_file.as_mut().expect("segment opened above");
        file.write_all(&frame).map_err(|e| io_err("append frame", &e))?;
        self.active_bytes += frame.len() as u64;
        self.active_records += batch.len();
        self.bytes_since_index += frame.len() as u64;
        let base = self.active_base.expect("segment opened above");
        // Sparse offset index: one entry per index_interval_bytes of data.
        if self.bytes_since_index >= self.cfg.index_interval_bytes {
            self.bytes_since_index = 0;
            let rel = u32::try_from(batch.base_offset() - base).unwrap_or(u32::MAX);
            let pos = u32::try_from(file_pos).unwrap_or(u32::MAX);
            let mut entry = Vec::with_capacity(8);
            entry.extend_from_slice(&rel.to_le_bytes());
            entry.extend_from_slice(&pos.to_le_bytes());
            append_to(&self.path_for(&format!("{}.index", stem(base))), &entry)?;
        }
        // Sparse time index: one entry per advance of the segment max ts.
        let max_ts = batch.max_timestamp();
        if max_ts > self.active_max_ts {
            self.active_max_ts = max_ts;
            let mut entry = Vec::with_capacity(16);
            entry.extend_from_slice(&max_ts.to_le_bytes());
            entry.extend_from_slice(&batch.base_offset().to_le_bytes());
            append_to(&self.path_for(&format!("{}.timeindex", stem(base))), &entry)?;
        }
        kobs::count("klog.disk.appends", 1);
        kobs::count("klog.disk.append_bytes", frame.len() as u64);
        // Modeled page-cache write cost (virtual µs; fed to the histogram,
        // never slept).
        let write_us = ((frame.len() as i64 * self.cfg.write_cost_us_per_kb) + 1023) / 1024;
        let write_us = write_us.max(1);
        kobs::observe("klog.disk.write_us", write_us);
        if self.cfg.fsync == FsyncPolicy::Always {
            let bytes = frame.len() as u64;
            if let Some(f) = self.active_file.as_ref() {
                self.fsync(f, ts_ms, bytes);
            }
        }
        Ok(rolled)
    }

    fn open_segment(&mut self, base: Offset) -> Result<(), LogError> {
        let path = self.path_for(&segment_name(base));
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open segment", &e))?;
        self.active_base = Some(base);
        self.active_file = Some(file);
        self.active_records = 0;
        self.active_bytes = 0;
        self.bytes_since_index = 0;
        self.active_max_ts = i64::MIN;
        Ok(())
    }

    /// Sync `file` and account the modeled cost: counter, histogram, and —
    /// when inside a traced lifecycle — an `fsync` child span whose duration
    /// is the modeled cost in virtual microseconds.
    fn fsync(&self, file: &File, ts_ms: i64, bytes: u64) {
        let _ = file.sync_all();
        kobs::count("klog.disk.fsyncs", 1);
        kobs::observe("klog.disk.fsync_us", self.cfg.fsync_cost_us);
        if kobs::ktrace::in_span() {
            let start_us = ts_ms.max(0) * 1000;
            let cost = self.cfg.fsync_cost_us;
            let h = kobs::ktrace::start_span(
                start_us,
                "klog",
                kobs::ktrace::Parent::Current,
                "fsync",
                || vec![("bytes", kobs::trace::FieldValue::from(bytes as i64))],
            );
            kobs::ktrace::finish_span(h, start_us + cost);
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint and snapshot
    // ------------------------------------------------------------------

    /// Persist `(log_start, high_watermark)`. Atomic (write + rename), and
    /// skipped when the values are unchanged since the last write.
    pub fn write_checkpoint(
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
    pub fn write_snapshot(&mut self, snapshot: &ProducerSnapshot) -> Result<(), LogError> {
        write_atomic(&self.path_for(SNAPSHOT_FILE), &format::encode_snapshot(snapshot))?;
        kobs::count("klog.disk.snapshot_writes", 1);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Truncation and rewrite
    // ------------------------------------------------------------------

    /// Mirror a prefix truncation: delete whole segment files entirely below
    /// `new_start`, rewrite the (at most one) straddling head segment.
    pub fn truncate_prefix(&mut self, new_start: Offset) -> Result<(), LogError> {
        let bases = self.segment_bases()?;
        if bases.is_empty() {
            return Ok(());
        }
        // A file can be dropped whole when the *next* file's base is at or
        // below `new_start` (offsets are strictly increasing across files).
        let mut retained: Vec<Offset> = Vec::new();
        for (i, &base) in bases.iter().enumerate() {
            let droppable = bases.get(i + 1).is_some_and(|&next| next <= new_start);
            if droppable {
                self.remove_segment(base)?;
            } else {
                retained.push(base);
            }
        }
        // Trim the new head file if it straddles the cut.
        if let Some(&head) = retained.first() {
            if head < new_start {
                let (batches, _, _) = read_segment(&self.path_for(&segment_name(head)))?;
                let keep: Vec<StoredBatch> =
                    batches.into_iter().filter(|b| b.last_offset() >= new_start).collect();
                self.rewrite_segment(head, &keep)?;
            }
        }
        self.reopen_tail()?;
        Ok(())
    }

    /// Mirror a suffix truncation: drop every batch with an offset `>= to`.
    pub fn truncate_suffix(&mut self, to: Offset) -> Result<(), LogError> {
        for base in self.segment_bases()? {
            if base >= to {
                self.remove_segment(base)?;
                continue;
            }
            let path = self.path_for(&segment_name(base));
            let (batches, _, _) = read_segment(&path)?;
            if batches.iter().any(|b| b.last_offset() >= to) {
                let keep: Vec<StoredBatch> =
                    batches.into_iter().filter(|b| b.last_offset() < to).collect();
                self.rewrite_segment(base, &keep)?;
            }
        }
        self.reopen_tail()?;
        Ok(())
    }

    /// Replace the entire on-disk contents with `batches` (compaction, or a
    /// full resync from the leader). Indexes and segment boundaries are
    /// regenerated.
    pub fn rewrite_all<'a>(
        &mut self,
        batches: impl IntoIterator<Item = &'a StoredBatch>,
    ) -> Result<(), LogError> {
        for base in self.segment_bases()? {
            self.remove_segment(base)?;
        }
        self.active_base = None;
        self.active_file = None;
        self.active_records = 0;
        self.active_bytes = 0;
        kobs::count("klog.disk.truncate_rewrites", 1);
        for b in batches {
            self.append_batch(b)?;
        }
        Ok(())
    }

    /// Rewrite one segment file (and regenerate its indexes) to contain
    /// exactly `keep`; removes the file when `keep` is empty.
    fn rewrite_segment(&mut self, base: Offset, keep: &[StoredBatch]) -> Result<(), LogError> {
        kobs::count("klog.disk.truncate_rewrites", 1);
        self.remove_segment(base)?;
        if keep.is_empty() {
            return Ok(());
        }
        let mut data = Vec::new();
        for b in keep {
            data.extend_from_slice(&format::frame(&format::encode_batch(b)));
        }
        write_atomic(&self.path_for(&segment_name(base)), &data)
    }

    fn remove_segment(&mut self, base: Offset) -> Result<(), LogError> {
        if self.active_base == Some(base) {
            self.active_base = None;
            self.active_file = None;
        }
        for ext in ["log", "index", "timeindex"] {
            let path = self.path_for(&format!("{}.{ext}", stem(base)));
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err("remove segment", &e)),
            }
        }
        Ok(())
    }

    /// Point the append state at the last remaining segment file (after a
    /// truncation), re-reading it to recover record/byte counters.
    fn reopen_tail(&mut self) -> Result<(), LogError> {
        self.active_base = None;
        self.active_file = None;
        self.active_records = 0;
        self.active_bytes = 0;
        self.bytes_since_index = 0;
        self.active_max_ts = i64::MIN;
        let Some(&last) = self.segment_bases()?.last() else {
            return Ok(());
        };
        let path = self.path_for(&segment_name(last));
        let (batches, valid_bytes, _) = read_segment(&path)?;
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io_err("reopen segment", &e))?;
        self.active_base = Some(last);
        self.active_file = Some(file);
        self.active_records = batches.iter().map(StoredBatch::len).sum();
        self.active_bytes = valid_bytes;
        self.active_max_ts =
            batches.iter().map(StoredBatch::max_timestamp).max().unwrap_or(i64::MIN);
        Ok(())
    }

    /// Sorted base offsets of all segment files in the directory.
    fn segment_bases(&self) -> Result<Vec<Offset>, LogError> {
        segment_bases_in(&self.cfg.dir)
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    /// Reopen a partition directory after a crash: read segment files in
    /// name order, CRC-validate every frame, truncate the log at the first
    /// corruption (later segments are discarded), and load the checkpoint
    /// and the latest valid producer snapshot.
    pub fn recover(cfg: DiskConfig) -> Result<RecoveredLog, LogError> {
        fs::create_dir_all(&cfg.dir).map_err(|e| io_err("create dir", &e))?;
        let bases = segment_bases_in(&cfg.dir)?;
        let mut batches: Vec<StoredBatch> = Vec::new();
        let mut recovered_bytes = 0u64;
        let mut cut = false;
        let mut dead: Vec<Offset> = Vec::new();
        for &base in &bases {
            if cut {
                dead.push(base);
                continue;
            }
            let path = cfg.dir.join(segment_name(base));
            let (mut segment_batches, valid_bytes, corrupt) = read_segment(&path)?;
            // Offsets must keep increasing across the whole log; a violation
            // means the tail predates an incomplete truncation — cut there.
            let prev_last = batches.last().map(StoredBatch::last_offset);
            if let Some(prev) = prev_last {
                if segment_batches.first().is_some_and(|b| b.base_offset() <= prev) {
                    dead.push(base);
                    cut = true;
                    continue;
                }
            }
            recovered_bytes += valid_bytes;
            if corrupt {
                // Truncate the torn tail in place and stop: nothing after a
                // corrupt frame is trustworthy.
                let f = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| io_err("truncate corrupt segment", &e))?;
                f.set_len(valid_bytes).map_err(|e| io_err("truncate corrupt segment", &e))?;
                cut = true;
            }
            batches.append(&mut segment_batches);
        }
        let mut disk = Self {
            cfg,
            active_base: None,
            active_file: None,
            active_records: 0,
            active_bytes: 0,
            bytes_since_index: 0,
            active_max_ts: i64::MIN,
            last_checkpoint: None,
        };
        for base in dead {
            disk.remove_segment(base)?;
        }
        disk.reopen_tail()?;
        let checkpoint = fs::read(disk.path_for(CHECKPOINT_FILE))
            .ok()
            .and_then(|buf| format::decode_checkpoint(&buf));
        let snapshot = fs::read(disk.path_for(SNAPSHOT_FILE))
            .ok()
            .and_then(|buf| format::decode_snapshot(&buf));
        let log_end = batches.last().map_or(0, |b| b.last_offset() + 1);
        let (ckpt_start, ckpt_hw) = checkpoint.unwrap_or((0, 0));
        let log_start = ckpt_start.max(batches.first().map_or(0, StoredBatch::base_offset)).max(0);
        let high_watermark = ckpt_hw.clamp(log_start.min(log_end), log_end.max(log_start));
        // A snapshot "from the future" (offset beyond the recovered end) can
        // only happen after an untracked suffix loss; it must not be used.
        let snapshot = snapshot.filter(|s| s.snapshot_offset <= log_end.max(log_start));
        disk.last_checkpoint = None;
        kobs::count("klog.disk.recoveries", 1);
        kobs::count("klog.disk.recovered_batches", batches.len() as u64);
        kobs::count("klog.disk.recovered_bytes", recovered_bytes);
        Ok(RecoveredLog { disk, batches, log_start, high_watermark, snapshot })
    }
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

/// Append raw bytes to a (possibly new) file.
fn append_to(path: &Path, bytes: &[u8]) -> Result<(), LogError> {
    let mut f = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| io_err("open index", &e))?;
    f.write_all(bytes).map_err(|e| io_err("append index", &e))
}

/// Write a file atomically: temp file in the same directory, then rename.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), LogError> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, bytes).map_err(|e| io_err("write temp", &e))?;
    fs::rename(&tmp, path).map_err(|e| io_err("rename temp", &e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchMeta, ControlType};
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

    fn batch(base: Offset, n: usize, ts: i64) -> StoredBatch {
        StoredBatch {
            meta: BatchMeta::plain(),
            entries: (0..n)
                .map(|i| (base + i as i64, Record::of_str("k", &format!("v{i}"), ts + i as i64)))
                .collect(),
        }
    }

    #[test]
    fn append_and_recover_round_trips() {
        let dir = test_dir("roundtrip");
        let mut d = DiskLog::open_clean(DiskConfig::at(&dir)).unwrap();
        let b0 = batch(0, 3, 10);
        let b1 = batch(3, 2, 20);
        d.append_batch(&b0).unwrap();
        d.append_batch(&b1).unwrap();
        d.write_checkpoint(0, 5).unwrap();
        drop(d);
        let rec = DiskLog::recover(DiskConfig::at(&dir)).unwrap();
        assert_eq!(rec.batches, vec![b0, b1]);
        assert_eq!(rec.log_start, 0);
        assert_eq!(rec.high_watermark, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rolls_into_new_segment_files() {
        let dir = test_dir("roll");
        let cfg = DiskConfig::at(&dir).with_roll_records(4);
        let mut d = DiskLog::open_clean(cfg.clone()).unwrap();
        let mut rolls = 0;
        for i in 0..6 {
            if d.append_batch(&batch(i * 2, 2, i * 10)).unwrap() {
                rolls += 1;
            }
        }
        assert!(rolls >= 2, "6 two-record batches at roll=4 must roll");
        let bases = segment_bases_in(&dir).unwrap();
        assert_eq!(bases.len(), rolls + 1);
        assert_eq!(bases[0], 0);
        // Recovery stitches all segments back together in order.
        let rec = DiskLog::recover(cfg).unwrap();
        assert_eq!(rec.batches.len(), 6);
        assert_eq!(rec.batches.last().unwrap().last_offset(), 11);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_truncates_at_corrupt_frame_and_drops_later_segments() {
        let dir = test_dir("corrupt");
        // roll=4 with 2-record batches → two frames per segment file.
        let cfg = DiskConfig::at(&dir).with_roll_records(4);
        let mut d = DiskLog::open_clean(cfg.clone()).unwrap();
        for i in 0..4 {
            d.append_batch(&batch(i * 2, 2, 0)).unwrap();
        }
        drop(d);
        let bases = segment_bases_in(&dir).unwrap();
        assert!(bases.len() >= 2);
        // Corrupt a byte in the middle of the FIRST segment's second frame.
        let first = dir.join(segment_name(bases[0]));
        let mut buf = fs::read(&first).unwrap();
        let (_, after_first) = format::next_frame(&buf, 0).expect("frame 0");
        buf[after_first + 12] ^= 0xFF;
        fs::write(&first, &buf).unwrap();
        let rec = DiskLog::recover(cfg.clone()).unwrap();
        assert_eq!(rec.batches.len(), 1, "only the first valid frame survives");
        assert_eq!(rec.batches[0].last_offset(), 1);
        // Later segment files are gone; the log is appendable again.
        assert_eq!(segment_bases_in(&dir).unwrap(), vec![bases[0]]);
        let mut d = rec.disk;
        d.append_batch(&batch(2, 1, 5)).unwrap();
        let rec2 = DiskLog::recover(cfg).unwrap();
        assert_eq!(rec2.batches.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_prefix_drops_whole_files_and_trims_head() {
        let dir = test_dir("prefix");
        let cfg = DiskConfig::at(&dir).with_roll_records(2);
        let mut d = DiskLog::open_clean(cfg.clone()).unwrap();
        for i in 0..4 {
            d.append_batch(&batch(i * 2, 2, 0)).unwrap();
        }
        assert!(segment_bases_in(&dir).unwrap().len() >= 2);
        d.truncate_prefix(5).unwrap();
        drop(d);
        let rec = DiskLog::recover(cfg).unwrap();
        // Batches entirely below 5 are gone; the straddling batch (4..=5)
        // survives (batch granularity, like the in-memory list).
        assert_eq!(rec.batches.first().unwrap().base_offset(), 4);
        assert_eq!(rec.batches.last().unwrap().last_offset(), 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_suffix_rewrites_tail_and_stays_appendable() {
        let dir = test_dir("suffix");
        let cfg = DiskConfig::at(&dir).with_roll_records(2);
        let mut d = DiskLog::open_clean(cfg.clone()).unwrap();
        for i in 0..4 {
            d.append_batch(&batch(i * 2, 2, 0)).unwrap();
        }
        d.truncate_suffix(3).unwrap();
        // Batch 2..=3 straddles 3 → dropped whole (batch granularity).
        d.append_batch(&batch(2, 1, 9)).unwrap();
        drop(d);
        let rec = DiskLog::recover(cfg).unwrap();
        let offsets: Vec<Offset> = rec.batches.iter().map(StoredBatch::last_offset).collect();
        assert_eq!(offsets, vec![1, 2]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_all_replaces_contents() {
        let dir = test_dir("rewrite");
        let cfg = DiskConfig::at(&dir);
        let mut d = DiskLog::open_clean(cfg.clone()).unwrap();
        for i in 0..3 {
            d.append_batch(&batch(i * 2, 2, 0)).unwrap();
        }
        // Compaction output: only the surviving middle batch.
        let survivor = batch(2, 2, 0);
        d.rewrite_all([&survivor]).unwrap();
        drop(d);
        let rec = DiskLog::recover(cfg).unwrap();
        assert_eq!(rec.batches, vec![survivor]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_persists_and_survives_recovery() {
        let dir = test_dir("snapshot");
        let cfg = DiskConfig::at(&dir);
        let mut d = DiskLog::open_clean(cfg.clone()).unwrap();
        let b = StoredBatch {
            meta: BatchMeta::transactional(7, 0, 0),
            entries: vec![(0, Record::of_str("k", "v", 1))].into(),
        };
        d.append_batch(&b).unwrap();
        let snap = ProducerSnapshot { snapshot_offset: 1, entries: vec![], aborted: vec![] };
        d.write_snapshot(&snap).unwrap();
        drop(d);
        let rec = DiskLog::recover(cfg).unwrap();
        assert_eq!(rec.snapshot, Some(snap));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_snapshot_is_discarded() {
        let dir = test_dir("futsnap");
        let cfg = DiskConfig::at(&dir);
        let mut d = DiskLog::open_clean(cfg.clone()).unwrap();
        d.append_batch(&batch(0, 1, 0)).unwrap();
        d.write_snapshot(&ProducerSnapshot {
            snapshot_offset: 99,
            entries: vec![],
            aborted: vec![],
        })
        .unwrap();
        drop(d);
        let rec = DiskLog::recover(cfg).unwrap();
        assert_eq!(rec.snapshot, None, "snapshot beyond the log end is unusable");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn control_batches_round_trip_through_disk() {
        let dir = test_dir("control");
        let cfg = DiskConfig::at(&dir);
        let mut d = DiskLog::open_clean(cfg.clone()).unwrap();
        let data = StoredBatch {
            meta: BatchMeta::transactional(3, 0, 0),
            entries: vec![(0, Record::of_str("k", "v", 1))].into(),
        };
        let marker = StoredBatch {
            meta: BatchMeta::control(3, 0, ControlType::Abort),
            entries: vec![(1, Record { key: None, value: None, timestamp: 2 })].into(),
        };
        d.append_batch(&data).unwrap();
        d.append_batch(&marker).unwrap();
        drop(d);
        let rec = DiskLog::recover(cfg).unwrap();
        assert_eq!(rec.batches, vec![data, marker]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_from_empty_dir_is_a_fresh_log() {
        let dir = test_dir("empty");
        let rec = DiskLog::recover(DiskConfig::at(&dir)).unwrap();
        assert!(rec.batches.is_empty());
        assert_eq!(rec.log_start, 0);
        assert_eq!(rec.high_watermark, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
