//! Pluggable storage backends for the partition log.
//!
//! The default backend keeps everything in memory (the original behaviour of
//! this reproduction); the [`disk`] backend backs each in-memory segment with
//! one real segment file, plus producer-state snapshots and a
//! `(log_start, high_watermark)` checkpoint — the durable substrate the
//! paper's recovery story (§2.3, §5) assumes. Crash recovery then means
//! what it means in Kafka: re-reading segment files, CRC-validating each
//! frame, truncating at the first torn write, and rebuilding producer state
//! from the latest snapshot plus a suffix scan.
//!
//! Determinism rules (the backend is used inside the deterministic
//! simulation):
//!
//! * no wall-clock reads — I/O is counted (appends, bytes, fsyncs), never
//!   timed, and no cost is modeled for it,
//! * directory entries are always iterated in sorted name order,
//! * file contents are a pure function of the appended batches, so two runs
//!   with the same seed produce byte-identical segment files.

pub mod disk;
pub mod format;

pub use disk::DiskLog;
pub use format::ProducerSnapshot;

use std::path::PathBuf;

/// Which storage backend a log (or a whole simulated cluster) uses.
#[derive(Debug, Clone, Default)]
pub enum StorageMode {
    /// Everything lives in memory; "crash" drops the struct (the seed
    /// behaviour of this repo).
    #[default]
    Memory,
    /// Back every log's segments with segment files under the config's root
    /// directory; crashes recover from disk.
    Disk(DiskConfig),
}

/// Where the disk backend writes, and how large its segments grow.
#[derive(Debug, Clone)]
pub struct DiskConfig {
    /// Directory holding this log's segment files (one directory per
    /// partition replica).
    pub dir: PathBuf,
    /// Records per segment before the log rolls to a new segment (and file).
    /// Defaults to the in-memory [`crate::segment::SEGMENT_ROLL_RECORDS`].
    pub roll_records: usize,
}

impl DiskConfig {
    /// A config rooted at `dir` with the default segment size.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), roll_records: crate::segment::SEGMENT_ROLL_RECORDS }
    }

    /// Derive the per-replica config for `broker`/`topic`/`partition` under
    /// this config's root: `<root>/broker-<id>/<topic>-<partition>/`.
    pub fn for_replica(&self, broker: usize, topic: &str, partition: u32) -> Self {
        let mut cfg = self.clone();
        cfg.dir = self.dir.join(format!("broker-{broker}")).join(format!("{topic}-{partition}"));
        cfg
    }

    /// Override the segment-roll threshold (tests use tiny segments).
    pub fn with_roll_records(mut self, records: usize) -> Self {
        self.roll_records = records.max(1);
        self
    }
}
