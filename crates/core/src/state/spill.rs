//! Post-commit state-store spills: durable local store dumps that bound
//! changelog replay on recovery.
//!
//! Changelog topics already make every store recoverable (§3.3), but a cold
//! rebuild replays the changelog from the earliest retained offset. A
//! *spill* is the disk complement: after each successful commit the instance
//! may write every store's contents to its state directory together with a
//! **changelog watermark** — the changelog partition's log-end offset as of
//! that commit. A recovering task loads the spill, seeds the store from it,
//! and replays only the changelog *suffix* at or above the watermark — the
//! same warm-start contract standby replicas provide (§3.3), but surviving
//! full instance crashes.
//!
//! Spills are advisory: a missing or corrupt file (torn write at crash) is
//! silently ignored and recovery falls back to full changelog replay, so
//! correctness never depends on the spill — only recovery time does. Writes
//! go through klog's atomic write (tmp + rename), and the file is sealed
//! by `klog::codec`: magic, body and a CRC over both.

use bytes::Bytes;
use klog::codec::{open, seal};
use klog::storage::disk::write_atomic;
use klog::LogError;
use std::fs;
use std::path::{Path, PathBuf};

/// Magic prefix of a spill file (`"KSSP"`).
const SPILL_MAGIC: u32 = 0x4B53_5350;

/// One store's spilled contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSpill {
    /// Changelog offset this dump reflects: replay resumes here. For
    /// source-as-changelog stores this is the committed input offset.
    pub watermark: i64,
    /// The store's full contents as changelog-keyed pairs, in key order.
    pub pairs: Vec<(Bytes, Bytes)>,
}

/// Path of one store's spill file: `<state_dir>/<app_id>/<task_id>/<store>.spill`.
pub fn spill_path(state_dir: &Path, app_id: &str, task_id: &str, store: &str) -> PathBuf {
    state_dir.join(app_id).join(task_id).join(format!("{store}.spill"))
}

impl StoreSpill {
    /// The spill file's bytes ([`seal`]ed).
    pub fn encode(&self) -> Vec<u8> {
        seal(SPILL_MAGIC, |w| {
            w.put_i64(self.watermark);
            w.put_count(self.pairs.len());
            for (k, v) in &self.pairs {
                w.put_bytes(k);
                w.put_bytes(v);
            }
        })
    }

    /// A spill file's contents; `None` for a torn, corrupt or foreign file.
    pub fn decode(buf: &[u8]) -> Option<StoreSpill> {
        let mut r = open(buf, SPILL_MAGIC)?;
        let watermark = r.i64()?;
        let count = r.count()?;
        // The count is file content: reserve no more pairs than the body can
        // hold (two 4-byte length prefixes each); a larger count fails below.
        let mut pairs = Vec::with_capacity(count.min(r.remaining() / 8));
        for _ in 0..count {
            let k = Bytes::copy_from_slice(r.bytes()?);
            pairs.push((k, Bytes::copy_from_slice(r.bytes()?)));
        }
        r.end(StoreSpill { watermark, pairs })
    }
}

/// Atomically write one store's spill file.
pub fn write_spill(path: &Path, spill: &StoreSpill) -> Result<(), LogError> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(|e| LogError::Io(format!("create dir: {e}")))?;
    }
    write_atomic(path, &spill.encode())?;
    kobs::count("kstreams.spill.writes", 1);
    kobs::count("kstreams.spill.pairs_written", spill.pairs.len() as u64);
    Ok(())
}

/// Read one store's spill file. `None` for missing, torn, or corrupt files
/// — the caller falls back to full changelog replay.
pub fn read_spill(path: &Path) -> Option<StoreSpill> {
    let buf = fs::read(path).ok()?;
    let spill = StoreSpill::decode(&buf);
    if spill.is_some() {
        kobs::count("kstreams.spill.loads", 1);
    } else {
        kobs::count("kstreams.spill.corrupt_discards", 1);
    }
    spill
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn dir() -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("kstreams-spill-{}-{n}", std::process::id()))
    }

    fn spill() -> StoreSpill {
        StoreSpill {
            watermark: 42,
            pairs: vec![
                (Bytes::from_static(b"a"), Bytes::from_static(b"1")),
                (Bytes::from_static(b"bb"), Bytes::from_static(b"")),
            ],
        }
    }

    #[test]
    fn round_trips() {
        let d = dir();
        let path = spill_path(&d, "app", "0_1", "counts");
        write_spill(&path, &spill()).unwrap();
        assert_eq!(read_spill(&path), Some(spill()));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn corrupt_file_is_discarded() {
        let d = dir();
        let path = spill_path(&d, "app", "0_1", "counts");
        write_spill(&path, &spill()).unwrap();
        let mut buf = fs::read(&path).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        fs::write(&path, &buf).unwrap();
        assert_eq!(read_spill(&path), None);
        // Truncation (torn write) is also rejected.
        write_spill(&path, &spill()).unwrap();
        let buf = fs::read(&path).unwrap();
        fs::write(&path, &buf[..buf.len() - 3]).unwrap();
        assert_eq!(read_spill(&path), None);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn oversized_pair_count_is_discarded_without_reserving_it() {
        let d = dir();
        let path = spill_path(&d, "app", "0_1", "counts");
        let buf = seal(SPILL_MAGIC, |w| {
            w.put_i64(42);
            w.put_u32(u32::MAX);
        });
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &buf).unwrap();
        assert_eq!(read_spill(&path), None);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn missing_file_is_none() {
        assert_eq!(read_spill(Path::new("/nonexistent/x.spill")), None);
    }
}
