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
//! are atomic (tmp + rename) and the whole payload is CRC-guarded.

use bytes::Bytes;
use klog::storage::crc32;
use std::fs;
use std::io;
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

/// Directory holding one task's spill files:
/// `<state_dir>/<app_id>/<task_id>/`.
pub fn task_dir(state_dir: &Path, app_id: &str, task_id: &str) -> PathBuf {
    state_dir.join(app_id).join(task_id)
}

/// Path of one store's spill file inside its task directory.
pub fn spill_path(state_dir: &Path, app_id: &str, task_id: &str, store: &str) -> PathBuf {
    task_dir(state_dir, app_id, task_id).join(format!("{store}.spill"))
}

fn encode(spill: &StoreSpill) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&SPILL_MAGIC.to_le_bytes());
    buf.extend_from_slice(&spill.watermark.to_le_bytes());
    buf.extend_from_slice(&u32::try_from(spill.pairs.len()).expect("store fits u32").to_le_bytes());
    for (k, v) in &spill.pairs {
        buf.extend_from_slice(&u32::try_from(k.len()).expect("key fits u32").to_le_bytes());
        buf.extend_from_slice(k);
        buf.extend_from_slice(&u32::try_from(v.len()).expect("value fits u32").to_le_bytes());
        buf.extend_from_slice(v);
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

fn decode(buf: &[u8]) -> Option<StoreSpill> {
    if buf.len() < 20 {
        return None;
    }
    let (body, crc_bytes) = buf.split_at(buf.len() - 4);
    if crc32(body) != u32::from_le_bytes(crc_bytes.try_into().ok()?) {
        return None;
    }
    if u32::from_le_bytes(body[0..4].try_into().ok()?) != SPILL_MAGIC {
        return None;
    }
    let watermark = i64::from_le_bytes(body[4..12].try_into().ok()?);
    let count = u32::from_le_bytes(body[12..16].try_into().ok()?) as usize;
    let mut pos = 16;
    // The count is file content: reserve no more pairs than the body can
    // hold (two 4-byte length prefixes each); a larger count fails below.
    let mut pairs = Vec::with_capacity(count.min(body.len() / 8));
    let read = |pos: &mut usize| -> Option<Bytes> {
        let len = u32::from_le_bytes(body.get(*pos..*pos + 4)?.try_into().ok()?) as usize;
        *pos += 4;
        let out = Bytes::copy_from_slice(body.get(*pos..*pos + len)?);
        *pos += len;
        Some(out)
    };
    for _ in 0..count {
        let k = read(&mut pos)?;
        let v = read(&mut pos)?;
        pairs.push((k, v));
    }
    if pos != body.len() {
        return None; // trailing garbage
    }
    Some(StoreSpill { watermark, pairs })
}

/// Atomically write one store's spill file (tmp + rename).
pub fn write_spill(path: &Path, spill: &StoreSpill) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let tmp = path.with_extension("spill.tmp");
    fs::write(&tmp, encode(spill))?;
    fs::rename(&tmp, path)?;
    kobs::count("kstreams.spill.writes", 1);
    kobs::count("kstreams.spill.pairs_written", spill.pairs.len() as u64);
    Ok(())
}

/// Read one store's spill file. `None` for missing, torn, or corrupt files
/// — the caller falls back to full changelog replay.
pub fn read_spill(path: &Path) -> Option<StoreSpill> {
    let buf = fs::read(path).ok()?;
    let spill = decode(&buf);
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
        let mut buf = Vec::new();
        buf.extend_from_slice(&SPILL_MAGIC.to_le_bytes());
        buf.extend_from_slice(&42i64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
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
