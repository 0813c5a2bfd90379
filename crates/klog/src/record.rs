//! Timestamped key/value records (§3.1).
//!
//! Records are key-value pairs with an embedded event-time timestamp set by
//! the producer; the log assigns each a dense offset at append time. Offset
//! order need not match timestamp order — handling that gap is the paper's
//! "completeness" problem (§2.2, §5).
//!
//! A record is three words of payload handles and nothing else: key and
//! value are reference-counted [`Bytes`], so cloning a record never copies
//! payload, and anything the streams layer needs to say about a record (a
//! revision's old/new pair, for one) travels inside the value.

use bytes::Bytes;

/// One streaming record as stored in a partition log.
///
/// * `key` — optional partitioning/compaction key.
/// * `value` — `None` encodes a *tombstone*: in a compacted changelog topic
///   it deletes the key (§3.2).
/// * `timestamp` — event time in ms ([`crate::NO_TIMESTAMP`] if unset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Optional record key (drives partitioning and compaction).
    pub key: Option<Bytes>,
    /// Optional value; `None` is a tombstone for compacted topics.
    pub value: Option<Bytes>,
    /// Event-time timestamp in milliseconds ([`crate::NO_TIMESTAMP`] if unset).
    pub timestamp: i64,
}

impl Record {
    /// A record with key, value and timestamp.
    pub fn new(
        key: impl Into<Option<Bytes>>,
        value: impl Into<Option<Bytes>>,
        timestamp: i64,
    ) -> Self {
        Self { key: key.into(), value: value.into(), timestamp }
    }

    /// Convenience constructor from UTF-8 string slices.
    pub fn of_str(key: &str, value: &str, timestamp: i64) -> Self {
        Self::new(
            Some(Bytes::copy_from_slice(key.as_bytes())),
            Some(Bytes::copy_from_slice(value.as_bytes())),
            timestamp,
        )
    }

    /// A tombstone (null-value) record for `key`.
    pub fn tombstone(key: Bytes, timestamp: i64) -> Self {
        Self { key: Some(key), value: None, timestamp }
    }

    /// Whether this record is a tombstone (null value).
    pub fn is_tombstone(&self) -> bool {
        self.value.is_none()
    }

    /// Approximate in-memory size in bytes, used by retention policies and
    /// the benchmark harness's I/O accounting.
    pub fn approximate_size(&self) -> usize {
        let key_len = self.key.as_ref().map_or(0, Bytes::len);
        let val_len = self.value.as_ref().map_or(0, Bytes::len);
        // 8 bytes timestamp + 2 length prefixes.
        key_len + val_len + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_str_round_trip() {
        let r = Record::of_str("k", "v", 42);
        assert_eq!(r.key.as_deref(), Some(b"k".as_slice()));
        assert_eq!(r.value.as_deref(), Some(b"v".as_slice()));
        assert_eq!(r.timestamp, 42);
        assert!(!r.is_tombstone());
    }

    #[test]
    fn tombstone_has_no_value() {
        let r = Record::tombstone(Bytes::from_static(b"k"), 1);
        assert!(r.is_tombstone());
        assert_eq!(r.key.as_deref(), Some(b"k".as_slice()));
    }

    #[test]
    fn approximate_size_counts_parts() {
        let small = Record::of_str("k", "v", 0).approximate_size();
        let big = Record::of_str("key-longer", "value-longer", 0).approximate_size();
        assert!(big > small);
    }

    #[test]
    fn keyless_record_allowed() {
        let r = Record::new(None, Some(Bytes::from_static(b"v")), 5);
        assert!(r.key.is_none());
        assert!(!r.is_tombstone());
    }
}
