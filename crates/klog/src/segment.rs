//! Log segments: batches grouped into rollable units.
//!
//! Kafka splits each partition log into segments so retention and compaction
//! can drop or rewrite whole files. We keep the same structure in memory:
//! a [`SegmentList`] of segments, each covering a contiguous offset range,
//! rolled when a segment exceeds a record-count threshold. Prefix truncation
//! (repartition-topic purging, retention) drops whole segments cheaply and
//! trims the head segment.

use crate::batch::StoredBatch;
use crate::Offset;

/// Maximum records per segment before rolling. Small enough that unit tests
/// exercise multi-segment logs without huge appends.
pub const SEGMENT_ROLL_RECORDS: usize = 4096;

/// One segment: a run of batches with contiguous offsets.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    batches: Vec<StoredBatch>,
    record_count: usize,
}

impl Segment {
    fn base_offset(&self) -> Option<Offset> {
        self.batches.first().map(StoredBatch::base_offset)
    }

    fn last_offset(&self) -> Option<Offset> {
        self.batches.last().map(StoredBatch::last_offset)
    }

    fn is_full(&self) -> bool {
        self.record_count >= SEGMENT_ROLL_RECORDS
    }
}

/// An ordered list of segments forming one partition log's storage.
#[derive(Debug, Clone)]
pub struct SegmentList {
    segments: Vec<Segment>,
}

impl Default for SegmentList {
    fn default() -> Self {
        Self::new()
    }
}

impl SegmentList {
    /// A list with a single empty active segment.
    pub fn new() -> Self {
        Self { segments: vec![Segment::default()] }
    }

    /// Rebuild from a flat batch list (compaction output). Batches must be
    /// in increasing offset order.
    pub fn from_batches(batches: Vec<StoredBatch>) -> Self {
        let mut list = Self::new();
        for b in batches {
            list.append(b);
        }
        list
    }

    /// Append a batch, rolling to a new segment when the active one is full.
    pub fn append(&mut self, batch: StoredBatch) {
        debug_assert!(!batch.is_empty());
        let active = self.segments.last_mut().expect("at least one segment");
        if active.is_full() && !active.batches.is_empty() {
            kobs::count("klog.segment_rolls", 1);
            kobs::event!(
                batch.max_timestamp(),
                "klog",
                "segment_roll",
                segments = self.segments.len() + 1,
                base_offset = batch.base_offset(),
            );
            self.segments.push(Segment::default());
        }
        let active = self.segments.last_mut().expect("at least one segment");
        active.record_count += batch.len();
        active.batches.push(batch);
    }

    /// Earliest retained offset, if any batch is retained.
    pub fn log_start(&self) -> Option<Offset> {
        self.segments.iter().find_map(Segment::base_offset)
    }

    /// Last retained offset.
    pub fn last_offset(&self) -> Option<Offset> {
        self.last().map(StoredBatch::last_offset)
    }

    /// Last retained batch.
    pub fn last(&self) -> Option<&StoredBatch> {
        self.segments.iter().rev().find_map(|s| s.batches.last())
    }

    /// Number of segments (for tests and metrics).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Iterate batches whose last offset is `>= from`, in offset order.
    pub fn iter_from(&self, from: Offset) -> impl Iterator<Item = &StoredBatch> {
        // Skip whole segments below `from` first.
        let start_seg = self
            .segments
            .iter()
            .position(|s| s.last_offset().is_some_and(|lo| lo >= from))
            .unwrap_or(self.segments.len());
        self.segments[start_seg..]
            .iter()
            .flat_map(|s| s.batches.iter())
            .filter(move |b| b.last_offset() >= from)
    }

    /// Drop whole batches entirely below `new_start`; whole segments are
    /// dropped in O(1) per segment.
    pub fn truncate_prefix(&mut self, new_start: Offset) {
        self.segments.retain(|s| s.last_offset().is_none_or(|lo| lo >= new_start));
        if self.segments.is_empty() {
            self.segments.push(Segment::default());
            return;
        }
        let head = &mut self.segments[0];
        let before: usize = head.batches.iter().map(StoredBatch::len).sum();
        head.batches.retain(|b| b.last_offset() >= new_start);
        let after: usize = head.batches.iter().map(StoredBatch::len).sum();
        head.record_count -= before - after;
    }

    /// Drop all batches with any offset `>= to` (suffix truncation). Batches
    /// straddling `to` are dropped whole (matches Kafka, which truncates at
    /// batch boundaries).
    pub fn truncate_suffix(&mut self, to: Offset) {
        for s in &mut self.segments {
            let before: usize = s.batches.iter().map(StoredBatch::len).sum();
            s.batches.retain(|b| b.last_offset() < to);
            let after: usize = s.batches.iter().map(StoredBatch::len).sum();
            s.record_count -= before - after;
        }
        self.segments.retain(|s| !s.batches.is_empty());
        if self.segments.is_empty() {
            self.segments.push(Segment::default());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchMeta;
    use crate::record::Record;

    fn batch(base: Offset, n: usize) -> StoredBatch {
        StoredBatch {
            meta: BatchMeta::plain(),
            entries: (0..n).map(|i| (base + i as i64, Record::of_str("k", "v", 0))).collect(),
        }
    }

    #[test]
    fn append_and_iterate() {
        let mut l = SegmentList::new();
        l.append(batch(0, 3));
        l.append(batch(3, 2));
        let offsets: Vec<Offset> =
            l.iter_from(0).flat_map(|b| b.entries.iter().map(|(o, _)| *o)).collect();
        assert_eq!(offsets, vec![0, 1, 2, 3, 4]);
        assert_eq!(l.log_start(), Some(0));
        assert_eq!(l.last_offset(), Some(4));
    }

    #[test]
    fn iter_from_skips_earlier_batches() {
        let mut l = SegmentList::new();
        l.append(batch(0, 3));
        l.append(batch(3, 3));
        let first = l.iter_from(4).next().unwrap();
        assert_eq!(first.base_offset(), 3, "straddling batch included");
        assert_eq!(l.iter_from(6).count(), 0);
    }

    #[test]
    fn rolls_segments_when_full() {
        let mut l = SegmentList::new();
        let mut off = 0;
        while l.segment_count() < 3 {
            l.append(batch(off, 512));
            off += 512;
        }
        assert!(l.segment_count() >= 3);
        // Iteration still spans all segments.
        let total: usize = l.iter_from(0).map(StoredBatch::len).sum();
        assert_eq!(total, off as usize);
    }

    #[test]
    fn truncate_prefix_drops_whole_segments() {
        let mut l = SegmentList::new();
        for i in 0..4 {
            l.append(batch(i * SEGMENT_ROLL_RECORDS as i64, SEGMENT_ROLL_RECORDS));
        }
        let cutoff = 2 * SEGMENT_ROLL_RECORDS as i64;
        l.truncate_prefix(cutoff);
        assert_eq!(l.log_start(), Some(cutoff));
    }

    #[test]
    fn truncate_prefix_to_everything_leaves_empty_list() {
        let mut l = SegmentList::new();
        l.append(batch(0, 5));
        l.truncate_prefix(100);
        assert_eq!(l.log_start(), None);
        assert_eq!(l.iter_from(0).count(), 0);
        // Still appendable.
        l.append(batch(5, 1));
        assert_eq!(l.log_start(), Some(5));
    }

    #[test]
    fn truncate_suffix_drops_tail() {
        let mut l = SegmentList::new();
        l.append(batch(0, 3));
        l.append(batch(3, 3));
        l.truncate_suffix(3);
        assert_eq!(l.last_offset(), Some(2));
        l.truncate_suffix(0);
        assert_eq!(l.last_offset(), None);
    }

    #[test]
    fn from_batches_round_trips() {
        let batches = vec![batch(0, 2), batch(2, 2)];
        let l = SegmentList::from_batches(batches.clone());
        let got: Vec<&StoredBatch> = l.iter_from(0).collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], &batches[0]);
    }

    // ---- segment-roll boundary arithmetic -------------------------------
    // These pin the exact behaviour at roll boundaries so the disk backend
    // (which mirrors the same roll rule) can rely on it.

    #[test]
    fn empty_fresh_list_has_no_offsets() {
        let l = SegmentList::new();
        assert_eq!(l.segment_count(), 1);
        assert_eq!(l.log_start(), None);
        assert_eq!(l.last_offset(), None);
        assert_eq!(l.iter_from(i64::MIN).count(), 0);
    }

    #[test]
    fn exactly_full_segment_rolls_lazily_on_next_append() {
        // Filling a segment to exactly SEGMENT_ROLL_RECORDS must NOT create
        // an empty trailing segment; the roll happens on the next append, so
        // a freshly-rolled segment is never empty.
        let n = SEGMENT_ROLL_RECORDS;
        let mut l = SegmentList::new();
        l.append(batch(0, n));
        assert_eq!(l.segment_count(), 1, "roll is lazy");
        assert_eq!(l.last_offset(), Some(n as i64 - 1));
        l.append(batch(n as i64, 1));
        assert_eq!(l.segment_count(), 2);
        // The new segment's first batch IS the rolled-in batch — its base
        // offset equals the previous log end, with no gap and no overlap.
        assert_eq!(l.segments[1].base_offset(), Some(n as i64));
        assert_eq!(l.segments[0].last_offset(), Some(n as i64 - 1));
        assert_eq!(l.last_offset(), Some(n as i64));
    }

    #[test]
    fn truncate_suffix_at_exact_segment_base_drops_whole_segment() {
        let n = SEGMENT_ROLL_RECORDS as i64;
        let mut l = SegmentList::new();
        l.append(batch(0, SEGMENT_ROLL_RECORDS));
        l.append(batch(n, SEGMENT_ROLL_RECORDS));
        assert_eq!(l.segment_count(), 2);
        l.truncate_suffix(n);
        assert_eq!(l.segment_count(), 1);
        assert_eq!(l.last_offset(), Some(n - 1));
        assert_eq!(l.log_start(), Some(0));
    }

    #[test]
    fn truncate_prefix_at_exact_segment_base_drops_whole_head() {
        let n = SEGMENT_ROLL_RECORDS as i64;
        let mut l = SegmentList::new();
        l.append(batch(0, SEGMENT_ROLL_RECORDS));
        l.append(batch(n, SEGMENT_ROLL_RECORDS));
        l.truncate_prefix(n);
        assert_eq!(l.segment_count(), 1);
        assert_eq!(l.log_start(), Some(n));
        assert_eq!(l.last_offset(), Some(2 * n - 1));
    }

    #[test]
    fn truncate_to_empty_then_refill_rolls_correctly() {
        let n = SEGMENT_ROLL_RECORDS;
        let mut l = SegmentList::new();
        l.append(batch(0, n));
        l.truncate_suffix(0);
        // Back to a single empty segment with no offsets.
        assert_eq!(l.segment_count(), 1);
        assert_eq!(l.log_start(), None);
        assert_eq!(l.last_offset(), None);
        // Refill at a later base: the empty segment absorbs a full batch
        // without rolling (it was empty), then rolls on the next one.
        l.append(batch(100, n));
        assert_eq!(l.segment_count(), 1);
        l.append(batch(100 + n as i64, 1));
        assert_eq!(l.segment_count(), 2);
        assert_eq!(l.log_start(), Some(100));
        assert_eq!(l.last_offset(), Some(100 + n as i64));
    }

    #[test]
    fn iter_from_exact_roll_boundary_starts_in_second_segment() {
        let n = SEGMENT_ROLL_RECORDS as i64;
        let mut l = SegmentList::new();
        l.append(batch(0, SEGMENT_ROLL_RECORDS));
        l.append(batch(n, SEGMENT_ROLL_RECORDS));
        let got: Vec<Offset> = l.iter_from(n).map(StoredBatch::base_offset).collect();
        assert_eq!(got, vec![n]);
        // One before the boundary still includes the first segment's batch.
        let got: Vec<Offset> = l.iter_from(n - 1).map(StoredBatch::base_offset).collect();
        assert_eq!(got, vec![0, n]);
    }
}
