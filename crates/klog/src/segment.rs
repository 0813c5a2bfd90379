//! Log segments: batches grouped into rollable units.
//!
//! Kafka splits each partition log into segments so retention and compaction
//! can drop or rewrite whole files. We keep the same structure in memory:
//! a [`SegmentList`] of segments, each covering a contiguous offset range,
//! rolled when a segment reaches a record-count threshold. Prefix truncation
//! (repartition-topic purging, retention) drops whole segments cheaply and
//! trims the head segment.
//!
//! The list is the log: with a disk attached, each segment is backed by
//! exactly one segment file, named by the segment's base offset, so the list
//! alone decides when a file is opened, dropped or rewritten.

use crate::batch::StoredBatch;
use crate::Offset;

/// Records per segment before rolling, for a log with no disk attached (a
/// disk-backed log rolls at its `DiskConfig::roll_records`).
pub const SEGMENT_ROLL_RECORDS: usize = 4096;

/// One segment: a non-empty run of batches with increasing offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    base: Offset,
    batches: Vec<StoredBatch>,
    record_count: usize,
}

impl Segment {
    /// A segment holding `batches`, which must be non-empty and in offset
    /// order, opened at `base`.
    pub(crate) fn new(base: Offset, batches: Vec<StoredBatch>) -> Self {
        let record_count = batches.iter().map(StoredBatch::len).sum();
        Self { base, batches, record_count }
    }

    /// The offset the segment was opened at — the base offset of its first
    /// batch then, and its file's name on disk. Trimming the segment's head
    /// keeps it.
    pub(crate) fn base(&self) -> Offset {
        self.base
    }

    /// The segment's batches, in offset order.
    pub(crate) fn batches(&self) -> &[StoredBatch] {
        &self.batches
    }

    /// Last offset of the segment's last batch (a segment is never empty).
    fn last_offset(&self) -> Offset {
        self.batches.last().map_or(Offset::MIN, StoredBatch::last_offset)
    }

    /// Index of the first batch whose last offset is `>= from`: a binary
    /// search, since batches are in offset order.
    fn first_ending_at_or_after(&self, from: Offset) -> usize {
        self.batches.partition_point(|b| b.last_offset() < from)
    }

    /// Drop the batches in `range`; true when any was dropped.
    fn remove(&mut self, range: impl std::ops::RangeBounds<usize>) -> bool {
        let before = self.batches.len();
        let dropped: usize = self.batches.drain(range).map(|b| b.len()).sum();
        self.record_count -= dropped;
        self.batches.len() != before
    }
}

/// Where [`SegmentList::append`] puts a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Into the active (last) segment.
    Active,
    /// Into a new segment that starts an empty list.
    First,
    /// Into a new segment, closing the full active one: a roll.
    Roll,
}

/// What a truncation did to the segment list: the bases of the segments it
/// dropped whole, and the base of the one it trimmed — a cut falls inside at
/// most one segment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Truncation {
    /// Bases of the segments dropped whole.
    pub dropped: Vec<Offset>,
    /// Base of the segment that lost some, but not all, of its batches.
    pub trimmed: Option<Offset>,
}

/// An ordered list of segments forming one partition log's storage. It
/// never holds an empty segment.
#[derive(Debug, Clone)]
pub struct SegmentList {
    segments: Vec<Segment>,
    roll_records: usize,
}

impl Default for SegmentList {
    fn default() -> Self {
        Self::new()
    }
}

impl SegmentList {
    /// An empty list rolling at [`SEGMENT_ROLL_RECORDS`].
    pub fn new() -> Self {
        Self { segments: Vec::new(), roll_records: SEGMENT_ROLL_RECORDS }
    }

    /// Re-form the list from a flat batch list (compaction output), rolling
    /// as appends would. Batches must be in increasing offset order.
    pub fn rebuild(&mut self, batches: Vec<StoredBatch>) {
        self.segments.clear();
        for b in batches {
            self.append(b);
        }
    }

    /// A list of already-formed segments (recovery: one per surviving
    /// file). Rebuilding a segment is not a roll, so nothing is counted.
    pub(crate) fn from_segments(segments: Vec<Segment>, roll_records: usize) -> Self {
        Self { segments, roll_records }
    }

    /// Roll at `records` per segment from now on (a disk was attached).
    pub(crate) fn set_roll_records(&mut self, records: usize) {
        self.roll_records = records;
    }

    /// Where the next appended batch goes. The one place the roll threshold
    /// is read: a segment rolls once it holds `roll_records` records.
    pub fn placement(&self) -> Placement {
        match self.segments.last() {
            None => Placement::First,
            Some(active) if active.record_count >= self.roll_records => Placement::Roll,
            Some(_) => Placement::Active,
        }
    }

    /// Append a batch, rolling to a new segment when the active one is full.
    /// Returns where the batch went.
    pub fn append(&mut self, batch: StoredBatch) -> Placement {
        debug_assert!(!batch.is_empty());
        let placement = self.placement();
        if placement == Placement::Roll {
            kobs::counter!("klog.segment_rolls").add(1);
            kobs::event!(
                batch.max_timestamp(),
                "klog",
                "segment_roll",
                segments = self.segments.len() + 1,
                base_offset = batch.base_offset(),
            );
        }
        match self.segments.last_mut() {
            Some(active) if placement == Placement::Active => {
                active.record_count += batch.len();
                active.batches.push(batch);
            }
            _ => self.segments.push(Segment::new(batch.base_offset(), vec![batch])),
        }
        placement
    }

    /// Earliest retained offset, if any batch is retained.
    pub fn log_start(&self) -> Option<Offset> {
        self.segments.first().and_then(|s| s.batches.first()).map(StoredBatch::base_offset)
    }

    /// Last retained offset.
    pub fn last_offset(&self) -> Option<Offset> {
        self.last().map(StoredBatch::last_offset)
    }

    /// Last retained batch.
    pub fn last(&self) -> Option<&StoredBatch> {
        self.segments.last().and_then(|s| s.batches.last())
    }

    /// The segments, in offset order.
    pub(crate) fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Index of the first segment whose last offset is `>= from`.
    fn first_segment_ending_at_or_after(&self, from: Offset) -> usize {
        self.segments.partition_point(|s| s.last_offset() < from)
    }

    /// Iterate batches whose last offset is `>= from`, in offset order.
    ///
    /// The start is found as Kafka's offset index finds it, by binary
    /// search — the segment by its last offset, then the batch within it by
    /// its last offset — so positioning a fetch costs O(log n), not a walk of
    /// the segment's batches. Offsets increase along the list, so every
    /// batch after the start qualifies too.
    pub fn iter_from(&self, from: Offset) -> impl Iterator<Item = &StoredBatch> {
        let seg = self.first_segment_ending_at_or_after(from);
        let (head, rest) = match self.segments.get(seg) {
            Some(s) => (&s.batches[s.first_ending_at_or_after(from)..], &self.segments[seg + 1..]),
            None => (&[][..], &[][..]),
        };
        head.iter().chain(rest.iter().flat_map(|s| s.batches.iter()))
    }

    /// Drop whole batches entirely below `new_start`; whole segments are
    /// dropped in O(1) per segment.
    pub fn truncate_prefix(&mut self, new_start: Offset) -> Truncation {
        let keep_from = self.first_segment_ending_at_or_after(new_start);
        let dropped = self.segments.drain(..keep_from).map(|s| s.base).collect();
        let trimmed = self.segments.first_mut().and_then(|head| {
            let cut = head.first_ending_at_or_after(new_start);
            head.remove(..cut).then_some(head.base)
        });
        Truncation { dropped, trimmed }
    }

    /// Drop all batches with any offset `>= to` (suffix truncation). Batches
    /// straddling `to` are dropped whole (matches Kafka, which truncates at
    /// batch boundaries).
    pub fn truncate_suffix(&mut self, to: Offset) -> Truncation {
        // A segment goes whole when its first batch reaches `to`.
        let cut_from = self
            .segments
            .partition_point(|s| s.batches.first().is_some_and(|b| b.last_offset() < to));
        let dropped = self.segments.drain(cut_from..).map(|s| s.base).collect();
        let trimmed = self.segments.last_mut().and_then(|tail| {
            let cut = tail.first_ending_at_or_after(to);
            tail.remove(cut..).then_some(tail.base)
        });
        Truncation { dropped, trimmed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchMeta;
    use crate::record::Record;

    fn batch(base: Offset, n: usize) -> StoredBatch {
        StoredBatch::new(
            BatchMeta::plain(),
            (0..n).map(|i| (base + i as i64, Record::of_str("k", "v", 0))).collect::<Vec<_>>(),
        )
    }

    fn bases(l: &SegmentList) -> Vec<Offset> {
        l.segments().iter().map(Segment::base).collect()
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
        while l.segments().len() < 3 {
            l.append(batch(off, 512));
            off += 512;
        }
        assert!(l.segments().len() >= 3);
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
        let cut = l.truncate_prefix(cutoff);
        assert_eq!(l.log_start(), Some(cutoff));
        assert_eq!(
            cut,
            Truncation { dropped: vec![0, SEGMENT_ROLL_RECORDS as i64], trimmed: None }
        );
    }

    #[test]
    fn truncate_prefix_to_everything_leaves_empty_list() {
        let mut l = SegmentList::new();
        l.append(batch(0, 5));
        l.truncate_prefix(100);
        assert_eq!(l.log_start(), None);
        assert_eq!(l.iter_from(0).count(), 0);
        // Still appendable.
        assert_eq!(l.append(batch(5, 1)), Placement::First);
        assert_eq!(l.log_start(), Some(5));
    }

    #[test]
    fn truncate_suffix_drops_tail() {
        let mut l = SegmentList::new();
        l.append(batch(0, 3));
        l.append(batch(3, 3));
        assert_eq!(l.truncate_suffix(3), Truncation { dropped: vec![], trimmed: Some(0) });
        assert_eq!(l.last_offset(), Some(2));
        assert_eq!(l.truncate_suffix(0), Truncation { dropped: vec![0], trimmed: None });
        assert_eq!(l.last_offset(), None);
    }

    #[test]
    fn trimmed_head_keeps_its_base() {
        let mut l = SegmentList::new();
        l.set_roll_records(4);
        l.rebuild(vec![batch(0, 2), batch(2, 2), batch(4, 2)]);
        assert_eq!(bases(&l), vec![0, 4]);
        assert_eq!(l.truncate_prefix(2), Truncation { dropped: vec![], trimmed: Some(0) });
        assert_eq!(bases(&l), vec![0, 4], "the head is trimmed, not renamed");
        assert_eq!(l.log_start(), Some(2));
    }

    #[test]
    fn rebuild_round_trips() {
        let batches = vec![batch(0, 2), batch(2, 2)];
        let mut l = SegmentList::new();
        l.append(batch(0, 1));
        l.rebuild(batches.clone());
        let got: Vec<&StoredBatch> = l.iter_from(0).collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], &batches[0]);
    }

    // ---- segment-roll boundary arithmetic -------------------------------
    // These pin the exact behaviour at roll boundaries, which the disk
    // backend follows file for file.

    #[test]
    fn empty_fresh_list_has_no_offsets() {
        let l = SegmentList::new();
        assert!(l.segments().is_empty());
        assert_eq!(l.placement(), Placement::First);
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
        assert_eq!(l.append(batch(0, n)), Placement::First);
        assert_eq!(l.segments().len(), 1, "roll is lazy");
        assert_eq!(l.last_offset(), Some(n as i64 - 1));
        assert_eq!(l.append(batch(n as i64, 1)), Placement::Roll);
        assert_eq!(bases(&l), vec![0, n as i64]);
        // The new segment's first batch IS the rolled-in batch — its base
        // offset equals the previous log end, with no gap and no overlap.
        assert_eq!(l.segments[0].last_offset(), n as i64 - 1);
        assert_eq!(l.last_offset(), Some(n as i64));
    }

    #[test]
    fn truncate_suffix_at_exact_segment_base_drops_whole_segment() {
        let n = SEGMENT_ROLL_RECORDS as i64;
        let mut l = SegmentList::new();
        l.append(batch(0, SEGMENT_ROLL_RECORDS));
        l.append(batch(n, SEGMENT_ROLL_RECORDS));
        assert_eq!(l.segments().len(), 2);
        assert_eq!(l.truncate_suffix(n), Truncation { dropped: vec![n], trimmed: None });
        assert_eq!(l.segments().len(), 1);
        assert_eq!(l.last_offset(), Some(n - 1));
        assert_eq!(l.log_start(), Some(0));
    }

    #[test]
    fn truncate_prefix_at_exact_segment_base_drops_whole_head() {
        let n = SEGMENT_ROLL_RECORDS as i64;
        let mut l = SegmentList::new();
        l.append(batch(0, SEGMENT_ROLL_RECORDS));
        l.append(batch(n, SEGMENT_ROLL_RECORDS));
        assert_eq!(l.truncate_prefix(n), Truncation { dropped: vec![0], trimmed: None });
        assert_eq!(l.segments().len(), 1);
        assert_eq!(l.log_start(), Some(n));
        assert_eq!(l.last_offset(), Some(2 * n - 1));
    }

    #[test]
    fn truncate_to_empty_then_refill_rolls_correctly() {
        let n = SEGMENT_ROLL_RECORDS;
        let mut l = SegmentList::new();
        l.append(batch(0, n));
        l.truncate_suffix(0);
        // Back to no segments and no offsets.
        assert!(l.segments().is_empty());
        assert_eq!(l.log_start(), None);
        assert_eq!(l.last_offset(), None);
        // Refill at a later base: a full batch opens the first segment
        // without rolling, then the next one rolls.
        assert_eq!(l.append(batch(100, n)), Placement::First);
        assert_eq!(l.append(batch(100 + n as i64, 1)), Placement::Roll);
        assert_eq!(bases(&l), vec![100, 100 + n as i64]);
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

    // ---- positioning by search == positioning by scan -------------------

    use proptest::prelude::*;

    /// What `iter_from` yielded while it scanned: skip whole segments with a
    /// linear `position`, then `filter` every remaining batch. Kept here as
    /// the reference the searches must match.
    fn scan_from(l: &SegmentList, from: Offset) -> Vec<StoredBatch> {
        let start =
            l.segments.iter().position(|s| s.last_offset() >= from).unwrap_or(l.segments.len());
        l.segments[start..]
            .iter()
            .flat_map(|s| s.batches.iter())
            .filter(|b| b.last_offset() >= from)
            .cloned()
            .collect()
    }

    fn all_batches(l: &SegmentList) -> Vec<StoredBatch> {
        scan_from(l, Offset::MIN)
    }

    /// A truncation's report, read off the list before and after it: the
    /// segments that are gone, and the one that lost some batches.
    fn observed_truncation(before: &SegmentList, after: &SegmentList) -> Truncation {
        let mut t = Truncation::default();
        for seg in before.segments() {
            match after.segments().iter().find(|s| s.base == seg.base) {
                None => t.dropped.push(seg.base),
                Some(s) if s.batches.len() != seg.batches.len() => t.trimmed = Some(seg.base),
                Some(_) => {}
            }
        }
        t
    }

    /// Every segment non-empty, counted right, opened at or below its first
    /// offset.
    fn assert_well_formed(l: &SegmentList) {
        for s in l.segments() {
            assert!(!s.batches.is_empty(), "empty segment at {}", s.base);
            assert_eq!(s.record_count, s.batches.iter().map(StoredBatch::len).sum::<usize>());
            assert!(s.base <= s.batches[0].base_offset());
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A batch of `len` records, `gap` offsets after the last one.
        Append { len: usize, gap: i64 },
        /// Cut below the offset `pct` percent of the way through the list.
        TruncatePrefix { pct: i64 },
        /// Cut at the offset `pct` percent of the way through the list.
        TruncateSuffix { pct: i64 },
        /// Compaction: drop each record whose bit in `mask` is clear (a
        /// batch left empty goes), then re-form the list — offset gaps.
        Compact { mask: u64 },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // Weighted choice: 6 appends / 1 prefix cut / 1 suffix cut / 1
        // compaction.
        (0u8..9, 1usize..8, 0i64..3, 0i64..101, any::<u64>()).prop_map(
            |(w, len, gap, pct, mask)| match w {
                0..=5 => Op::Append { len, gap },
                6 => Op::TruncatePrefix { pct },
                7 => Op::TruncateSuffix { pct },
                _ => Op::Compact { mask },
            },
        )
    }

    /// The offset `pct` percent of the way from log start to one past the end.
    fn offset_at(l: &SegmentList, pct: i64) -> Offset {
        let (lo, hi) = (l.log_start().unwrap_or(0), l.last_offset().map_or(0, |o| o + 1));
        lo + (hi - lo) * pct / 100
    }

    proptest! {
        /// Over random batch sizes, roll thresholds, offset gaps, prefix and
        /// suffix truncations and compactions, `iter_from` yields exactly
        /// the batches the scan yields, from every offset, and each
        /// truncation keeps exactly what the same scan says it keeps.
        #[test]
        fn search_positioning_matches_the_scan(
            roll in 1usize..12,
            ops in prop::collection::vec(arb_op(), 1..60),
        ) {
            let mut l = SegmentList::new();
            l.set_roll_records(roll);
            let mut next: Offset = 0;
            for op in ops {
                let before = l.clone();
                match op {
                    Op::Append { len, gap } => {
                        next = next.max(l.last_offset().map_or(0, |o| o + 1)) + gap;
                        l.append(batch(next, len));
                        next += len as Offset;
                    }
                    Op::TruncatePrefix { pct } => {
                        let cut = offset_at(&l, pct);
                        let report = l.truncate_prefix(cut);
                        prop_assert_eq!(all_batches(&l), scan_from(&before, cut));
                        prop_assert_eq!(report, observed_truncation(&before, &l));
                    }
                    Op::TruncateSuffix { pct } => {
                        let cut = offset_at(&l, pct);
                        let report = l.truncate_suffix(cut);
                        let mut kept = all_batches(&before);
                        kept.truncate(kept.len() - scan_from(&before, cut).len());
                        prop_assert_eq!(all_batches(&l), kept);
                        prop_assert_eq!(report, observed_truncation(&before, &l));
                    }
                    Op::Compact { mask } => {
                        let mut bit = 0;
                        let mut keep = |_: &(Offset, Record)| {
                            bit = (bit + 1) % 64;
                            mask & (1 << bit) != 0
                        };
                        let compacted = all_batches(&l)
                            .into_iter()
                            .filter_map(|b| {
                                let entries: Vec<_> =
                                    b.entries.iter().filter(|e| keep(e)).cloned().collect();
                                (!entries.is_empty()).then(|| StoredBatch::new(b.meta.clone(), entries))
                            })
                            .collect();
                        l.rebuild(compacted);
                    }
                }
                assert_well_formed(&l);
                let (lo, hi) = (l.log_start().unwrap_or(0), l.last_offset().unwrap_or(0));
                for from in lo - 2..=hi + 2 {
                    let got: Vec<StoredBatch> = l.iter_from(from).cloned().collect();
                    prop_assert_eq!(got, scan_from(&l, from), "from {}", from);
                }
            }
        }
    }
}
