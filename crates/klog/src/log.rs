//! The partition log: append, fetch, watermarks, and transaction visibility.
//!
//! This is the storage half of the paper's design. One `PartitionLog` holds
//! an immutable sequence of record batches with:
//!
//! * **log-end offset** (LEO) — where the next batch lands,
//! * **high watermark** (HW) — highest offset replicated to all in-sync
//!   replicas; consumers never read past it (§4),
//! * **last stable offset** (LSO) — first offset still covered by an *open*
//!   transaction; read-committed consumers never read past `min(HW, LSO)`
//!   (§4.2.3),
//! * an **aborted-transaction index** so read-committed fetches can skip
//!   batches whose transaction aborted — this is how Kafka "leverages the
//!   append offset ordering to avoid exposing aborted data" without a
//!   write-ahead log (§4.2),
//! * the **producer state table** for idempotent dedup (§4.1).

use crate::batch::{BatchMeta, ControlType, StoredBatch};
use crate::error::LogError;
use crate::producer_state::{ProducerStateTable, SequenceCheck};
use crate::record::Record;
use crate::segment::{Placement, Segment, SegmentList};
use crate::storage::format::ProducerSnapshot;
use crate::storage::{DiskConfig, DiskLog};
use crate::{Offset, ProducerEpoch, ProducerId, NO_TIMESTAMP};
use std::collections::BTreeMap;

/// Consumer isolation level (§4.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsolationLevel {
    /// See everything below the high watermark, including records of
    /// ongoing and aborted transactions.
    #[default]
    ReadUncommitted,
    /// See only records of committed transactions, below min(HW, LSO).
    ReadCommitted,
}

/// A transaction that was aborted: its data batches must be skipped by
/// read-committed fetches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbortedTxn {
    /// Producer that aborted the transaction.
    pub producer_id: ProducerId,
    /// First data offset the transaction wrote on this partition.
    pub first_offset: Offset,
    /// Offset of the abort marker.
    pub marker_offset: Offset,
}

/// The aborted-transaction index: the list in marker order (what snapshots
/// store and [`PartitionLog::aborted_txns`] shows) plus, per producer, its
/// `(marker_offset, first_offset)` pairs in marker order, so finding the
/// abort that covers a batch is one binary search, not a scan of every abort
/// the partition ever saw.
#[derive(Debug, Clone, Default)]
struct AbortedIndex {
    list: Vec<AbortedTxn>,
    by_producer: BTreeMap<ProducerId, Vec<(Offset, Offset)>>,
}

impl AbortedIndex {
    /// Record an abort whose marker lies above every indexed one.
    fn push(&mut self, a: AbortedTxn) {
        self.by_producer.entry(a.producer_id).or_default().push((a.marker_offset, a.first_offset));
        self.list.push(a);
    }

    /// Whether an abort of `producer_id` covers `offset`. One producer's
    /// transactions on a partition never overlap, so only its first abort
    /// marker above `offset` can.
    fn covers(&self, producer_id: ProducerId, offset: Offset) -> bool {
        let Some(aborts) = self.by_producer.get(&producer_id) else { return false };
        let above = aborts.partition_point(|&(marker, _)| marker <= offset);
        aborts.get(above).is_some_and(|&(_, first)| first <= offset)
    }
}

impl From<Vec<AbortedTxn>> for AbortedIndex {
    fn from(list: Vec<AbortedTxn>) -> Self {
        let mut index = Self::default();
        for a in list {
            index.push(a);
        }
        index
    }
}

/// Result of an append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// First offset assigned to the batch.
    pub base_offset: Offset,
    /// Last offset assigned to the batch.
    pub last_offset: Offset,
    /// True when the batch was recognised as an idempotent-producer
    /// duplicate and **not** re-appended; offsets are the original ones.
    pub duplicate: bool,
}

/// Result of a fetch: batches (possibly trimmed), plus log metadata the
/// consumer client needs to make progress.
#[derive(Debug, Clone)]
pub struct FetchResult {
    /// Fetched batches, possibly trimmed to the fetch bounds.
    pub batches: Vec<StoredBatch>,
    /// Where the consumer should fetch from next. Advances past skipped
    /// control batches and aborted data so pollers never spin.
    pub next_offset: Offset,
    /// High watermark at fetch time.
    pub high_watermark: Offset,
    /// Last stable offset at fetch time (read-committed bound).
    pub last_stable_offset: Offset,
    /// First retained offset at fetch time.
    pub log_start: Offset,
}

impl FetchResult {
    /// Flatten to `(offset, record)` pairs in offset order.
    pub fn records(&self) -> impl Iterator<Item = (Offset, &Record)> {
        self.batches.iter().flat_map(|b| b.entries.iter().map(|(o, r)| (*o, r)))
    }

    /// Total record count across batches.
    pub fn count(&self) -> usize {
        self.batches.iter().map(StoredBatch::len).sum()
    }
}

/// A single partition's log. Single-threaded; `kbroker` provides locking.
#[derive(Debug)]
pub struct PartitionLog {
    segments: SegmentList,
    /// Earliest addressable offset. Advanced only by [`truncate_prefix`];
    /// compaction leaves it alone (compacted-away offsets simply yield no
    /// records, exactly like Kafka).
    ///
    /// [`truncate_prefix`]: PartitionLog::truncate_prefix
    log_start: Offset,
    next_offset: Offset,
    high_watermark: Offset,
    producers: ProducerStateTable,
    aborted: AbortedIndex,
    max_timestamp: i64,
    /// When true (default), the high watermark tracks the log end — the
    /// single-replica behaviour. The replication layer switches this off and
    /// advances the watermark itself as followers catch up.
    auto_advance_hw: bool,
    /// Optional durable backing: when attached, each segment is one segment
    /// file and every mutation (append, marker, truncation, compaction) is
    /// written through, so the log survives a crash of its in-memory
    /// incarnation.
    disk: Option<DiskLog>,
}

impl Default for PartitionLog {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for PartitionLog {
    /// Clones are in-memory views: the disk attachment (if any) stays with
    /// the original, because two logs must never write the same directory.
    fn clone(&self) -> Self {
        Self {
            segments: self.segments.clone(),
            log_start: self.log_start,
            next_offset: self.next_offset,
            high_watermark: self.high_watermark,
            producers: self.producers.clone(),
            aborted: self.aborted.clone(),
            max_timestamp: self.max_timestamp,
            auto_advance_hw: self.auto_advance_hw,
            disk: None,
        }
    }
}

impl PartitionLog {
    /// An empty, in-memory partition log.
    pub fn new() -> Self {
        Self {
            segments: SegmentList::new(),
            log_start: 0,
            next_offset: 0,
            high_watermark: 0,
            producers: ProducerStateTable::new(),
            aborted: AbortedIndex::default(),
            max_timestamp: NO_TIMESTAMP,
            auto_advance_hw: true,
            disk: None,
        }
    }

    /// Put the log under external (replication-layer) high-watermark
    /// management.
    pub fn with_managed_watermark(mut self) -> Self {
        self.auto_advance_hw = false;
        self
    }

    // ------------------------------------------------------------------
    // Durable storage attachment
    // ------------------------------------------------------------------

    /// Back this log, which must be empty, with a fresh disk from
    /// [`DiskLog::open_clean`]: its segments roll at the disk's
    /// `roll_records`, one file each, and subsequent mutations are written
    /// through. A non-empty log is backed by [`resync_disk`](Self::resync_disk),
    /// which writes what it already holds.
    pub fn attach_disk(&mut self, disk: DiskLog) {
        debug_assert!(self.segments.segments().is_empty(), "attach_disk needs an empty log");
        self.segments.set_roll_records(disk.roll_records());
        self.disk = Some(disk);
    }

    /// Back this log with a *fresh* disk at `cfg` holding its current
    /// contents (one file per segment + checkpoint + snapshot). Used when a
    /// recovered replica's files diverged from the leader (e.g. compaction
    /// ran while it was down) and a full re-clone is the only safe repair.
    pub fn resync_disk(&mut self, cfg: DiskConfig) -> Result<(), LogError> {
        let mut disk = DiskLog::open_clean(cfg)?;
        self.segments.set_roll_records(disk.roll_records());
        disk.rewrite(&[], &self.segments)?;
        self.disk = Some(disk);
        self.disk_checkpoint()?;
        self.disk_snapshot()
    }

    /// Reopen the partition directory at `cfg` after a crash. The log gets
    /// one segment per surviving segment file (recovery cuts at the first
    /// torn or corrupt frame), the checkpointed bounds clamped to what
    /// survived, and — when a valid producer snapshot exists — producer
    /// state seeded from it with a suffix replay; otherwise a full §4.1
    /// rescan.
    pub fn recover(cfg: DiskConfig) -> Result<Self, LogError> {
        let (disk, segments) = DiskLog::recover(cfg)?;
        let segments = SegmentList::from_segments(segments, disk.roll_records());
        let log_end = segments.last_offset().map_or(0, |o| o + 1);
        // Compaction may have emptied the head of the log without moving
        // its start, so the checkpoint — not the first surviving batch —
        // says where the log starts.
        let first = segments.log_start().unwrap_or(0);
        let (log_start, ckpt_hw) = disk.read_checkpoint().unwrap_or((first, 0));
        let log_start = log_start.max(0);
        let high_watermark = ckpt_hw.clamp(log_start.min(log_end), log_end.max(log_start));
        // A snapshot "from the future" (offset beyond the recovered end) can
        // only happen after an untracked suffix loss; it must not be used.
        let snapshot = disk.read_snapshot().filter(|s| s.snapshot_offset <= log_end.max(log_start));
        let mut log = Self {
            segments: SegmentList::new(),
            log_start,
            next_offset: segments.last_offset().map_or(log_start.max(high_watermark), |o| o + 1),
            high_watermark,
            producers: ProducerStateTable::new(),
            aborted: AbortedIndex::default(),
            max_timestamp: NO_TIMESTAMP,
            auto_advance_hw: true,
            disk: Some(disk),
        };
        for b in segments.iter_from(i64::MIN) {
            log.track_max_timestamp(b);
        }
        log.segments = segments;
        let Some(snap) = snapshot else {
            log.recover_producer_state();
            return Ok(log);
        };
        // Snapshot fast path: seed the producer table and aborted index from
        // the snapshot, then replay only the suffix at or above its offset.
        log.producers = ProducerStateTable::from_snapshot_entries(snap.entries);
        log.aborted = snap.aborted.into();
        let suffix = log.segments.iter_from(snap.snapshot_offset);
        for b in suffix.filter(|b| b.base_offset() >= snap.snapshot_offset) {
            if b.meta.control == Some(ControlType::Abort) {
                if let Some(first) = log.producers.txn_first_offset(b.meta.producer_id) {
                    log.aborted.push(AbortedTxn {
                        producer_id: b.meta.producer_id,
                        first_offset: first,
                        marker_offset: b.base_offset(),
                    });
                }
            }
            log.producers.apply_batch(b);
        }
        Ok(log)
    }

    /// Base offsets of the log's segments — with a disk attached, the names
    /// of its segment files, one per segment.
    pub fn segment_bases(&self) -> impl Iterator<Item = Offset> + '_ {
        self.segments.segments().iter().map(Segment::base)
    }

    /// Write the `(log_start, high_watermark)` checkpoint when attached.
    fn disk_checkpoint(&mut self) -> Result<(), LogError> {
        let (start, hw) = (self.log_start, self.high_watermark);
        match self.disk.as_mut() {
            Some(d) => d.write_checkpoint(start, hw),
            None => Ok(()),
        }
    }

    /// Write a fresh producer-state snapshot at the current log end.
    fn disk_snapshot(&mut self) -> Result<(), LogError> {
        let Some(disk) = self.disk.as_mut() else { return Ok(()) };
        disk.write_snapshot(&ProducerSnapshot {
            snapshot_offset: self.next_offset,
            entries: self.producers.snapshot_entries(),
            aborted: self.aborted.list.clone(),
        })
    }

    // ------------------------------------------------------------------
    // Append path
    // ------------------------------------------------------------------

    /// Append a batch of records with the given metadata.
    ///
    /// Validates idempotent sequences and producer epochs; duplicates are
    /// acked (with their original offsets) without re-appending.
    pub fn append(
        &mut self,
        meta: BatchMeta,
        records: Vec<Record>,
    ) -> Result<AppendOutcome, LogError> {
        if records.is_empty() {
            return Err(LogError::CorruptBatch("empty batch".into()));
        }
        if meta.is_control() {
            return Err(LogError::CorruptBatch("control batches must use append_control".into()));
        }
        if meta.transactional && meta.producer_id < 0 {
            return Err(LogError::InvalidTxnState(
                "transactional batch without producer id".into(),
            ));
        }
        if meta.is_idempotent() {
            match self.producers.check(
                meta.producer_id,
                meta.producer_epoch,
                meta.base_sequence,
                records.len(),
            )? {
                SequenceCheck::Duplicate { base_offset, last_offset } => {
                    kobs::counter!("klog.dedup_hits").add(1);
                    kobs::event!(
                        records.iter().map(|r| r.timestamp).max().unwrap_or(0),
                        "klog",
                        "dedup_hit",
                        producer_id = meta.producer_id,
                        base_sequence = meta.base_sequence,
                        base_offset = base_offset,
                    );
                    return Ok(AppendOutcome { base_offset, last_offset, duplicate: true });
                }
                SequenceCheck::InOrder => {}
            }
        } else if meta.producer_id >= 0 {
            // Epoch check still applies to non-sequenced writes from a known
            // producer (e.g. a fenced zombie must not write at all).
            if let Some(current) = self.producers.epoch_of(meta.producer_id) {
                if meta.producer_epoch < current {
                    return Err(LogError::ProducerFenced {
                        producer_id: meta.producer_id,
                        current_epoch: current,
                        got_epoch: meta.producer_epoch,
                    });
                }
            }
        }

        let base_offset = self.next_offset;
        let last_offset = base_offset + records.len() as i64 - 1;
        // The batch's entries: the producer's records move into them, and
        // from here on every holder shares the one stored batch.
        let entries = records.into_iter().enumerate().map(|(i, r)| (base_offset + i as i64, r));
        self.store_traced(StoredBatch::new(meta, entries))?;
        Ok(AppendOutcome { base_offset, last_offset, duplicate: false })
    }

    /// Append a transaction control marker (commit or abort) for
    /// `producer_id`. Written by the transaction coordinator (§4.2.2).
    ///
    /// Closes the producer's open transaction on this partition; for aborts,
    /// the covered offset range is added to the aborted-transaction index.
    /// Kafka tolerates markers for transactions with no data on this
    /// partition (e.g. retried registration), so a missing open transaction
    /// is not an error.
    pub fn append_control(
        &mut self,
        producer_id: ProducerId,
        epoch: ProducerEpoch,
        ctl: ControlType,
        timestamp: i64,
    ) -> Result<Offset, LogError> {
        if let Some(current) = self.producers.epoch_of(producer_id) {
            if epoch < current {
                return Err(LogError::ProducerFenced {
                    producer_id,
                    current_epoch: current,
                    got_epoch: epoch,
                });
            }
        }
        let marker_offset = self.next_offset;
        let marker_record = Record { key: None, value: None, timestamp };
        self.store_traced(StoredBatch::new(
            BatchMeta::control(producer_id, epoch, ctl),
            [(marker_offset, marker_record)],
        ))?;
        Ok(marker_offset)
    }

    /// Install a batch verbatim at its original offsets: how a follower
    /// replica takes the batch its leader just stored (a handle to the
    /// leader's batch, not a copy), and how a recovered replica catches up
    /// on the suffix it missed while down. The batch must start at the
    /// current log end; producer/transaction state advances exactly as it
    /// did on the log the batch was appended to — the append's sequence and
    /// fencing decisions were made there and are not made again, only their
    /// invariants are re-checked.
    pub fn install_batch(&mut self, batch: StoredBatch) -> Result<(), LogError> {
        if batch.is_empty() {
            return Err(LogError::CorruptBatch("empty batch".into()));
        }
        if batch.base_offset() != self.next_offset {
            return Err(LogError::CorruptBatch(format!(
                "install_batch at offset {} but log end is {}",
                batch.base_offset(),
                self.next_offset
            )));
        }
        self.store(batch, None)
    }

    /// A data batch's timestamps advance the max timestamp; a control
    /// marker carries its coordinator's clock, not event time, and does not.
    fn track_max_timestamp(&mut self, batch: &StoredBatch) {
        if !batch.meta.is_control() {
            self.max_timestamp = self.max_timestamp.max(batch.max_timestamp());
        }
    }

    /// [`store`](Self::store) a batch the leader validated, under one
    /// `append` or `append_control` span — only inside a traced lifecycle (a
    /// commit cycle's produce or marker path), so harness-side feeder
    /// appends stay span-free. A follower installing the batch records no
    /// span of its own: one replicated append is one span.
    ///
    /// The log has no clock, and a record's timestamp is event time, not
    /// the time of the append: the span is stamped 0 at both ends, which
    /// places it, with no length, at its parent's cursor.
    fn store_traced(&mut self, batch: StoredBatch) -> Result<(), LogError> {
        if !kobs::ktrace::in_span() {
            return self.store(batch, None);
        }
        let (base_offset, last_offset) = (batch.base_offset(), batch.last_offset());
        let span = if batch.meta.is_control() {
            kobs::child_span!(0, "klog", "append_control", offset = base_offset)
        } else {
            let records = last_offset - base_offset + 1;
            kobs::child_span!(0, "klog", "append", records = records, base_offset = base_offset)
        };
        let stored = self.store(batch, Some(span));
        kobs::ktrace::finish_span(span, 0);
        stored
    }

    /// Store a validated batch at the log end: the one path behind
    /// [`append`](Self::append), [`append_control`](Self::append_control)
    /// and [`install_batch`](Self::install_batch), so a leader and the
    /// followers installing its batches go through identical state
    /// transitions (max timestamp, segment file, aborted index, producer table,
    /// watermark, snapshot and checkpoint). The disk write runs inside
    /// `span`, if any, so its `fsync` child nests; without one it records
    /// no span, so a follower's install is untraced like a feeder's append.
    fn store(
        &mut self,
        batch: StoredBatch,
        span: Option<kobs::SpanHandle>,
    ) -> Result<(), LogError> {
        self.track_max_timestamp(&batch);
        let (base_offset, last_offset) = (batch.base_offset(), batch.last_offset());
        // The frame reaches the file before the batch joins the list, so a
        // failed write leaves the log as it was. The list decides where it
        // goes; a new segment opens a new file.
        if let Some(d) = self.disk.as_mut() {
            let _in_append = span.map(kobs::ktrace::enter);
            if self.segments.placement() != Placement::Active {
                d.open_segment(base_offset, span.is_some())?;
            }
            d.append_batch(&batch)?;
        }
        // Maintain the aborted index *before* applying the batch (the apply
        // clears the open-txn marker an abort refers to).
        if batch.meta.control == Some(ControlType::Abort) {
            if let Some(first) = self.producers.txn_first_offset(batch.meta.producer_id) {
                self.aborted.push(AbortedTxn {
                    producer_id: batch.meta.producer_id,
                    first_offset: first,
                    marker_offset: base_offset,
                });
            }
        }
        self.producers.apply_batch(&batch);
        let placement = self.segments.append(batch);
        self.next_offset = last_offset + 1;
        if self.auto_advance_hw {
            self.high_watermark = self.next_offset;
        }
        if placement == Placement::Roll {
            // A finished segment gets a producer-state snapshot, so recovery
            // can seed the table and replay only the active segment.
            self.disk_snapshot()?;
        }
        self.disk_checkpoint()
    }

    // ------------------------------------------------------------------
    // Fetch path
    // ------------------------------------------------------------------

    /// Fetch up to `max_records` records starting at `from`, honouring the
    /// isolation level. Control batches are never returned; read-committed
    /// fetches additionally skip aborted transactional data.
    pub fn fetch(
        &self,
        from: Offset,
        max_records: usize,
        isolation: IsolationLevel,
    ) -> Result<FetchResult, LogError> {
        let bound = self.visible_bound(isolation);
        if from < self.log_start() {
            return Err(LogError::OffsetOutOfRange {
                requested: from,
                log_start: self.log_start(),
                log_end: self.next_offset,
            });
        }
        if from > self.next_offset {
            return Err(LogError::OffsetOutOfRange {
                requested: from,
                log_start: self.log_start(),
                log_end: self.next_offset,
            });
        }
        let mut out: Vec<StoredBatch> = Vec::new();
        let mut taken = 0usize;
        let mut next_offset = from;
        for batch in self.segments.iter_from(from) {
            if batch.base_offset() >= bound || taken >= max_records {
                break;
            }
            // Whole batch is below `from`? iter_from already skips those.
            let skip_data = batch.meta.is_control()
                || (isolation == IsolationLevel::ReadCommitted && self.is_aborted(batch));
            if skip_data {
                // Advance position past it without delivering records, but
                // only if the batch is fully below the visibility bound.
                if batch.last_offset() < bound {
                    next_offset = next_offset.max(batch.last_offset() + 1);
                }
                continue;
            }
            // A batch the fetch covers whole is handed out as stored — the
            // consumer shares the log's batch. Only a batch cut by
            // `from`, the visibility bound or the record budget is copied.
            let room = max_records - taken;
            let whole =
                batch.base_offset() >= from && batch.last_offset() < bound && batch.len() <= room;
            let delivered = if whole {
                batch.clone()
            } else {
                let entries: Box<[(Offset, Record)]> = batch
                    .entries
                    .iter()
                    .filter(|(o, _)| *o >= from && *o < bound)
                    .take(room)
                    .cloned()
                    .collect();
                if entries.is_empty() {
                    continue;
                }
                StoredBatch::new(batch.meta.clone(), entries)
            };
            taken += delivered.len();
            next_offset = next_offset.max(delivered.last_offset() + 1);
            out.push(delivered);
        }
        Ok(FetchResult {
            batches: out,
            next_offset,
            high_watermark: self.high_watermark,
            last_stable_offset: self.last_stable_offset(),
            log_start: self.log_start(),
        })
    }

    fn is_aborted(&self, batch: &StoredBatch) -> bool {
        if !batch.meta.transactional || batch.meta.is_control() {
            return false;
        }
        self.aborted.covers(batch.meta.producer_id, batch.base_offset())
    }

    fn visible_bound(&self, isolation: IsolationLevel) -> Offset {
        match isolation {
            IsolationLevel::ReadUncommitted => self.high_watermark,
            IsolationLevel::ReadCommitted => self.high_watermark.min(self.last_stable_offset()),
        }
    }

    // ------------------------------------------------------------------
    // Metadata
    // ------------------------------------------------------------------

    /// Offset at which the next append will land (LEO).
    pub fn log_end(&self) -> Offset {
        self.next_offset
    }

    /// Earliest addressable offset.
    pub fn log_start(&self) -> Offset {
        self.log_start
    }

    /// Replication high watermark (records below it are commit-durable).
    pub fn high_watermark(&self) -> Offset {
        self.high_watermark
    }

    /// Advance the high watermark (replication layer). Never moves backward
    /// and never exceeds the log end.
    pub fn advance_high_watermark(&mut self, to: Offset) -> Result<(), LogError> {
        self.high_watermark = self.high_watermark.max(to.min(self.next_offset));
        self.disk_checkpoint()
    }

    /// First offset still covered by an open transaction, or the log end if
    /// none — everything strictly below is "stable" (decided).
    pub fn last_stable_offset(&self) -> Offset {
        self.producers.earliest_open_txn_offset().unwrap_or(self.next_offset)
    }

    /// The aborted-transaction index (visible for tests and the consumer
    /// client simulation).
    pub fn aborted_txns(&self) -> &[AbortedTxn] {
        &self.aborted.list
    }

    /// Maximum record timestamp ever appended.
    pub fn max_timestamp(&self) -> i64 {
        self.max_timestamp
    }

    /// Direct record access (tests / state restore).
    pub fn get(&self, offset: Offset) -> Option<&Record> {
        self.segments
            .iter_from(offset)
            .next()
            .and_then(|b| b.entries.iter().find(|(o, _)| *o == offset).map(|(_, r)| r))
    }

    /// Number of data records currently retained (excludes control markers).
    pub fn record_count(&self) -> usize {
        self.segments
            .iter_from(self.log_start())
            .filter(|b| !b.meta.is_control())
            .map(StoredBatch::len)
            .sum()
    }

    /// Total approximate bytes retained.
    pub fn size_bytes(&self) -> usize {
        self.segments.iter_from(self.log_start()).map(StoredBatch::approximate_size).sum()
    }

    /// Per-producer state (tests; leader-failover simulation).
    pub fn producer_state(&self) -> &ProducerStateTable {
        &self.producers
    }

    /// Iterate all retained batches in offset order.
    pub fn batches(&self) -> impl Iterator<Item = &StoredBatch> {
        self.segments.iter_from(i64::MIN)
    }

    /// The batch at the log end — after a successful append, the batch it
    /// stored, which is what the replication layer hands to followers.
    pub fn last_batch(&self) -> Option<&StoredBatch> {
        self.segments.last()
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// Delete whole batches entirely below `new_start` (repartition-topic
    /// purging / retention, §3.2). The high watermark and producer state are
    /// unaffected.
    pub fn truncate_prefix(&mut self, new_start: Offset) -> Result<(), LogError> {
        let new_start = new_start.min(self.next_offset);
        if new_start <= self.log_start {
            return Ok(());
        }
        let cut = self.segments.truncate_prefix(new_start);
        self.log_start = new_start;
        if let Some(d) = self.disk.as_mut() {
            d.truncate(&cut, &self.segments)?;
        }
        self.disk_checkpoint()
    }

    /// Truncate the log suffix so that `log_end <= to` (follower divergence
    /// repair after leader change). Also rolls back watermark bookkeeping.
    pub fn truncate_suffix(&mut self, to: Offset) -> Result<(), LogError> {
        let cut = self.segments.truncate_suffix(to);
        self.next_offset = self
            .segments
            .last_offset()
            .map_or_else(|| self.log_start.min(to.max(self.log_start)), |o| o + 1);
        self.high_watermark = self.high_watermark.min(self.next_offset);
        // The rescan rebuilds the aborted index from the surviving markers.
        self.recover_producer_state();
        if let Some(d) = self.disk.as_mut() {
            d.truncate(&cut, &self.segments)?;
        }
        self.disk_checkpoint()?;
        // The old snapshot may describe truncated-away state; rewrite it
        // from the freshly rebuilt table.
        self.disk_snapshot()
    }

    /// First offset to retain under the given policies, or `None` when
    /// nothing expires. Whole batches expire together (Kafka deletes whole
    /// segments; we are finer-grained but keep batch granularity):
    ///
    /// * `retention_ms`: batches whose max timestamp is older than
    ///   `now - retention_ms` expire,
    /// * `retention_bytes`: oldest batches expire until the retained size
    ///   fits the budget.
    ///
    /// Only stable data (below min(HW, LSO)) is considered so an open
    /// transaction is never cut.
    pub fn retention_cutoff(
        &self,
        now_ms: i64,
        retention_ms: Option<i64>,
        retention_bytes: Option<usize>,
    ) -> Option<Offset> {
        let stable = self.high_watermark.min(self.last_stable_offset());
        let mut cutoff: Option<Offset> = None;
        if let Some(ms) = retention_ms {
            let horizon = now_ms.saturating_sub(ms);
            for batch in self.segments.iter_from(self.log_start) {
                if batch.last_offset() >= stable {
                    break;
                }
                if batch.max_timestamp() < horizon {
                    cutoff = Some(batch.last_offset() + 1);
                } else {
                    break;
                }
            }
        }
        if let Some(budget) = retention_bytes {
            let total: usize =
                self.segments.iter_from(self.log_start).map(StoredBatch::approximate_size).sum();
            let mut excess = total.saturating_sub(budget);
            if excess > 0 {
                for batch in self.segments.iter_from(self.log_start) {
                    if excess == 0 || batch.last_offset() >= stable {
                        break;
                    }
                    excess = excess.saturating_sub(batch.approximate_size());
                    let candidate = batch.last_offset() + 1;
                    if cutoff.is_none_or(|c| candidate > c) {
                        cutoff = Some(candidate);
                    }
                }
            }
        }
        cutoff.filter(|&c| c > self.log_start)
    }

    /// Rebuild producer dedup state and the aborted-transaction index by
    /// scanning the retained log — simulates a broker restart / new leader
    /// election (§4.1, §4.2.1).
    pub fn recover_producer_state(&mut self) {
        let batches: Vec<&StoredBatch> = self.segments.iter_from(i64::MIN).collect();
        // Rebuild aborted index from markers.
        let mut aborted = AbortedIndex::default();
        let mut open: std::collections::HashMap<ProducerId, Offset> =
            std::collections::HashMap::new();
        for b in &batches {
            if b.meta.producer_id < 0 {
                continue;
            }
            match b.meta.control {
                Some(ControlType::Abort) => {
                    if let Some(first) = open.remove(&b.meta.producer_id) {
                        aborted.push(AbortedTxn {
                            producer_id: b.meta.producer_id,
                            first_offset: first,
                            marker_offset: b.base_offset(),
                        });
                    }
                }
                Some(ControlType::Commit) => {
                    open.remove(&b.meta.producer_id);
                }
                None => {
                    if b.meta.transactional {
                        open.entry(b.meta.producer_id).or_insert_with(|| b.base_offset());
                    }
                }
            }
        }
        self.producers = ProducerStateTable::rebuild_from(batches);
        self.aborted = aborted;
    }

    /// Replace the retained batches (used by compaction), re-forming the
    /// segments. Offsets must be preserved by the caller.
    pub(crate) fn replace_batches(&mut self, batches: Vec<StoredBatch>) -> Result<(), LogError> {
        let old_bases: Vec<Offset> = self.segment_bases().collect();
        self.segments.rebuild(batches);
        if let Some(d) = self.disk.as_mut() {
            d.rewrite(&old_bases, &self.segments)?;
        }
        // Refresh the snapshot at the log end: compaction may have removed
        // suffix batches a snapshot-seeded replay would otherwise need.
        self.disk_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs(n: usize, ts0: i64) -> Vec<Record> {
        (0..n).map(|i| Record::of_str("k", &format!("v{i}"), ts0 + i as i64)).collect()
    }

    #[test]
    fn append_assigns_dense_offsets() {
        let mut log = PartitionLog::new();
        let a = log.append(BatchMeta::plain(), recs(3, 0)).unwrap();
        assert_eq!((a.base_offset, a.last_offset), (0, 2));
        let b = log.append(BatchMeta::plain(), recs(2, 10)).unwrap();
        assert_eq!((b.base_offset, b.last_offset), (3, 4));
        assert_eq!(log.log_end(), 5);
        assert_eq!(log.high_watermark(), 5);
    }

    #[test]
    fn failed_disk_append_finishes_its_span() {
        if !kobs::ENABLED {
            return;
        }
        let dir = std::env::temp_dir().join(format!("klog-span-leak-{}", std::process::id()));
        let mut log = PartitionLog::new();
        log.attach_disk(DiskLog::open_clean(DiskConfig::at(&dir)).unwrap());
        // The directory goes away under the disk: the first segment's file
        // cannot be created.
        std::fs::remove_dir_all(&dir).unwrap();

        let cycle = kobs::span!(0, "kstreams", "cycle");
        let entered = kobs::ktrace::enter(cycle);
        let result = log.append(BatchMeta::plain(), recs(2, 0));
        drop(entered);
        kobs::ktrace::finish_span(cycle, 0);
        assert!(matches!(result, Err(LogError::Io(_))), "{result:?}");

        // The span store is process-global: this cycle's spans are those
        // under its root.
        let in_cycle = |span: &kobs::Span| Some(span.root) == cycle.id();
        let finished = kobs::ktrace::finished_spans();
        let tree: Vec<_> = finished.iter().filter(|s| in_cycle(s)).map(|s| s.name).collect();
        assert_eq!(tree, ["cycle", "append"], "the failing span is in the finished tree");
        assert!(!kobs::ktrace::active_spans().iter().any(in_cycle), "a span was left active");
    }

    #[test]
    fn a_storage_error_is_returned_not_raised() {
        // Every mutation that reaches the disk reports a vanished directory
        // as a typed error; none panics.
        let dir = std::env::temp_dir().join(format!("klog-io-errors-{}", std::process::id()));
        let mut log = PartitionLog::new().with_managed_watermark();
        log.attach_disk(DiskLog::open_clean(DiskConfig::at(&dir).with_roll_records(2)).unwrap());
        for ts in 0..4 {
            log.append(BatchMeta::plain(), recs(2, ts)).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
        let io = |r: Result<(), LogError>| matches!(r, Err(LogError::Io(_)));
        assert!(io(log.advance_high_watermark(8)), "advance_high_watermark");
        assert!(io(log.truncate_prefix(3)), "truncate_prefix");
        assert!(io(log.truncate_suffix(5)), "truncate_suffix");
        let compacted = crate::compaction::compact(&mut log);
        assert!(matches!(compacted, Err(LogError::Io(_))), "compact: {compacted:?}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "attach_disk needs an empty log")]
    fn attach_disk_refuses_a_non_empty_log() {
        // Its batches would never reach the disk; `resync_disk` is the way.
        let dir = std::env::temp_dir().join(format!("klog-attach-full-{}", std::process::id()));
        let disk = DiskLog::open_clean(DiskConfig::at(&dir)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let mut log = PartitionLog::new();
        log.append(BatchMeta::plain(), recs(1, 0)).unwrap();
        log.attach_disk(disk);
    }

    #[test]
    fn empty_batch_rejected() {
        let mut log = PartitionLog::new();
        assert!(matches!(log.append(BatchMeta::plain(), vec![]), Err(LogError::CorruptBatch(_))));
    }

    #[test]
    fn idempotent_duplicate_not_reappended() {
        let mut log = PartitionLog::new();
        let first = log.append(BatchMeta::idempotent(1, 0, 0), recs(3, 0)).unwrap();
        assert!(!first.duplicate);
        // Retry of the same batch (same pid/epoch/base sequence).
        let retry = log.append(BatchMeta::idempotent(1, 0, 0), recs(3, 0)).unwrap();
        assert!(retry.duplicate);
        assert_eq!(retry.base_offset, first.base_offset);
        assert_eq!(log.log_end(), 3, "duplicate must not grow the log");
    }

    #[test]
    fn sequence_gap_rejected() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::idempotent(1, 0, 0), recs(1, 0)).unwrap();
        assert!(matches!(
            log.append(BatchMeta::idempotent(1, 0, 5), recs(1, 0)),
            Err(LogError::OutOfOrderSequence { .. })
        ));
    }

    #[test]
    fn fenced_producer_rejected() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::idempotent(1, 3, 0), recs(1, 0)).unwrap();
        assert!(matches!(
            log.append(BatchMeta::idempotent(1, 2, 1), recs(1, 0)),
            Err(LogError::ProducerFenced { .. })
        ));
    }

    #[test]
    fn fetch_returns_appended_records() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::plain(), recs(5, 100)).unwrap();
        let f = log.fetch(0, 100, IsolationLevel::ReadUncommitted).unwrap();
        assert_eq!(f.count(), 5);
        assert_eq!(f.next_offset, 5);
        let offsets: Vec<Offset> = f.records().map(|(o, _)| o).collect();
        assert_eq!(offsets, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn fetch_respects_max_records_and_resumes() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::plain(), recs(10, 0)).unwrap();
        let f1 = log.fetch(0, 4, IsolationLevel::ReadUncommitted).unwrap();
        assert_eq!(f1.count(), 4);
        assert_eq!(f1.next_offset, 4);
        let f2 = log.fetch(f1.next_offset, 100, IsolationLevel::ReadUncommitted).unwrap();
        assert_eq!(f2.count(), 6);
    }

    #[test]
    fn fetch_bounded_by_high_watermark() {
        let mut log = PartitionLog::new().with_managed_watermark();
        log.append(BatchMeta::plain(), recs(5, 0)).unwrap();
        // HW still 0: nothing visible.
        let f = log.fetch(0, 100, IsolationLevel::ReadUncommitted).unwrap();
        assert_eq!(f.count(), 0);
        log.advance_high_watermark(3).unwrap();
        let f = log.fetch(0, 100, IsolationLevel::ReadUncommitted).unwrap();
        assert_eq!(f.count(), 3);
        assert_eq!(f.high_watermark, 3);
    }

    #[test]
    fn read_committed_blocks_on_open_txn() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::transactional(9, 0, 0), recs(3, 0)).unwrap();
        assert_eq!(log.last_stable_offset(), 0);
        let rc = log.fetch(0, 100, IsolationLevel::ReadCommitted).unwrap();
        assert_eq!(rc.count(), 0, "open txn data must be invisible");
        let ru = log.fetch(0, 100, IsolationLevel::ReadUncommitted).unwrap();
        assert_eq!(ru.count(), 3, "read-uncommitted sees it");
    }

    #[test]
    fn commit_marker_releases_records() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::transactional(9, 0, 0), recs(3, 0)).unwrap();
        let marker = log.append_control(9, 0, ControlType::Commit, 10).unwrap();
        assert_eq!(marker, 3);
        assert_eq!(log.last_stable_offset(), 4);
        let rc = log.fetch(0, 100, IsolationLevel::ReadCommitted).unwrap();
        assert_eq!(rc.count(), 3);
        // Consumer's position must advance past the marker.
        assert_eq!(rc.next_offset, 4);
    }

    #[test]
    fn abort_marker_hides_records_from_read_committed() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::transactional(9, 0, 0), recs(3, 0)).unwrap();
        log.append_control(9, 0, ControlType::Abort, 10).unwrap();
        let rc = log.fetch(0, 100, IsolationLevel::ReadCommitted).unwrap();
        assert_eq!(rc.count(), 0, "aborted data invisible to read-committed");
        assert_eq!(rc.next_offset, 4, "position must advance past aborted txn");
        // Read-uncommitted still sees aborted data (like real Kafka).
        let ru = log.fetch(0, 100, IsolationLevel::ReadUncommitted).unwrap();
        assert_eq!(ru.count(), 3);
        assert_eq!(log.aborted_txns().len(), 1);
    }

    #[test]
    fn interleaved_txns_lso_tracks_earliest_open() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::transactional(1, 0, 0), recs(1, 0)).unwrap(); // off 0
        log.append(BatchMeta::transactional(2, 0, 0), recs(1, 0)).unwrap(); // off 1
        assert_eq!(log.last_stable_offset(), 0);
        log.append_control(1, 0, ControlType::Commit, 0).unwrap(); // off 2
                                                                   // Producer 2 still open from offset 1.
        assert_eq!(log.last_stable_offset(), 1);
        let rc = log.fetch(0, 100, IsolationLevel::ReadCommitted).unwrap();
        assert_eq!(rc.count(), 1, "only producer 1's record visible");
        log.append_control(2, 0, ControlType::Commit, 0).unwrap(); // off 3
        assert_eq!(log.last_stable_offset(), 4);
        let rc = log.fetch(0, 100, IsolationLevel::ReadCommitted).unwrap();
        assert_eq!(rc.count(), 2);
    }

    #[test]
    fn committed_then_aborted_interleaving_filters_correctly() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::transactional(1, 0, 0), recs(2, 0)).unwrap(); // 0-1 commit
        log.append(BatchMeta::transactional(2, 0, 0), recs(2, 0)).unwrap(); // 2-3 abort
        log.append(BatchMeta::plain(), recs(1, 0)).unwrap(); // 4 plain
        log.append_control(2, 0, ControlType::Abort, 0).unwrap(); // 5
        log.append_control(1, 0, ControlType::Commit, 0).unwrap(); // 6
        let rc = log.fetch(0, 100, IsolationLevel::ReadCommitted).unwrap();
        let offsets: Vec<Offset> = rc.records().map(|(o, _)| o).collect();
        assert_eq!(offsets, vec![0, 1, 4]);
    }

    #[test]
    fn fetch_from_log_end_is_empty_not_error() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::plain(), recs(2, 0)).unwrap();
        let f = log.fetch(2, 100, IsolationLevel::ReadUncommitted).unwrap();
        assert_eq!(f.count(), 0);
        assert_eq!(f.next_offset, 2);
    }

    #[test]
    fn fetch_beyond_log_end_errors() {
        let log = PartitionLog::new();
        assert!(matches!(
            log.fetch(1, 100, IsolationLevel::ReadUncommitted),
            Err(LogError::OffsetOutOfRange { .. })
        ));
    }

    #[test]
    fn truncate_prefix_drops_old_batches() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::plain(), recs(3, 0)).unwrap();
        log.append(BatchMeta::plain(), recs(3, 0)).unwrap();
        log.truncate_prefix(3).unwrap();
        assert_eq!(log.log_start(), 3);
        assert!(matches!(
            log.fetch(0, 100, IsolationLevel::ReadUncommitted),
            Err(LogError::OffsetOutOfRange { .. })
        ));
        let f = log.fetch(3, 100, IsolationLevel::ReadUncommitted).unwrap();
        assert_eq!(f.count(), 3);
    }

    #[test]
    fn truncate_suffix_rolls_back() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::plain(), recs(3, 0)).unwrap();
        log.append(BatchMeta::plain(), recs(3, 0)).unwrap();
        log.truncate_suffix(3).unwrap();
        assert_eq!(log.log_end(), 3);
        assert_eq!(log.high_watermark(), 3);
    }

    #[test]
    fn recovery_rebuilds_dedup_and_aborted_index() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::idempotent(1, 0, 0), recs(2, 0)).unwrap();
        log.append(BatchMeta::transactional(2, 0, 0), recs(2, 0)).unwrap();
        log.append_control(2, 0, ControlType::Abort, 0).unwrap();
        let aborted_before = log.aborted_txns().to_vec();
        log.recover_producer_state();
        assert_eq!(log.aborted_txns(), aborted_before.as_slice());
        // Dedup survives recovery: the same retry is still a duplicate.
        let retry = log.append(BatchMeta::idempotent(1, 0, 0), recs(2, 0)).unwrap();
        assert!(retry.duplicate);
    }

    /// A log holding `aborts` aborted one-record transactions of producer 7,
    /// then a full segment of plain records, then one committed transaction
    /// of 32 batches from the same producer in a fresh segment. Returns the
    /// log and the offset that transaction starts at.
    fn log_after_aborts(aborts: usize) -> (PartitionLog, Offset) {
        let mut log = PartitionLog::new();
        let mut seq = 0;
        for _ in 0..aborts {
            log.append(BatchMeta::transactional(7, 0, seq), recs(1, 0)).unwrap();
            log.append_control(7, 0, ControlType::Abort, 0).unwrap();
            seq += 1;
        }
        log.append(BatchMeta::plain(), recs(crate::segment::SEGMENT_ROLL_RECORDS, 0)).unwrap();
        let start = log.log_end();
        for _ in 0..32 {
            log.append(BatchMeta::transactional(7, 0, seq), recs(2, 0)).unwrap();
            seq += 2;
        }
        log.append_control(7, 0, ControlType::Commit, 0).unwrap();
        assert_eq!(log.aborted_txns().len(), aborts);
        (log, start)
    }

    /// Median wall time of a fetch from `from` that returns `want` records.
    fn median_fetch_ns(
        log: &PartitionLog,
        from: Offset,
        isolation: IsolationLevel,
        want: usize,
    ) -> u128 {
        let mut rounds: Vec<u128> = (0..301)
            .map(|_| {
                let started = std::time::Instant::now();
                let fetched = log.fetch(from, 1_000, isolation).unwrap();
                let ns = started.elapsed().as_nanos();
                assert_eq!(fetched.count(), want);
                ns
            })
            .collect();
        rounds.sort_unstable();
        rounds[rounds.len() / 2]
    }

    #[test]
    fn read_committed_fetch_cost_does_not_grow_with_abort_history() {
        let committed_fetch_ns = |log: &PartitionLog, from| {
            median_fetch_ns(log, from, IsolationLevel::ReadCommitted, 64)
        };
        let (few, few_from) = log_after_aborts(10);
        let (many, many_from) = log_after_aborts(100_000);
        let (few_ns, many_ns) =
            (committed_fetch_ns(&few, few_from), committed_fetch_ns(&many, many_from));
        eprintln!("read-committed fetch: {few_ns} ns after 10 aborts, {many_ns} ns after 10^5");
        assert!(
            many_ns <= 3 * few_ns.max(1),
            "fetch after 10^5 aborts took {many_ns} ns, after 10 aborts {few_ns} ns"
        );
    }

    /// A log whose one (active) segment holds `fill` records in 2-record
    /// batches. Returns the log and the offset its newest batch starts at.
    fn log_with_active_fill(fill: usize) -> (PartitionLog, Offset) {
        assert!(fill < crate::segment::SEGMENT_ROLL_RECORDS);
        let mut log = PartitionLog::new();
        for _ in 0..fill / 2 {
            log.append(BatchMeta::plain(), recs(2, 0)).unwrap();
        }
        assert_eq!(log.segment_bases().count(), 1);
        let newest = log.log_end() - 2;
        (log, newest)
    }

    /// The paced read path fetches the newest small batch of a partition
    /// over and over: positioning that walked the active segment made that
    /// fetch grow with the segment's fill (from 100 to 4 000 records, ~21x
    /// in a release build, ~27x in a debug build).
    #[test]
    fn fetch_cost_does_not_grow_with_segment_fill() {
        let newest_fetch_ns = |log: &PartitionLog, from| {
            median_fetch_ns(log, from, IsolationLevel::ReadUncommitted, 2)
        };
        let (sparse, sparse_from) = log_with_active_fill(100);
        let (full, full_from) = log_with_active_fill(4_000);
        let (sparse_ns, full_ns) =
            (newest_fetch_ns(&sparse, sparse_from), newest_fetch_ns(&full, full_from));
        eprintln!("newest-batch fetch: {sparse_ns} ns at 100 records, {full_ns} ns at 4000");
        assert!(
            full_ns <= 3 * sparse_ns.max(1),
            "fetch at 4000 records took {full_ns} ns, at 100 records {sparse_ns} ns"
        );
    }

    #[test]
    fn get_by_offset() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::plain(), recs(3, 7)).unwrap();
        assert_eq!(log.get(1).unwrap().timestamp, 8);
        assert!(log.get(99).is_none());
    }

    #[test]
    fn record_count_excludes_markers() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::transactional(1, 0, 0), recs(2, 0)).unwrap();
        log.append_control(1, 0, ControlType::Commit, 0).unwrap();
        assert_eq!(log.record_count(), 2);
        assert_eq!(log.log_end(), 3);
    }

    #[test]
    fn marker_without_open_txn_is_tolerated() {
        let mut log = PartitionLog::new();
        let off = log.append_control(5, 0, ControlType::Commit, 0).unwrap();
        assert_eq!(off, 0);
        assert!(log.aborted_txns().is_empty());
    }

    #[test]
    fn control_batch_via_append_rejected() {
        let mut log = PartitionLog::new();
        let meta = BatchMeta::control(1, 0, ControlType::Commit);
        assert!(matches!(log.append(meta, recs(1, 0)), Err(LogError::CorruptBatch(_))));
    }

    #[test]
    fn stale_epoch_marker_rejected() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::transactional(1, 5, 0), recs(1, 0)).unwrap();
        assert!(matches!(
            log.append_control(1, 4, ControlType::Commit, 0),
            Err(LogError::ProducerFenced { .. })
        ));
    }
}

#[cfg(test)]
mod retention_cutoff_tests {
    use super::*;

    fn recs_at(ts: i64, n: usize) -> Vec<Record> {
        (0..n).map(|_| Record::of_str("k", "some-payload", ts)).collect()
    }

    #[test]
    fn no_policy_no_cutoff() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::plain(), recs_at(0, 3)).unwrap();
        assert_eq!(log.retention_cutoff(1_000_000, None, None), None);
    }

    #[test]
    fn time_policy_expires_old_batches_only() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::plain(), recs_at(0, 2)).unwrap(); // 0-1
        log.append(BatchMeta::plain(), recs_at(500, 2)).unwrap(); // 2-3
        log.append(BatchMeta::plain(), recs_at(900, 2)).unwrap(); // 4-5
                                                                  // now=1000, retention=400 ⇒ horizon 600: first two batches expire.
        assert_eq!(log.retention_cutoff(1_000, Some(400), None), Some(4));
        // Everything still fresh ⇒ nothing expires.
        assert_eq!(log.retention_cutoff(1_000, Some(2_000), None), None);
    }

    #[test]
    fn time_policy_stops_at_first_fresh_batch() {
        // An old batch AFTER a fresh one must not expire (prefix-only).
        let mut log = PartitionLog::new();
        log.append(BatchMeta::plain(), recs_at(900, 1)).unwrap();
        log.append(BatchMeta::plain(), recs_at(0, 1)).unwrap(); // out of order
        assert_eq!(log.retention_cutoff(1_000, Some(500), None), None);
    }

    #[test]
    fn size_policy_trims_to_budget() {
        let mut log = PartitionLog::new();
        for i in 0..10 {
            log.append(BatchMeta::plain(), recs_at(i, 1)).unwrap();
        }
        let total = log.size_bytes();
        let one_batch = total / 10;
        let cutoff = log.retention_cutoff(100, None, Some(total - one_batch)).expect("must trim");
        assert!(cutoff >= 1);
        log.truncate_prefix(cutoff).unwrap();
        assert!(log.size_bytes() <= total - one_batch + one_batch);
    }

    #[test]
    fn open_transaction_pins_the_prefix() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::transactional(1, 0, 0), recs_at(0, 2)).unwrap();
        log.append(BatchMeta::plain(), recs_at(0, 2)).unwrap();
        // LSO = 0 while the txn is open: nothing is stable to expire.
        assert_eq!(log.retention_cutoff(1_000_000, Some(1), None), None);
        log.append_control(1, 0, ControlType::Commit, 0).unwrap();
        assert!(log.retention_cutoff(1_000_000, Some(1), None).is_some());
    }

    #[test]
    fn cutoff_never_below_log_start() {
        let mut log = PartitionLog::new();
        log.append(BatchMeta::plain(), recs_at(0, 4)).unwrap();
        log.truncate_prefix(4).unwrap();
        assert_eq!(log.retention_cutoff(1_000_000, Some(1), None), None);
    }
}
