//! ktrace — deterministic hierarchical spans over the virtual clock, kept
//! with the events in one store.
//!
//! A [`Span`] is a named interval on a *track* (one row in the exported
//! timeline: `kstreams`, `task`, `kbroker.txn`, `klog`), with an optional
//! parent forming a causal tree per commit cycle; an event
//! ([`crate::event!`]) is a zero-duration record of the same type. Ids come
//! from one per-run counter (reset by [`crate::reset`]) and timestamps are
//! virtual µs (the simulation clock's `now_ms` × 1000), so a replayed seed
//! produces byte-identical trees and chrome JSON.
//!
//! A tree is built on the thread that runs it — an instance runs on the
//! thread that steps it — with no lock and, once the thread's buffers are
//! warm, no allocation: open spans sit on a per-thread stack, and finished
//! spans and events wait in a per-thread buffer until their root finishes.
//! Then the whole tree reaches the one bounded ring under one lock, in
//! finish order, or — for a root finished with [`finish_or_discard`] that
//! holds no child span and no event — is dropped without touching it. Evictions from the
//! ring count into `kobs.trace.dropped`. The rest reads the ring, or is
//! summed once per tree as its root finishes:
//!
//! - the **critical-path analyzer**: a commit-cycle tree folds its per-phase
//!   *self times* (duration minus direct children) into a summary and the
//!   `kobs.critical_path.*` histograms; self times tile the tree, so they
//!   sum to the cycle total.
//! - the **flight recorder** ([`recent_trees`]), the events' [`tail`], and
//!   the **chrome exporter** ([`crate::trace_export::chrome_json`] over
//!   [`finished_spans`]).
//!
//! Under the `off` feature every entry point is a no-op, field closures
//! never run, and the macros cost nothing.

use crate::trace::Fields;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Finished spans and events retained; older records are evicted FIFO and
/// counted in `kobs.trace.dropped`. A 300-step simtest run stays under a
/// tenth of it; a benchmark run keeps only its tail, as resident memory
/// (176 bytes a record, 2.9 MB in all).
pub const SPAN_CAPACITY: usize = 1 << 14;

/// How many of the newest span trees a flight-recorder dump reads.
pub const FLIGHT_RECORDER_TREES: usize = 32;

/// One completed (or in-flight) span, or an event.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Per-run monotone id (1-based; ids order records by start).
    pub id: u64,
    /// Direct parent span id, if any.
    pub parent: Option<u64>,
    /// Root id of the tree this record belongs to (== `id` for roots).
    pub root: u64,
    /// Span name (`cycle`, `task`, `fetch`, `commit`, ...), or event kind.
    pub name: &'static str,
    /// Timeline row (`kstreams`, `task`, `kbroker.txn`, `klog`), or the
    /// component that emitted the event.
    pub track: &'static str,
    /// Virtual start, microseconds.
    pub start_us: i64,
    /// Virtual end, microseconds (>= `start_us`).
    pub end_us: i64,
    /// Structured fields attached at span start or event emission.
    pub fields: Fields,
    /// An event: stamped at its own time, never a root, and no part of
    /// its parent's timing or critical path.
    pub event: bool,
}

impl Span {
    /// Inclusive virtual duration in microseconds.
    pub fn duration_us(&self) -> i64 {
        self.end_us - self.start_us
    }
}

/// Copyable reference to a started span. [`SpanHandle::NONE`] is the
/// disabled/absent handle; every operation on it is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanHandle {
    id: u64,
}

impl SpanHandle {
    /// The disabled/absent handle; every operation on it is a no-op.
    pub const NONE: SpanHandle = SpanHandle { id: u64::MAX };

    /// Whether this is the disabled handle.
    pub fn is_none(self) -> bool {
        self.id == u64::MAX
    }

    /// The raw span id (`None` for the disabled handle).
    pub fn id(self) -> Option<u64> {
        (!self.is_none()).then_some(self.id)
    }
}

/// Parent selector for [`start_span`].
#[derive(Debug, Clone, Copy)]
pub enum Parent {
    /// A new root (one tree per commit cycle).
    Root,
    /// Child of the calling thread's innermost entered span (root if none).
    Current,
}

/// One span tree read from the ring: its records still there, in id order,
/// so the root comes first and events sit inline.
pub type SpanTree = Vec<Span>;

/// Aggregate critical-path accounting over every commit cycle of the run.
#[derive(Debug, Clone, Default)]
pub struct CriticalPathSummary {
    /// Commit cycles analyzed (cycle trees containing a `commit` span).
    pub cycles: u64,
    /// Summed cycle-root duration, µs.
    pub total_us: i64,
    /// Per-phase self time summed over all commit cycles, name-ordered.
    /// Self times tile each tree, so these sum back to `total_us`.
    pub phases: Vec<(&'static str, i64)>,
    /// Longest causal chain (span names, root first) of the single
    /// longest commit cycle observed.
    pub longest_chain: Vec<&'static str>,
    /// Duration of that longest cycle, µs.
    pub longest_cycle_us: i64,
}

/// A record of a tree still being built: the span, and once it finished,
/// its self time and longest direct child.
#[cfg_attr(feature = "off", allow(dead_code))]
struct Slot {
    span: Span,
    /// Duration minus the direct children's (0 for an event).
    self_us: i64,
    /// Slot of the longest finished direct child.
    longest: Option<u32>,
}

/// A started span's place and running totals on its thread's open stack.
#[cfg_attr(feature = "off", allow(dead_code))]
struct Open {
    id: u64,
    slot: u32,
    /// Raised by finishing children so a parent can never end before the
    /// intervals nested inside it.
    min_end_us: i64,
    /// How far [`start_span`] moved the start past its earlier siblings;
    /// [`finish_span`] moves the end by as much.
    shift_us: i64,
    /// Summed durations of the finished direct children.
    child_us: i64,
    /// The longest finished direct child: duration, id and slot.
    longest: Option<(i64, u64, u32)>,
}

/// The calling thread's trees: every record started since no span was
/// last open, in start order (a delivered record leaves an empty slot), the
/// open stack, the entered stack, and the finished slots in finish order.
/// Slots never move while a span is open, and all are cleared at once when
/// none is, so a thread's buffers stop growing once warm.
#[cfg_attr(feature = "off", allow(dead_code))]
struct Local {
    slots: Vec<Option<Slot>>,
    open: Vec<Open>,
    entered: Vec<u64>,
    finished: Vec<u32>,
}

#[cfg_attr(feature = "off", allow(dead_code))]
impl Local {
    const fn new() -> Self {
        Self { slots: Vec::new(), open: Vec::new(), entered: Vec::new(), finished: Vec::new() }
    }

    fn open(&mut self, id: u64) -> Option<&mut Open> {
        self.open.iter_mut().rev().find(|o| o.id == id)
    }

    fn span(&self, slot: u32) -> Option<&Span> {
        self.slots[slot as usize].as_ref().map(|s| &s.span)
    }

    /// Id, parent and root of a new record under `parent` — if that is
    /// still open: an entered span that already finished degrades it to a
    /// root — and the earliest start the parent's finished children leave
    /// it (`None` for a root).
    fn place(&mut self, parent: Option<u64>) -> (u64, Option<u64>, u64, Option<i64>) {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed) + 1;
        let Some(pa) = parent.and_then(|p| self.open(p)) else {
            return (id, None, id, None);
        };
        let (parent, slot, floor) = (pa.id, pa.slot, pa.min_end_us);
        let root = self.span(slot).map_or(parent, |pa| pa.root);
        (id, Some(parent), root, Some(floor))
    }

    /// The finished records of the tree rooted at span `root`, in finish
    /// order.
    fn finished_in(&self, root: u64) -> impl Iterator<Item = &Slot> {
        let slots = self.finished.iter().filter_map(|&at| self.slots[at as usize].as_ref());
        slots.filter(move |s| s.span.root == root)
    }

    /// Store a new record in the next slot.
    fn push(&mut self, span: Span) -> u32 {
        let slot = self.slots.len() as u32;
        self.slots.push(Some(Slot { span, self_us: 0, longest: None }));
        slot
    }

    /// A finished record whose root has finished too (or, for an event,
    /// that has no parent) goes to the ring alone: nothing else will
    /// deliver it.
    fn deliver_if_orphan(&mut self, slot: u32) {
        let root = self.span(slot).map_or(0, |s| s.root);
        if self.open(root).is_none() {
            if let Some(record) = self.slots[slot as usize].take() {
                lock().push(record.span);
            }
            self.settle();
        }
    }

    /// Empty the buffers once no span is open.
    fn settle(&mut self) {
        if self.open.is_empty() {
            self.slots.clear();
            self.finished.clear();
        }
    }
}

/// The shared half: the ring and what is summed over whole trees.
#[derive(Default)]
#[cfg_attr(feature = "off", allow(dead_code))]
struct Store {
    /// Finished spans and events, in finish order: the one trace store.
    ring: VecDeque<Span>,
    /// Records evicted from `ring`.
    dropped: u64,
    cp: CriticalPathSummary,
    /// `kobs.critical_path.<phase>_ms` by phase, built once per name.
    phase_metrics: Vec<(&'static str, String)>,
}

#[cfg_attr(feature = "off", allow(dead_code))]
impl Store {
    fn push(&mut self, record: Span) {
        if self.ring.len() == SPAN_CAPACITY {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(record);
    }

    fn phase_metric(&mut self, name: &'static str) -> &str {
        let at = match self.phase_metrics.binary_search_by_key(&name, |(n, _)| n) {
            Ok(at) => at,
            Err(at) => {
                self.phase_metrics.insert(at, (name, format!("kobs.critical_path.{name}_ms")));
                at
            }
        };
        &self.phase_metrics[at].1
    }
}

/// Ids of the current run; [`clear`] restarts them at 1.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

fn lock() -> MutexGuard<'static, Store> {
    static STORE: Mutex<Store> = Mutex::new(Store {
        ring: VecDeque::new(),
        dropped: 0,
        cp: CriticalPathSummary {
            cycles: 0,
            total_us: 0,
            phases: Vec::new(),
            longest_chain: Vec::new(),
            longest_cycle_us: 0,
        },
        phase_metrics: Vec::new(),
    });
    STORE.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    static LOCAL: RefCell<Local> = const { RefCell::new(Local::new()) };
}

/// Start a span. `start_us` is virtual microseconds. A child starts no
/// earlier than its parent's latest finished child (which is no earlier
/// than the parent's own start): siblings run one after another on the
/// thread that entered the parent, so they must tile it rather than
/// overlap. Such a child is *moved*, not squeezed — [`finish_span`] shifts
/// its end by the same amount — because the span timeline runs ahead of
/// the clock its call sites stamp from (record-timestamped klog appends),
/// and squeezing would bill that lead to whichever span comes next. The
/// `fields` closure only runs when tracing is compiled in.
#[allow(unused_variables)]
pub fn start_span<F>(
    start_us: i64,
    track: &'static str,
    parent: Parent,
    name: &'static str,
    fields: F,
) -> SpanHandle
where
    F: FnOnce() -> Fields,
{
    #[cfg(not(feature = "off"))]
    {
        #[allow(clippy::needless_return)]
        return LOCAL.with_borrow_mut(|local| {
            let parent = match parent {
                Parent::Root => None,
                Parent::Current => local.entered.last().copied(),
            };
            let (id, parent, root, floor) = local.place(parent);
            let floor = floor.unwrap_or(start_us);
            let shift_us = (floor - start_us).max(0);
            let start_us = start_us.max(floor);
            let fields = fields();
            let span = Span {
                id,
                parent,
                root,
                name,
                track,
                start_us,
                end_us: start_us,
                fields,
                event: false,
            };
            let slot = local.push(span);
            local.open.push(Open {
                id,
                slot,
                min_end_us: start_us,
                shift_us,
                child_us: 0,
                longest: None,
            });
            SpanHandle { id }
        });
    }
    #[cfg(feature = "off")]
    {
        SpanHandle::NONE
    }
}

/// Finish a span at `end_us` (virtual µs). The end is clamped so it never
/// precedes the span's start or any finished child's end. The span's
/// duration passes to its parent; a root's finish delivers its tree to the
/// ring and folds a commit cycle into the critical path.
#[allow(unused_variables)]
pub fn finish_span(handle: SpanHandle, end_us: i64) {
    #[cfg(not(feature = "off"))]
    finish(handle, end_us, true);
}

/// Finish a root as [`finish_span`] does, except that a tree holding
/// nothing but its root — no child span, no event — is dropped without
/// reaching the ring: a cycle that did nothing leaves no trace.
#[allow(unused_variables)]
pub fn finish_or_discard(handle: SpanHandle, end_us: i64) {
    #[cfg(not(feature = "off"))]
    finish(handle, end_us, false);
}

#[cfg(not(feature = "off"))]
fn finish(handle: SpanHandle, end_us: i64, keep: bool) {
    LOCAL.with_borrow_mut(|local| {
        let Some(at) = local.open.iter().rposition(|o| o.id == handle.id) else {
            return;
        };
        let open = local.open.remove(at);
        let slot = local.slots[open.slot as usize].as_mut().expect("an open span keeps its slot");
        let span = &mut slot.span;
        span.end_us = (end_us + open.shift_us).max(open.min_end_us).max(span.start_us);
        let dur = span.duration_us();
        slot.self_us = dur - open.child_us;
        slot.longest = open.longest.map(|(.., child)| child);
        let (id, root, parent, end_us) = (span.id, span.root, span.parent, span.end_us);
        local.finished.push(open.slot);
        if id == root {
            deliver(local, open.slot, keep);
            return;
        }
        if let Some(pa) = parent.and_then(|p| local.open(p)) {
            pa.min_end_us = pa.min_end_us.max(end_us);
            pa.child_us += dur;
            // The longest child wins; the smallest id breaks ties.
            if pa.longest.is_none_or(|(d, longest, _)| (dur, longest) > (d, id)) {
                pa.longest = Some((dur, id, open.slot));
            }
        }
        local.deliver_if_orphan(open.slot);
    });
}

/// Deliver the tree rooted in `root`: its finished records go to the ring
/// under one lock, in finish order, and a commit cycle is folded into the
/// critical path. Unless `keep`, a tree of the root alone is dropped
/// instead. Once no span is open on the thread, its buffers are emptied.
#[cfg(not(feature = "off"))]
fn deliver(local: &mut Local, root: u32, keep: bool) {
    let id = local.span(root).map_or(0, |s| s.id);
    if keep || local.finished_in(id).nth(1).is_some() {
        let mut st = lock();
        if local.finished_in(id).any(|s| s.span.name == "commit" && !s.span.event) {
            account_cycle(&mut st, local, root);
        }
        for &at in &local.finished {
            if let Some(slot) = local.slots[at as usize].take_if(|s| s.span.root == id) {
                st.push(slot.span);
            }
        }
    } else {
        local.slots[root as usize] = None;
    }
    local.settle();
}

/// Fold one commit cycle into the summary. Summed over a tree the child
/// durations telescope, so the phases sum to the root duration *exactly*;
/// self times are non-negative because [`start_span`] makes siblings tile
/// their parent, so nothing is clamped here.
#[cfg(not(feature = "off"))]
fn account_cycle(st: &mut Store, local: &Local, root: u32) {
    let Some(root) = local.slots[root as usize].as_ref() else { return };
    for s in local.finished_in(root.span.id).filter(|s| !s.span.event) {
        let (name, self_us) = (s.span.name, s.self_us);
        match st.cp.phases.binary_search_by_key(&name, |(n, _)| *n) {
            Ok(i) => st.cp.phases[i].1 += self_us,
            Err(i) => st.cp.phases.insert(i, (name, self_us)),
        }
        crate::observe(st.phase_metric(name), self_us.max(0) / 1000);
    }
    let total_us = root.span.duration_us();
    st.cp.cycles += 1;
    st.cp.total_us += total_us;
    crate::observe("kobs.critical_path.total_ms", total_us / 1000);
    if total_us >= st.cp.longest_cycle_us {
        st.cp.longest_cycle_us = total_us;
        let chain = &mut st.cp.longest_chain;
        chain.clear();
        let mut next = Some(root);
        while let Some(s) = next {
            chain.push(s.span.name);
            next = s.longest.and_then(|c| local.slots[c as usize].as_ref());
        }
    }
}

/// Record an event at `ts_us` (virtual µs), under the calling thread's
/// entered span if there is one: it then travels with that span's tree.
#[cfg(not(feature = "off"))]
pub(crate) fn push_event(ts_us: i64, track: &'static str, name: &'static str, fields: Fields) {
    LOCAL.with_borrow_mut(|local| {
        let (id, parent, root, _) = local.place(local.entered.last().copied());
        let (start_us, end_us) = (ts_us, ts_us);
        let span = Span { id, parent, root, name, track, start_us, end_us, fields, event: true };
        let slot = local.push(span);
        local.finished.push(slot);
        local.deliver_if_orphan(slot);
    });
}

/// Enter guard: pops the thread-local current-span stack on drop.
pub struct EnterGuard {
    pushed: bool,
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        if self.pushed {
            LOCAL.with_borrow_mut(|local| local.entered.pop());
        }
    }
}

/// Make `handle` the calling thread's current span until the guard drops;
/// `child_span!` and the klog append probes parent under it.
pub fn enter(handle: SpanHandle) -> EnterGuard {
    if handle.is_none() {
        return EnterGuard { pushed: false };
    }
    LOCAL.with_borrow_mut(|local| local.entered.push(handle.id));
    EnterGuard { pushed: true }
}

/// The calling thread's innermost entered span.
pub fn current() -> SpanHandle {
    LOCAL.with_borrow(|local| {
        local.entered.last().map_or(SpanHandle::NONE, |id| SpanHandle { id: *id })
    })
}

/// Cheap check used by high-frequency probes (klog appends) to skip span
/// creation outside any traced lifecycle.
pub fn in_span() -> bool {
    LOCAL.with_borrow(|local| !local.entered.is_empty())
}

/// Every finished span still in the ring, ascending id.
pub fn finished_spans() -> Vec<Span> {
    let mut spans: Vec<Span> = lock().ring.iter().filter(|r| !r.event).cloned().collect();
    spans.sort_by_key(|s| s.id);
    spans
}

/// The newest `n` events still in the ring, in emission order.
pub fn tail(n: usize) -> Vec<Span> {
    let st = lock();
    let mut events: Vec<Span> = st.ring.iter().rev().filter(|r| r.event).take(n).cloned().collect();
    events.reverse();
    events
}

/// Every span the calling thread started and has not finished, ascending
/// id. A lifecycle that has returned — with or without an error — has none
/// left here.
pub fn active_spans() -> Vec<Span> {
    let mut spans: Vec<Span> = LOCAL.with_borrow(|local| {
        local.open.iter().filter_map(|o| local.span(o.slot)).cloned().collect()
    });
    spans.sort_by_key(|s| s.id);
    spans
}

/// Spans and events evicted from the ring (`kobs.trace.dropped`).
pub fn dropped() -> u64 {
    lock().dropped
}

/// The newest `n` span trees whose root is still in the ring, oldest
/// first.
pub fn recent_trees(n: usize) -> Vec<SpanTree> {
    let st = lock();
    let roots: Vec<&Span> =
        st.ring.iter().rev().filter(|r| !r.event && r.id == r.root).take(n).collect();
    let mut trees: BTreeMap<u64, Vec<Span>> = roots.iter().map(|r| (r.id, Vec::new())).collect();
    for r in &st.ring {
        if let Some(spans) = trees.get_mut(&r.root) {
            spans.push(r.clone());
        }
    }
    let tree = |root: &Span| {
        let mut tree = trees.remove(&root.id).unwrap_or_default();
        tree.sort_by_key(|s| s.id);
        tree
    };
    roots.into_iter().rev().map(tree).collect()
}

/// Aggregate critical-path summary, `None` until a commit cycle finished.
pub fn critical_path_summary() -> Option<CriticalPathSummary> {
    let st = lock();
    (st.cp.cycles > 0).then(|| st.cp.clone())
}

/// Render a span tree as indented text (flight-recorder dumps).
pub fn render_tree(tree: &SpanTree) -> String {
    let mut out = String::new();
    let mut depth: BTreeMap<u64, usize> = BTreeMap::new();
    for s in tree {
        let d = s.parent.and_then(|p| depth.get(&p).copied()).map_or(0, |pd| pd + 1);
        depth.insert(s.id, d);
        let indent = "  ".repeat(d);
        let _ = write!(
            out,
            "{indent}{} [{}..{}us, {}us]",
            s.name,
            s.start_us,
            s.end_us,
            s.duration_us()
        );
        if s.track != tree[0].track {
            let _ = write!(out, " track={}", s.track);
        }
        for (k, v) in s.fields.iter() {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
    }
    out
}

/// Reset the store and the calling thread's spans (run isolation; called
/// from [`crate::reset`]). Ids restart at 1, so a replayed seed reproduces
/// identical trees.
pub fn clear() {
    *lock() = Store::default();
    NEXT_ID.store(0, Ordering::Relaxed);
    LOCAL.with_borrow_mut(|local| *local = Local::new());
}

/// Start a root span from virtual *milliseconds*.
///
/// ```
/// let h = kobs::span!(12, "kstreams", "cycle", step = 3u64);
/// kobs::ktrace::finish_span(h, 14_000);
/// assert_eq!(kobs::ktrace::finished_spans().len(), kobs::ENABLED as usize);
/// # kobs::ktrace::clear();
/// ```
#[macro_export]
macro_rules! span {
    ($ts_ms:expr, $track:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::ktrace::start_span(
            ($ts_ms as i64).saturating_mul(1000),
            $track,
            $crate::ktrace::Parent::Root,
            $name,
            || $crate::fields!($($key = $val),*),
        )
    };
}

/// Start a span under the thread's current entered span (root if none),
/// from virtual milliseconds.
#[macro_export]
macro_rules! child_span {
    ($ts_ms:expr, $track:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::ktrace::start_span(
            ($ts_ms as i64).saturating_mul(1000),
            $track,
            $crate::ktrace::Parent::Current,
            $name,
            || $crate::fields!($($key = $val),*),
        )
    };
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Mutex as TestMutex, MutexGuard};

    static TEST_LOCK: TestMutex<()> = TestMutex::new(());

    /// Serialize the tests that use the process-global store, and clear it.
    pub(crate) fn isolated() -> MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        clear();
        guard
    }

    #[test]
    fn root_child_nesting_and_ids() {
        let _g = isolated();
        let root = crate::span!(10, "kstreams", "cycle", step = 1u64);
        let _e = enter(root);
        let child = crate::child_span!(10, "kstreams", "fetch");
        finish_span(child, 11_000);
        finish_span(root, 12_000);
        if !crate::ENABLED {
            assert!(root.is_none() && child.is_none());
            assert!(finished_spans().is_empty());
            return;
        }
        let spans = finished_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, 1);
        assert_eq!(spans[0].name, "cycle");
        assert_eq!(spans[1].parent, Some(1));
        assert_eq!(spans[1].root, 1);
        assert_eq!(spans[1].duration_us(), 1000);
    }

    #[test]
    fn child_of_a_moved_span_starts_inside_it() {
        let _g = isolated();
        if !crate::ENABLED {
            return;
        }
        let root = crate::span!(5, "kstreams", "cycle");
        let _e = enter(root);
        let first = crate::child_span!(5, "task", "task");
        finish_span(first, 5_003);
        // Stamped with the same tick, so moved past its sibling to 5_003us.
        let slot = crate::child_span!(5, "task", "task");
        let _e = enter(slot);
        // The clock still reads 5ms inside the slot: the child would start
        // before its parent if it were not moved too.
        let fetch = crate::child_span!(5, "task", "fetch");
        finish_span(fetch, 5_000);
        finish_span(slot, 5_001);
        finish_span(root, 6_000);
        let spans = finished_spans();
        let f = spans.iter().find(|s| s.name == "fetch").unwrap();
        let t = spans.iter().find(|s| s.id == 3).unwrap();
        assert_eq!((t.start_us, t.end_us), (5_003, 5_004));
        assert!(f.start_us >= t.start_us && f.end_us <= t.end_us, "{f:?} not inside {t:?}");
    }

    #[test]
    fn critical_path_self_times_sum_to_total() {
        let _g = isolated();
        if !crate::ENABLED {
            return;
        }
        let root = crate::span!(0, "kstreams", "cycle");
        let _e = enter(root);
        let commit = crate::child_span!(0, "kstreams", "commit");
        let _e2 = enter(commit);
        let markers = crate::child_span!(1, "kbroker.txn", "markers");
        finish_span(markers, 7_000);
        finish_span(commit, 8_000);
        drop(_e2);
        finish_span(root, 10_000);
        let s = critical_path_summary().expect("one commit cycle");
        assert_eq!(s.cycles, 1);
        assert_eq!(s.total_us, 10_000);
        let phase_sum: i64 = s.phases.iter().map(|(_, us)| *us).sum();
        assert_eq!(phase_sum, s.total_us);
        assert_eq!(s.longest_chain, vec!["cycle", "commit", "markers"]);
        let markers_self = s.phases.iter().find(|(n, _)| *n == "markers").unwrap().1;
        assert_eq!(markers_self, 6_000);
    }

    #[test]
    fn same_tick_siblings_tile_their_parent() {
        let _g = isolated();
        if !crate::ENABLED {
            return;
        }
        // A cycle with three 1 µs task slots, then a commit — all stamped
        // with the cycle's own start tick, as the virtual clock stands
        // still within a step.
        let root = crate::span!(7, "kstreams", "cycle");
        let _e = enter(root);
        for _ in 0..3 {
            let slot = crate::child_span!(7, "task", "task");
            finish_span(slot, 7_001);
        }
        let commit = crate::child_span!(7, "kstreams", "commit");
        finish_span(commit, 9_000);
        finish_span(root, 9_000);
        let s = critical_path_summary().expect("one commit cycle");
        assert!(s.phases.iter().all(|(_, us)| *us >= 0), "negative self time: {:?}", s.phases);
        assert_eq!(s.phases.iter().map(|(_, us)| *us).sum::<i64>(), s.total_us);
        // The commit keeps its stamped 2 ms: it is moved past the slots, not
        // squeezed by them — and the root, "finished" at 9 ms, covers it.
        assert_eq!(s.phases, vec![("commit", 2_000), ("cycle", 0), ("task", 3)]);
        assert_eq!(finished_spans()[0].end_us, 9_003);
        assert!(active_spans().is_empty());
    }

    #[test]
    fn a_tree_reaches_the_ring_when_its_root_finishes() {
        let _g = isolated();
        if !crate::ENABLED {
            return;
        }
        let root = crate::span!(1, "kstreams", "cycle");
        let entered = enter(root);
        finish_span(crate::child_span!(1, "task", "task"), 1_500);
        crate::event!(1, "kstreams", "inside");
        assert!(finished_spans().is_empty() && tail(8).is_empty(), "nothing before the root");
        assert_eq!(active_spans().len(), 1);
        drop(entered);
        finish_span(root, 2_000);
        let names: Vec<_> = finished_spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["cycle", "task"]);
        assert_eq!(tail(8).len(), 1);
        assert!(active_spans().is_empty());
    }

    #[test]
    fn a_bare_root_is_dropped_and_any_record_keeps_its_tree() {
        let _g = isolated();
        if !crate::ENABLED {
            return;
        }
        let idle = crate::span!(1, "kstreams", "cycle", n = 1u64);
        let entered = enter(idle);
        drop(entered);
        finish_or_discard(idle, 1_000);
        assert!(finished_spans().is_empty(), "a bare root never reaches the ring");

        let with_child = crate::span!(2, "kstreams", "cycle", n = 2u64);
        let entered = enter(with_child);
        finish_span(crate::child_span!(2, "task", "punctuate"), 2_000);
        drop(entered);
        finish_or_discard(with_child, 2_000);

        let with_event = crate::span!(3, "kstreams", "cycle", n = 3u64);
        let entered = enter(with_event);
        crate::event!(3, "klog", "segment_roll");
        drop(entered);
        finish_or_discard(with_event, 3_000);

        let trees = recent_trees(usize::MAX);
        let names: Vec<Vec<_>> = trees.iter().map(|t| t.iter().map(|s| s.name).collect()).collect();
        assert_eq!(names, [["cycle", "punctuate"], ["cycle", "segment_roll"]]);
        // Ids keep counting through a dropped tree: they stay per-run.
        assert_eq!(trees[0][0].id, 2);
        assert!(critical_path_summary().is_none());
    }

    #[test]
    fn a_span_left_open_past_its_root_goes_to_the_ring_alone() {
        let _g = isolated();
        if !crate::ENABLED {
            return;
        }
        for keep in [true, false] {
            clear();
            let root = crate::span!(1, "kstreams", "cycle");
            let entered = enter(root);
            let straggler = crate::child_span!(1, "task", "task");
            drop(entered);
            if keep {
                finish_span(root, 2_000);
            } else {
                // The open straggler is no record yet: the root is bare.
                finish_or_discard(root, 2_000);
            }
            finish_span(straggler, 3_000);
            let names: Vec<_> = finished_spans().iter().map(|s| s.name).collect();
            let expected: &[&str] = if keep { &["cycle", "task"] } else { &["task"] };
            assert_eq!(names, expected, "keep={keep}");
            assert!(active_spans().is_empty());
        }
    }

    #[test]
    fn flight_recorder_keeps_last_trees() {
        let _g = isolated();
        if !crate::ENABLED {
            return;
        }
        for i in 0..(FLIGHT_RECORDER_TREES + 3) {
            let r = crate::span!(i as i64, "kstreams", "cycle");
            finish_span(r, (i as i64 + 1) * 1000);
        }
        // Trees are views of the ring, not a second bounded buffer: every
        // root still in the ring is readable, newest last.
        assert_eq!(recent_trees(usize::MAX).len(), FLIGHT_RECORDER_TREES + 3);
        let trees = recent_trees(FLIGHT_RECORDER_TREES);
        assert_eq!(trees.len(), FLIGHT_RECORDER_TREES);
        assert_eq!(trees.last().unwrap()[0].id, (FLIGHT_RECORDER_TREES + 3) as u64);
        let text = render_tree(trees.last().unwrap());
        assert!(text.contains("cycle ["), "{text}");
    }

    #[test]
    fn ring_overflow_is_counted_in_the_registry() {
        let _g = isolated();
        if !crate::ENABLED {
            return;
        }
        // The registry is process-global and other tests write to it, so
        // assert on the delta rather than the absolute count.
        let dropped = || crate::snapshot().counter("kobs.trace.dropped").unwrap_or(0);
        let before = dropped();
        // Four records per cycle, finishing in this order: an event inside
        // the root, a child span, the root, an event outside any span.
        let cycles = SPAN_CAPACITY / 4 + 1;
        for i in 0..cycles as i64 {
            let root = crate::span!(i, "kstreams", "cycle");
            let entered = enter(root);
            crate::event!(i, "kstreams", "inside", n = i);
            finish_span(crate::child_span!(i, "task", "task"), i * 1000 + 1);
            drop(entered);
            finish_span(root, i * 1000 + 2);
            crate::event!(i, "kstreams", "outside", n = i);
        }
        crate::event!(cycles as i64, "kstreams", "last");
        crate::event!(cycles as i64, "kstreams", "last");
        // SPAN_CAPACITY + 6 records: all of the first cycle and the second
        // cycle's inside event and child are evicted.
        assert_eq!(dropped() - before, 6, "each eviction must count one drop");
        assert_eq!(super::dropped(), 6);

        let trees = recent_trees(usize::MAX);
        assert_eq!(trees.len(), cycles - 1, "the first cycle's root was evicted");
        assert_eq!(trees[0][0].id, 5);
        assert_eq!(trees[0].len(), 1, "only the second root is left of its tree");
        assert!(trees[1..].iter().all(|t| t.len() == 3), "root, event, child");

        let tail = tail(usize::MAX);
        assert_eq!(tail.len(), 2 * cycles + 2 - 3);
        assert!(tail.windows(2).all(|w| w[0].id < w[1].id), "tail in emission order");
        assert_eq!(tail.last().unwrap().name, "last");
    }

    #[test]
    fn replay_is_byte_identical() {
        let _g = isolated();
        let run = || {
            clear();
            let root = crate::span!(3, "kstreams", "cycle", step = 9u64);
            let _e = enter(root);
            let c = crate::child_span!(3, "kstreams", "commit");
            finish_span(c, 4_000);
            finish_span(root, 5_000);
            format!("{:?}", finished_spans())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn off_build_is_noop() {
        let _g = isolated();
        if crate::ENABLED {
            return;
        }
        let mut ran = false;
        let h = start_span(0, "kstreams", Parent::Root, "cycle", || {
            ran = true;
            Fields::new()
        });
        assert!(h.is_none());
        assert!(!ran, "field closure must not run under kobs-off");
        finish_span(h, 10);
        assert!(finished_spans().is_empty());
        assert!(critical_path_summary().is_none());
        assert!(recent_trees(8).is_empty());
        assert!(!in_span());
    }
}
