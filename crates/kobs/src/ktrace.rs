//! ktrace — deterministic hierarchical spans over the virtual clock.
//!
//! A [`Span`] is a named interval on a *track* (one row in the exported
//! timeline: `kstreams`, `task`, `kbroker.txn`, `klog`), with an optional
//! parent forming a causal tree per commit cycle. Span ids come from a
//! per-run counter (reset by [`crate::reset`]), and every timestamp is
//! virtual microseconds (the simulation clock's `now_ms` × 1000) — so a
//! replayed seed produces byte-identical span trees and byte-identical
//! chrome JSON.
//!
//! Three consumers sit on top of the store:
//!
//! - the **critical-path analyzer**: at every commit-cycle root finish it
//!   folds per-phase *self time* (duration minus direct-children duration)
//!   into an aggregate summary and the `kobs.critical_path.*` histogram
//!   family; self times tile the tree, so the per-phase breakdown sums
//!   back to the cycle total.
//! - the **flight recorder**: a bounded ring of the last
//!   [`FLIGHT_RECORDER_TREES`] completed span trees, dumped next to the
//!   repro line when a simtest oracle fails.
//! - the **chrome exporter** ([`crate::trace_export::chrome_json`]) over
//!   [`finished_spans`].
//!
//! Under the `off` feature every entry point is a no-op, field closures
//! never run, and the macros cost nothing.

use crate::trace::FieldValue;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Mutex;

/// Finished spans retained for export; older spans are evicted FIFO and
/// counted in `kobs.trace.spans_dropped`.
pub const SPAN_CAPACITY: usize = 1 << 16;

/// Completed span trees kept by the flight recorder.
pub const FLIGHT_RECORDER_TREES: usize = 32;

/// Spans retained per recorded tree (largest-id spans win; the cap keeps a
/// pathological cycle from pinning the recorder).
pub const TREE_SPAN_CAP: usize = 512;

/// One completed (or in-flight) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Per-run monotone id (1-based; ids order spans by start).
    pub id: u64,
    /// Direct parent span id, if any.
    pub parent: Option<u64>,
    /// Root id of the tree this span belongs to (== `id` for roots).
    pub root: u64,
    /// Span name (`cycle`, `task`, `fetch`, `commit`, `markers`, ...).
    pub name: &'static str,
    /// Timeline row: `kstreams`, `task`, `kbroker.txn`, `klog`.
    pub track: &'static str,
    /// Virtual start, microseconds.
    pub start_us: i64,
    /// Virtual end, microseconds (>= `start_us`).
    pub end_us: i64,
    /// Structured fields attached at span start.
    pub fields: Vec<(&'static str, FieldValue)>,
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
        if self.is_none() {
            None
        } else {
            Some(self.id)
        }
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

/// One completed span tree, root first, then the remaining spans in id
/// order. Held by the flight recorder and rendered next to repro lines.
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// The root span of the tree.
    pub root: Span,
    /// Every span of the tree including the root, ascending id.
    pub spans: Vec<Span>,
    /// Spans discarded because the tree outgrew [`TREE_SPAN_CAP`].
    pub truncated: usize,
}

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

#[cfg_attr(feature = "off", allow(dead_code))]
struct Active {
    span: Span,
    /// Raised by finishing children so a parent can never end before the
    /// intervals nested inside it.
    min_end_us: i64,
    /// How far [`start_span`] moved the start past its earlier siblings;
    /// [`finish_span`] moves the end by as much.
    shift_us: i64,
}

#[derive(Default)]
#[cfg_attr(feature = "off", allow(dead_code))]
struct Store {
    next_id: u64,
    active: BTreeMap<u64, Active>,
    /// Finished non-root spans, waiting for their root to close.
    pending: BTreeMap<u64, Vec<Span>>,
    /// Finished spans in finish order; drained sorted for export.
    completed: VecDeque<Span>,
    dropped: u64,
    trees: VecDeque<SpanTree>,
    cp_cycles: u64,
    cp_total_us: i64,
    cp_phases: BTreeMap<&'static str, i64>,
    cp_longest_us: i64,
    cp_longest_chain: Vec<&'static str>,
}

fn store() -> &'static Mutex<Store> {
    static STORE: Mutex<Store> = Mutex::new(Store {
        next_id: 0,
        active: BTreeMap::new(),
        pending: BTreeMap::new(),
        completed: VecDeque::new(),
        dropped: 0,
        trees: VecDeque::new(),
        cp_cycles: 0,
        cp_total_us: 0,
        cp_phases: BTreeMap::new(),
        cp_longest_us: 0,
        cp_longest_chain: Vec::new(),
    });
    &STORE
}

fn lock() -> std::sync::MutexGuard<'static, Store> {
    store().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    static CURRENT: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Start a span. `start_us` is virtual microseconds. A child starts no
/// earlier than its parent's latest finished child (which is no earlier
/// than the parent's own start): siblings run one after another on the
/// thread that entered the parent, so they must tile it rather than
/// overlap. Such a child is *moved*, not squeezed — [`finish_span`] shifts
/// its end by the same amount — because the span timeline runs ahead of
/// the clock its call sites stamp from (record-timestamped klog appends),
/// and squeezing would bill that lead to whichever
/// span comes next. The `fields` closure only runs when tracing is
/// compiled in.
#[allow(unused_variables)]
pub fn start_span<F>(
    start_us: i64,
    track: &'static str,
    parent: Parent,
    name: &'static str,
    fields: F,
) -> SpanHandle
where
    F: FnOnce() -> Vec<(&'static str, FieldValue)>,
{
    #[cfg(not(feature = "off"))]
    {
        let parent_id = match parent {
            Parent::Root => None,
            Parent::Current => current().id(),
        };
        let mut st = lock();
        st.next_id += 1;
        let id = st.next_id;
        let (parent_id, root, floor) = match parent_id.and_then(|p| st.active.get(&p)) {
            Some(pa) => (parent_id, pa.span.root, pa.min_end_us),
            // A dangling parent (entered but already finished) degrades to
            // a fresh root rather than a broken edge.
            None => (None, id, start_us),
        };
        let shift_us = (floor - start_us).max(0);
        let start_us = start_us.max(floor);
        st.active.insert(
            id,
            Active {
                span: Span {
                    id,
                    parent: parent_id,
                    root,
                    name,
                    track,
                    start_us,
                    end_us: start_us,
                    fields: fields(),
                },
                min_end_us: start_us,
                shift_us,
            },
        );
        #[allow(clippy::needless_return)]
        return SpanHandle { id };
    }
    #[cfg(feature = "off")]
    {
        SpanHandle::NONE
    }
}

/// Finish a span at `end_us` (virtual µs). The end is clamped so it never
/// precedes the span's start or any finished child's end. Finishing a root
/// assembles its tree: flight recorder, critical-path accounting, and the
/// `kobs.critical_path.*` histograms all update here.
#[allow(unused_variables)]
pub fn finish_span(handle: SpanHandle, end_us: i64) {
    #[cfg(not(feature = "off"))]
    {
        if handle.is_none() {
            return;
        }
        let mut st = lock();
        let Some(active) = st.active.remove(&handle.id) else {
            return;
        };
        let mut span = active.span;
        span.end_us = (end_us + active.shift_us).max(active.min_end_us).max(span.start_us);
        if let Some(parent) = span.parent {
            if let Some(pa) = st.active.get_mut(&parent) {
                pa.min_end_us = pa.min_end_us.max(span.end_us);
            }
        }
        if span.id == span.root {
            let mut spans = st.pending.remove(&span.root).unwrap_or_default();
            spans.push(span.clone());
            spans.sort_by_key(|s| s.id);
            finish_root(&mut st, span.clone(), spans);
        } else {
            st.pending.entry(span.root).or_default().push(span.clone());
        }
        push_completed(&mut st, span);
    }
}

#[cfg(not(feature = "off"))]
fn push_completed(st: &mut Store, span: Span) {
    if st.completed.len() == SPAN_CAPACITY {
        st.completed.pop_front();
        st.dropped += 1;
        if st.dropped == 1 {
            drop_marker();
        }
    }
    st.completed.push_back(span);
}

/// Count span-store overflow once per run outside the store lock would
/// race with `reset`; the registry mutex is independent so nesting the
/// call here is deadlock-free.
#[cfg(not(feature = "off"))]
fn drop_marker() {
    crate::count("kobs.trace.spans_dropped_runs", 1);
}

#[cfg(not(feature = "off"))]
fn finish_root(st: &mut Store, root: Span, mut spans: Vec<Span>) {
    let truncated = spans.len().saturating_sub(TREE_SPAN_CAP);
    if truncated > 0 {
        // Keep the newest spans (and always the root, which has the
        // smallest id of its tree by construction).
        let keep_from = spans.len() - TREE_SPAN_CAP;
        let mut kept: Vec<Span> = spans.split_off(keep_from);
        if !kept.iter().any(|s| s.id == root.id) {
            kept.insert(0, root.clone());
        }
        spans = kept;
    }
    if st.trees.len() == FLIGHT_RECORDER_TREES {
        st.trees.pop_front();
    }
    let tree = SpanTree { root, spans, truncated };
    if tree.spans.iter().any(|s| s.name == "commit") {
        account_critical_path(st, &tree);
    }
    st.trees.push_back(tree);
}

/// Per-phase self time: a span's duration minus its direct children's
/// durations. Summed over a tree the child durations telescope, so the
/// phase breakdown sums to the root duration *exactly*; self times are
/// non-negative because [`start_span`] makes siblings tile their parent,
/// so nothing is clamped here.
#[cfg(not(feature = "off"))]
fn account_critical_path(st: &mut Store, tree: &SpanTree) {
    let mut child_total: BTreeMap<u64, i64> = BTreeMap::new();
    for s in &tree.spans {
        if let Some(p) = s.parent {
            *child_total.entry(p).or_insert(0) += s.duration_us();
        }
    }
    st.cp_cycles += 1;
    st.cp_total_us += tree.root.duration_us();
    for s in &tree.spans {
        let self_us = s.duration_us() - child_total.get(&s.id).copied().unwrap_or(0);
        *st.cp_phases.entry(s.name).or_insert(0) += self_us;
        crate::observe(&format!("kobs.critical_path.{}_ms", s.name), self_us.max(0) / 1000);
    }
    crate::observe("kobs.critical_path.total_ms", tree.root.duration_us() / 1000);
    if tree.root.duration_us() >= st.cp_longest_us {
        st.cp_longest_us = tree.root.duration_us();
        st.cp_longest_chain = longest_chain(tree);
    }
}

/// The longest causal chain: from the root, repeatedly descend into the
/// longest direct child (smallest id breaks ties deterministically).
#[cfg(not(feature = "off"))]
fn longest_chain(tree: &SpanTree) -> Vec<&'static str> {
    let mut chain = vec![tree.root.name];
    let mut at = tree.root.id;
    loop {
        let next = tree
            .spans
            .iter()
            .filter(|s| s.parent == Some(at))
            .max_by_key(|s| (s.duration_us(), std::cmp::Reverse(s.id)));
        match next {
            Some(s) => {
                chain.push(s.name);
                at = s.id;
            }
            None => return chain,
        }
    }
}

/// Enter guard: pops the thread-local current-span stack on drop.
pub struct EnterGuard {
    pushed: bool,
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        if self.pushed {
            CURRENT.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
}

/// Make `handle` the calling thread's current span until the guard drops;
/// `child_span!` and the klog append probes parent under it.
pub fn enter(handle: SpanHandle) -> EnterGuard {
    if handle.is_none() {
        return EnterGuard { pushed: false };
    }
    CURRENT.with(|c| c.borrow_mut().push(handle.id));
    EnterGuard { pushed: true }
}

/// The calling thread's innermost entered span.
pub fn current() -> SpanHandle {
    CURRENT.with(|c| c.borrow().last().map_or(SpanHandle::NONE, |id| SpanHandle { id: *id }))
}

/// Cheap check used by high-frequency probes (klog appends) to skip span
/// creation outside any traced lifecycle.
pub fn in_span() -> bool {
    CURRENT.with(|c| !c.borrow().is_empty())
}

/// Every finished span of the run so far, ascending id (bounded by
/// [`SPAN_CAPACITY`]; see [`dropped_spans`]).
pub fn finished_spans() -> Vec<Span> {
    let st = lock();
    let mut spans: Vec<Span> = st.completed.iter().cloned().collect();
    spans.sort_by_key(|s| s.id);
    spans
}

/// Every span started and not yet finished, ascending id. A lifecycle
/// that has returned — with or without an error — has none left here.
pub fn active_spans() -> Vec<Span> {
    lock().active.values().map(|a| a.span.clone()).collect()
}

/// Finished spans evicted from the export buffer.
pub fn dropped_spans() -> u64 {
    lock().dropped
}

/// The last `n` completed span trees, oldest first.
pub fn recent_trees(n: usize) -> Vec<SpanTree> {
    let st = lock();
    let skip = st.trees.len().saturating_sub(n);
    st.trees.iter().skip(skip).cloned().collect()
}

/// Aggregate critical-path summary, `None` until a commit cycle finished.
pub fn critical_path_summary() -> Option<CriticalPathSummary> {
    let st = lock();
    if st.cp_cycles == 0 {
        return None;
    }
    Some(CriticalPathSummary {
        cycles: st.cp_cycles,
        total_us: st.cp_total_us,
        phases: st.cp_phases.iter().map(|(k, v)| (*k, *v)).collect(),
        longest_chain: st.cp_longest_chain.clone(),
        longest_cycle_us: st.cp_longest_us,
    })
}

/// Render a span tree as indented text (flight-recorder dumps).
pub fn render_tree(tree: &SpanTree) -> String {
    let mut out = String::new();
    let mut depth: BTreeMap<u64, usize> = BTreeMap::new();
    for s in &tree.spans {
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
        if s.track != tree.root.track {
            let _ = write!(out, " track={}", s.track);
        }
        for (k, v) in &s.fields {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
    }
    if tree.truncated > 0 {
        let _ = writeln!(out, "... {} earlier spans truncated", tree.truncated);
    }
    out
}

/// Reset the store (run isolation; called from [`crate::reset`]). Ids
/// restart at 1, so a replayed seed reproduces identical trees.
pub fn clear() {
    let mut st = lock();
    *st = Store::default();
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
            || vec![$((stringify!($key), $crate::trace::FieldValue::from($val))),*],
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
            || vec![$((stringify!($key), $crate::trace::FieldValue::from($val))),*],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex as TestMutex, MutexGuard};

    static TEST_LOCK: TestMutex<()> = TestMutex::new(());

    fn isolated() -> MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
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
    fn flight_recorder_keeps_last_trees() {
        let _g = isolated();
        if !crate::ENABLED {
            return;
        }
        for i in 0..(FLIGHT_RECORDER_TREES + 3) {
            let r = crate::span!(i as i64, "kstreams", "cycle");
            finish_span(r, (i as i64 + 1) * 1000);
        }
        let trees = recent_trees(usize::MAX);
        assert_eq!(trees.len(), FLIGHT_RECORDER_TREES);
        let text = render_tree(trees.last().unwrap());
        assert!(text.contains("cycle ["), "{text}");
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
            vec![]
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
