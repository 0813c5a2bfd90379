//! Runtime metrics, used by tests to assert semantics, by the benchmark
//! harness to report the paper's figures, and as the one source of every
//! `kstreams.<field>` registry counter.
//!
//! The struct's fields are declared once through `streams_metrics!`, which
//! also derives [`StreamsMetrics::merge`], the count list
//! ([`StreamsMetrics::counts`]) and from it the one path by which a count
//! reaches the registry ([`StreamsMetrics::count_since`]): adding a counter
//! is a one-line change, and the struct, its merge and its registry names
//! cannot drift apart. An instance calls `count_since` at the end of each
//! commit, so the registry's `kstreams.<field>` counters sum every instance
//! and incarnation in the process as of each one's last commit, and no
//! per-record path touches the registry.

/// Declares [`StreamsMetrics`] plus its merge and count-iteration methods
/// from one list of counts and one of levels. Registry names are derived
/// as `kstreams.<count>`; levels have none.
macro_rules! streams_metrics {
    (
        counts { $( $(#[$doc:meta])* $count:ident, )* }
        levels { $( $(#[$level_doc:meta])* $level:ident, )* }
    ) => {
        /// What one application instance has done (cumulative counts) and
        /// hosts now (levels).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StreamsMetrics {
            $( $(#[$doc])* pub $count: u64, )*
            $( $(#[$level_doc])* pub $level: u64, )*
        }

        impl StreamsMetrics {
            /// Merge another instance's metrics (fleet-wide totals in
            /// benches): counts and levels both sum.
            pub fn merge(&mut self, other: &StreamsMetrics) {
                $( self.$count += other.$count; )*
                $( self.$level += other.$level; )*
            }

            /// `(registry name, value)` for every count, in declaration
            /// order.
            pub fn counts(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [ $( (concat!("kstreams.", stringify!($count)), self.$count), )* ]
                    .into_iter()
            }
        }
    };
}

streams_metrics! {
    counts {
        /// Input records processed (post-restore, i.e. real processing work).
        records_processed,
        /// Records produced to sink topics (user-visible outputs).
        records_emitted,
        /// Revision records emitted by order-sensitive operators on
        /// out-of-order input (§5).
        revisions_emitted,
        /// Out-of-order records dropped because their window closed (grace
        /// period elapsed, §5).
        late_dropped,
        /// Records the suppress operator absorbed (consolidated away, §5/§6.2).
        suppressed,
        /// Commit cycles completed.
        commit_cycles,
        /// Transactions committed (exactly-once mode only).
        transactions,
        /// Records replayed from changelogs during state restore.
        restore_records,
        /// Changelog records applied by standby replicas.
        standby_records_applied,
        /// Record-cache writes that coalesced into an existing dirty entry
        /// (§6.2's output-suppression caching — the appends saved).
        cache_hits,
        /// Record-cache writes that created a new dirty entry.
        cache_misses,
        /// Dirty entries evicted mid-interval by the cache capacity bound.
        cache_evictions,
        /// Records appended to store changelog topics (post-cache, so the
        /// dedup ratio is `records_processed / changelog_appends`).
        changelog_appends,
    }
    levels {
        /// Tasks this instance currently runs.
        active_tasks,
        /// Standby replicas this instance currently hosts.
        standby_tasks,
    }
}

impl StreamsMetrics {
    /// Add to each `kstreams.<count>` counter in `registry` how far it
    /// moved since `published`, the copy last passed here. A count that
    /// did not move is not named, so a cache-off run creates no
    /// `kstreams.cache_*` counter.
    pub fn count_since(&self, published: &StreamsMetrics, registry: &kobs::Registry) {
        for ((name, now), (_, then)) in self.counts().zip(published.counts()) {
            if now > then {
                registry.count(name, now - then);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counts_and_levels() {
        let mut a = StreamsMetrics { records_processed: 5, commit_cycles: 1, ..Default::default() };
        let b = StreamsMetrics {
            records_processed: 7,
            late_dropped: 2,
            active_tasks: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.records_processed, 12);
        assert_eq!(a.late_dropped, 2);
        assert_eq!(a.commit_cycles, 1);
        assert_eq!(a.active_tasks, 3);
    }

    #[test]
    fn counts_cover_every_count_in_declaration_order() {
        let m = StreamsMetrics {
            records_processed: 3,
            standby_records_applied: 9,
            changelog_appends: 4,
            active_tasks: 2,
            ..Default::default()
        };
        let counts: Vec<(&str, u64)> = m.counts().collect();
        assert_eq!(counts.len(), 13, "every count, and no level");
        assert_eq!(counts[0], ("kstreams.records_processed", 3));
        assert_eq!(counts[8], ("kstreams.standby_records_applied", 9));
        assert_eq!(counts[12], ("kstreams.changelog_appends", 4));
        assert!(counts.iter().all(|(n, _)| n.starts_with("kstreams.") && !n.ends_with("_tasks")));
    }

    #[test]
    fn merge_agrees_with_counts() {
        // The macro generates both from the same list, so summing the count
        // iterators must match merging the structs.
        let a = StreamsMetrics { records_processed: 1, suppressed: 4, ..Default::default() };
        let b = StreamsMetrics { records_processed: 2, commit_cycles: 8, ..Default::default() };
        let mut merged = a;
        merged.merge(&b);
        for (((n, va), (_, vb)), (_, vm)) in a.counts().zip(b.counts()).zip(merged.counts()) {
            assert_eq!(va + vb, vm, "count {n}");
        }
    }

    #[test]
    fn count_since_adds_only_what_moved() {
        let registry = kobs::Registry::new();
        let first = StreamsMetrics {
            records_processed: 5,
            commit_cycles: 1,
            active_tasks: 2,
            ..Default::default()
        };
        first.count_since(&StreamsMetrics::default(), &registry);
        let second = StreamsMetrics { records_processed: 8, cache_hits: 4, ..first };
        second.count_since(&first, &registry);
        // A second writer (another instance, or a restarted incarnation)
        // adds its own progress from its own zero.
        let other = StreamsMetrics { records_processed: 2, commit_cycles: 1, ..Default::default() };
        other.count_since(&StreamsMetrics::default(), &registry);
        let snap = registry.snapshot();
        if !kobs::ENABLED {
            assert!(snap.is_empty());
            return;
        }
        assert_eq!(snap.counter("kstreams.records_processed"), Some(10));
        assert_eq!(snap.counter("kstreams.commit_cycles"), Some(2));
        assert_eq!(snap.counter("kstreams.cache_hits"), Some(4));
        // Unmoved counts are never named; levels never reach the registry.
        assert_eq!(snap.counter("kstreams.cache_misses"), None);
        assert_eq!(snap.counter("kstreams.active_tasks"), None);
        assert!(snap.gauges.is_empty());
    }
}
