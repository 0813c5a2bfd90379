//! Runtime metrics, used by tests to assert semantics and by the benchmark
//! harness to report the paper's figures.
//!
//! The struct's fields are declared once through `streams_metrics!`, which
//! also derives the field iterator ([`StreamsMetrics::fields`]) and the
//! [`StreamsMetrics::merge`] sum — adding a counter is a one-line change
//! and merge/registry export cannot drift out of sync with the struct.

/// Declares [`StreamsMetrics`] plus its merge and field-iteration methods
/// from a single field list. Registry names are derived as
/// `kstreams.<field>`.
macro_rules! streams_metrics {
    ($( $(#[$doc:meta])* $field:ident ),* $(,)?) => {
        /// Counters accumulated by one application instance.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StreamsMetrics {
            $( $(#[$doc])* pub $field: u64, )*
        }

        impl StreamsMetrics {
            /// Merge counters from another instance (fleet-wide totals in
            /// benches).
            pub fn merge(&mut self, other: &StreamsMetrics) {
                $( self.$field += other.$field; )*
            }

            /// `(registry name, value)` for every counter, in declaration
            /// order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [ $( (concat!("kstreams.", stringify!($field)), self.$field), )* ]
                    .into_iter()
            }
        }
    };
}

streams_metrics! {
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
    commits,
    /// Transactions committed (exactly-once mode only).
    transactions,
    /// Records replayed from changelogs during state restore.
    restore_records,
    /// Tasks this instance currently runs.
    active_tasks,
    /// Standby replicas this instance currently hosts.
    standby_tasks,
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

impl StreamsMetrics {
    /// Publish every counter as a `kstreams.*` gauge on the global kobs
    /// registry. Instances call this at commit time, so snapshots reflect
    /// the state as of the last completed commit cycle.
    pub fn publish(&self) {
        for (name, value) in self.fields() {
            kobs::gauge_set(name, value as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters() {
        let mut a = StreamsMetrics { records_processed: 5, commits: 1, ..Default::default() };
        let b = StreamsMetrics { records_processed: 7, late_dropped: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.records_processed, 12);
        assert_eq!(a.late_dropped, 2);
        assert_eq!(a.commits, 1);
    }

    #[test]
    fn fields_cover_every_counter_in_declaration_order() {
        let m = StreamsMetrics {
            records_processed: 3,
            standby_records_applied: 9,
            changelog_appends: 4,
            ..Default::default()
        };
        let fields: Vec<(&str, u64)> = m.fields().collect();
        assert_eq!(fields.len(), 15, "field iterator must cover the whole struct");
        assert_eq!(fields[0], ("kstreams.records_processed", 3));
        assert_eq!(fields[10], ("kstreams.standby_records_applied", 9));
        assert_eq!(fields[14], ("kstreams.changelog_appends", 4));
        assert!(fields.iter().all(|(n, _)| n.starts_with("kstreams.")));
    }

    #[test]
    fn merge_agrees_with_fields() {
        // The macro generates both from the same list, so summing the field
        // iterators must match merging the structs.
        let a = StreamsMetrics { records_processed: 1, suppressed: 4, ..Default::default() };
        let b = StreamsMetrics { records_processed: 2, commits: 8, ..Default::default() };
        let mut merged = a;
        merged.merge(&b);
        for (((n, va), (_, vb)), (_, vm)) in a.fields().zip(b.fields()).zip(merged.fields()) {
            assert_eq!(va + vb, vm, "field {n}");
        }
    }

    #[test]
    fn publish_exports_gauges() {
        let m = StreamsMetrics { records_emitted: 42, ..Default::default() };
        m.publish();
        if kobs::ENABLED {
            assert_eq!(kobs::snapshot().gauge("kstreams.records_emitted"), Some(42));
        }
    }
}
