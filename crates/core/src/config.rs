//! Streams application configuration.
//!
//! The paper's headline knob (§4.3): "users can switch from at-least-once
//! semantics to exactly-once semantics with a single configuration", and the
//! commit interval is "the major factor impacting transactional commit
//! throughput and latency".

/// Processing guarantee (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProcessingGuarantee {
    /// Plain producer, periodic non-transactional offset commits. A failure
    /// between flushing outputs and committing offsets reprocesses records
    /// (§3.3's duplicate scenario).
    #[default]
    AtLeastOnce,
    /// Idempotent + transactional writes: sink records, changelog appends,
    /// and offset commits are atomic per commit interval (§4.2).
    ExactlyOnce,
}

/// Configuration for one application instance.
#[derive(Debug, Clone)]
pub struct StreamsConfig {
    /// Application id — doubles as consumer group id and the prefix of
    /// transactional ids and internal topic names.
    pub application_id: String,
    /// Processing guarantee.
    pub guarantee: ProcessingGuarantee,
    /// Commit interval in ms (transaction size in exactly-once mode).
    pub commit_interval_ms: i64,
    /// Max records pulled per poll round, per task.
    pub max_poll_records: usize,
    /// Producer batch size (records per partition batch).
    pub producer_batch_size: usize,
    /// Warm standby replicas per task hosted on other instances (§3.3's
    /// state-migration minimization; 0 disables).
    pub num_standby_replicas: usize,
    /// Per-store write-back record cache capacity in dirty entries (§6.2's
    /// output-suppression caching): repeated same-key store writes coalesce
    /// and flush once per commit interval — one changelog append and one
    /// downstream revision per key — instead of once per update. `0`
    /// disables caching (every write flushes inline). Caching is a pure
    /// performance transform: final store contents and final revisions are
    /// identical either way, only intermediate revisions are consolidated.
    pub cache_max_entries: usize,
    /// When set, every successful commit also spills each task's store
    /// contents under `<state_dir>/<app_id>/<task_id>/` together with a
    /// changelog watermark, and task (re)creation loads the spill and
    /// replays only the changelog suffix above it — a durable warm start
    /// that survives full instance crashes. `None` (the default) keeps the
    /// seed behaviour: recovery replays changelogs from the beginning.
    pub state_dir: Option<std::path::PathBuf>,
    /// Broker-side rebalance debounce window (virtual-clock ms): joins and
    /// warm-up transfer requests within the window coalesce into a single
    /// generation bump instead of N back-to-back re-assignments. `0`
    /// (default) keeps immediate rebalancing.
    pub rebalance_debounce_ms: i64,
}

impl StreamsConfig {
    pub fn new(application_id: impl Into<String>) -> Self {
        Self {
            application_id: application_id.into(),
            guarantee: ProcessingGuarantee::AtLeastOnce,
            commit_interval_ms: 100,
            max_poll_records: 512,
            producer_batch_size: 16,
            num_standby_replicas: 0,
            cache_max_entries: 0,
            state_dir: None,
            rebalance_debounce_ms: 0,
        }
    }

    /// Enable exactly-once processing (§4.3's single configuration switch).
    pub fn exactly_once(mut self) -> Self {
        self.guarantee = ProcessingGuarantee::ExactlyOnce;
        self
    }

    pub fn with_commit_interval_ms(mut self, ms: i64) -> Self {
        assert!(ms > 0);
        self.commit_interval_ms = ms;
        self
    }

    pub fn with_max_poll_records(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.max_poll_records = n;
        self
    }

    pub fn with_producer_batch_size(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.producer_batch_size = n;
        self
    }

    /// Host `n` warm standby replicas per task on other instances.
    pub fn with_standby_replicas(mut self, n: usize) -> Self {
        self.num_standby_replicas = n;
        self
    }

    /// Bound each store's write-back record cache to `n` dirty entries
    /// (`0` disables caching).
    pub fn with_cache_max_entries(mut self, n: usize) -> Self {
        self.cache_max_entries = n;
        self
    }

    /// Spill store contents to `dir` after every successful commit and
    /// warm-start recovery from those spills (bounded changelog replay).
    pub fn with_state_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.state_dir = Some(dir.into());
        self
    }

    /// Coalesce joins/transfer-requests within `ms` virtual-clock
    /// milliseconds into a single rebalance (0 = immediate).
    pub fn with_rebalance_debounce_ms(mut self, ms: i64) -> Self {
        assert!(ms >= 0);
        self.rebalance_debounce_ms = ms;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_alos_100ms() {
        let c = StreamsConfig::new("app");
        assert_eq!(c.guarantee, ProcessingGuarantee::AtLeastOnce);
        assert_eq!(c.commit_interval_ms, 100);
        assert_eq!(c.cache_max_entries, 0, "record caching off unless configured");
    }

    #[test]
    fn cache_knob_round_trips() {
        let c = StreamsConfig::new("app").with_cache_max_entries(1024);
        assert_eq!(c.cache_max_entries, 1024);
    }

    #[test]
    fn single_switch_to_eos() {
        let c = StreamsConfig::new("app").exactly_once();
        assert_eq!(c.guarantee, ProcessingGuarantee::ExactlyOnce);
    }
}
