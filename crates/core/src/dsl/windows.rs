//! Window definitions and windowed keys (§3.2, §5).

use crate::error::StreamsError;
use crate::kserde::{decode_windowed_key, encode_windowed_key, KSerde};
use bytes::Bytes;

/// Fixed-size time windows (tumbling, or hopping when `advance < size`).
///
/// The per-operator **grace period** (§5) bounds how long out-of-order
/// records are still accepted into a window; it controls *state retention*,
/// not output delay — results are emitted speculatively and revised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeWindows {
    pub size_ms: i64,
    pub advance_ms: i64,
    pub grace_ms: i64,
}

impl TimeWindows {
    /// Tumbling windows of `size_ms` with zero grace.
    pub fn of(size_ms: i64) -> Self {
        assert!(size_ms > 0);
        Self { size_ms, advance_ms: size_ms, grace_ms: 0 }
    }

    /// Turn into hopping windows advancing every `advance_ms`.
    pub fn advance_by(mut self, advance_ms: i64) -> Self {
        assert!(advance_ms > 0 && advance_ms <= self.size_ms);
        self.advance_ms = advance_ms;
        self
    }

    /// Accept out-of-order records up to `grace_ms` after the window ends.
    pub fn grace(mut self, grace_ms: i64) -> Self {
        assert!(grace_ms >= 0);
        self.grace_ms = grace_ms;
        self
    }

    /// Window start offsets containing `ts`, earliest first; none for a
    /// negative `ts`. A window ends at `start + size`, which may lie past
    /// `i64::MAX`: the starts are found by subtracting from `ts`, never by
    /// adding to a start.
    pub fn windows_for(&self, ts: i64) -> impl Iterator<Item = i64> {
        // The earliest start is the first multiple of `advance` above
        // `ts - size`.
        let first = ts.saturating_sub(self.size_ms - self.advance_ms).max(0) / self.advance_ms
            * self.advance_ms;
        (first..=ts).step_by(self.advance_ms as usize)
    }

    /// Whether the window starting at `start` is closed (no longer accepts
    /// records) at the given stream time: `window_end + grace <= stream_time`,
    /// with a window that ends past `i64::MAX` never closing.
    pub fn is_closed(&self, start: i64, stream_time: i64) -> bool {
        stream_time.saturating_sub(start) >= self.size_ms.saturating_add(self.grace_ms)
    }
}

/// Session windows: records within `gap_ms` of each other merge into one
/// session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionWindows {
    pub gap_ms: i64,
    pub grace_ms: i64,
}

impl SessionWindows {
    pub fn with_gap(gap_ms: i64) -> Self {
        assert!(gap_ms > 0);
        Self { gap_ms, grace_ms: 0 }
    }

    pub fn grace(mut self, grace_ms: i64) -> Self {
        assert!(grace_ms >= 0);
        self.grace_ms = grace_ms;
        self
    }
}

/// Join windows for stream-stream joins: a left record at `t` joins right
/// records in `[t - before, t + after]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinWindows {
    pub before_ms: i64,
    pub after_ms: i64,
    pub grace_ms: i64,
}

impl JoinWindows {
    /// Symmetric window: ±`diff_ms`.
    pub fn of(diff_ms: i64) -> Self {
        assert!(diff_ms >= 0);
        Self { before_ms: diff_ms, after_ms: diff_ms, grace_ms: 0 }
    }

    pub fn before(mut self, ms: i64) -> Self {
        self.before_ms = ms;
        self
    }

    pub fn after(mut self, ms: i64) -> Self {
        self.after_ms = ms;
        self
    }

    pub fn grace(mut self, grace_ms: i64) -> Self {
        assert!(grace_ms >= 0);
        self.grace_ms = grace_ms;
        self
    }
}

/// A key qualified by the window it belongs to. Output type of windowed
/// aggregations (indexed by window start, like Figure 6's emitted results).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Windowed<K> {
    pub key: K,
    pub window_start: i64,
}

impl<K> Windowed<K> {
    pub fn new(key: K, window_start: i64) -> Self {
        Self { key, window_start }
    }
}

impl<K: KSerde> KSerde for Windowed<K> {
    fn to_bytes(&self) -> Bytes {
        encode_windowed_key(&self.key.to_bytes(), self.window_start)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, StreamsError> {
        let (key, start) = decode_windowed_key(bytes)?;
        Ok(Windowed { key: K::from_bytes(&key)?, window_start: start })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn starts(w: TimeWindows, ts: i64) -> Vec<i64> {
        w.windows_for(ts).collect()
    }

    /// The non-negative multiples of `advance` whose window holds `ts`,
    /// earliest first, checked in `i128` so that no window end overflows.
    fn reference_starts(w: TimeWindows, ts: i64) -> Vec<i64> {
        if ts < 0 {
            return vec![];
        }
        let last = ts / w.advance_ms * w.advance_ms;
        let mut starts: Vec<i64> = (0..=w.size_ms / w.advance_ms)
            .map(|i| last - i * w.advance_ms)
            .filter(|&start| start >= 0)
            .filter(|&start| i128::from(start) + i128::from(w.size_ms) > i128::from(ts))
            .collect();
        starts.reverse();
        starts
    }

    #[test]
    fn tumbling_assigns_single_window() {
        let w = TimeWindows::of(5000);
        assert_eq!(starts(w, 0), vec![0]);
        assert_eq!(starts(w, 4999), vec![0]);
        assert_eq!(starts(w, 5000), vec![5000]);
        assert_eq!(starts(w, 12_345), vec![10_000]);
    }

    #[test]
    fn hopping_assigns_multiple_windows() {
        let w = TimeWindows::of(10_000).advance_by(5000);
        assert_eq!(starts(w, 12_000), vec![5000, 10_000]);
        assert_eq!(starts(w, 3_000), vec![0]);
        assert_eq!(starts(w, 7_000), vec![0, 5000]);
    }

    #[test]
    fn windows_match_the_reference_near_zero() {
        for w in [
            TimeWindows::of(1000),
            TimeWindows::of(1000).advance_by(500),
            TimeWindows::of(1000).advance_by(300),
            TimeWindows::of(7).advance_by(1),
        ] {
            for ts in -10..5000 {
                assert_eq!(starts(w, ts), reference_starts(w, ts), "{w:?} at {ts}");
            }
        }
    }

    #[test]
    fn windows_near_i64_max_do_not_overflow() {
        let tumbling = TimeWindows::of(1000).grace(2000);
        let last = i64::MAX - i64::MAX % 1000;
        for ts in [i64::MAX - 1, i64::MAX] {
            assert_eq!(starts(tumbling, ts), vec![last]);
            // The window ends past i64::MAX, so it never closes.
            assert!(!tumbling.is_closed(last, ts));
            assert!(!tumbling.is_closed(last, i64::MAX));
        }
        assert!(tumbling.is_closed(last - 3000, i64::MAX));

        let hopping = TimeWindows::of(1000).advance_by(300);
        for ts in [i64::MAX - 1, i64::MAX] {
            // i64::MAX % 300 == 7.
            let got = starts(hopping, ts);
            assert_eq!(got, [907, 607, 307, 7].map(|back| i64::MAX - back));
            assert_eq!(got, reference_starts(hopping, ts));
            assert!(got.iter().all(|&start| !hopping.is_closed(start, ts)));
        }
    }

    #[test]
    fn window_close_uses_grace() {
        let w = TimeWindows::of(5000).grace(10_000);
        // Window [10_000, 15_000), grace 10 s: closes at stream time 25_000.
        assert!(!w.is_closed(10_000, 24_999));
        assert!(w.is_closed(10_000, 25_000));
    }

    #[test]
    fn zero_grace_closes_at_window_end() {
        let w = TimeWindows::of(5000);
        assert!(w.is_closed(0, 5000));
        assert!(!w.is_closed(0, 4999));
    }

    #[test]
    fn negative_ts_gets_no_window() {
        assert!(starts(TimeWindows::of(1000), -5).is_empty());
        assert!(starts(TimeWindows::of(1000).advance_by(10), i64::MIN).is_empty());
    }

    #[test]
    fn windowed_key_serde_round_trip() {
        let w = Windowed::new("user".to_string(), 5000);
        let b = w.to_bytes();
        assert_eq!(Windowed::<String>::from_bytes(&b), Ok(w));
    }

    #[test]
    fn join_windows_builders() {
        let jw = JoinWindows::of(100).before(50).grace(10);
        assert_eq!((jw.before_ms, jw.after_ms, jw.grace_ms), (50, 100, 10));
    }

    #[test]
    fn session_windows_builders() {
        let sw = SessionWindows::with_gap(30).grace(5);
        assert_eq!((sw.gap_ms, sw.grace_ms), (30, 5));
    }
}
