//! Input generation: everything a workload feeds the program is a pure
//! function of `--seed`. The program under test only ever sees the records.

use bytes::Bytes;
use kstreams::KSerde;

/// xorshift64* — small, fast, and independent of the repository's own RNG
/// so a change there cannot move the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> Self {
        // splitmix64 scramble: neighbouring seeds (1, 2, 3 ...) must not
        // give neighbouring streams, and the state must never be zero.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift; the bias at these ranges (n <= 2^32) is < 2^-32.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One generated input record. `key` indexes the workload's key space
/// (`key-<n>` on the wire); `ts` is the event time in ms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Input {
    pub key: u32,
    pub value: i64,
    pub ts: i64,
}

/// How keys and event times are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Uniform keys, in-order event time (1 ms per [`RECORDS_PER_EVENT_MS`]
    /// records), values in `0..1000`.
    Uniform { keys: u32 },
    /// Zipf(1.0) keys; `late_share` of the events carry a timestamp
    /// `0..max_late_ms` behind the in-order event time.
    ZipfDisorder { keys: u32, late_share: f64, max_late_ms: i64 },
    /// Uniform keys on an open-loop schedule: record `i` is due
    /// `i / rate_per_s` seconds after the start and carries that due time
    /// in ns as its value (so `max` per key names the last contributor).
    Paced { keys: u32, rate_per_s: u64 },
}

/// Event time advances 1 ms per this many records in the drain shapes.
pub const RECORDS_PER_EVENT_MS: i64 = 50;

/// Generate `n` records of `shape` from `seed`.
pub fn generate(shape: Shape, n: usize, seed: u64) -> Vec<Input> {
    let mut rng = XorShift::new(seed);
    match shape {
        Shape::Uniform { keys } => (0..n)
            .map(|i| Input {
                key: rng.below(u64::from(keys)) as u32,
                value: rng.below(1000) as i64,
                ts: i as i64 / RECORDS_PER_EVENT_MS,
            })
            .collect(),
        Shape::ZipfDisorder { keys, late_share, max_late_ms } => {
            let cdf = zipf_cdf(keys);
            (0..n)
                .map(|i| {
                    let u = rng.unit();
                    let key = cdf.partition_point(|&c| c < u).min(keys as usize - 1) as u32;
                    let on_time = i as i64 / RECORDS_PER_EVENT_MS;
                    let ts = if rng.unit() < late_share {
                        (on_time - rng.below(max_late_ms as u64) as i64).max(0)
                    } else {
                        on_time
                    };
                    Input { key, value: 1, ts }
                })
                .collect()
        }
        Shape::Paced { keys, rate_per_s } => (0..n)
            .map(|i| {
                let due_ns = due_ns(i, rate_per_s);
                Input {
                    key: rng.below(u64::from(keys)) as u32,
                    value: due_ns,
                    ts: due_ns / 1_000_000,
                }
            })
            .collect(),
    }
}

/// Due time of the `i`-th paced record, ns after the schedule starts.
pub fn due_ns(i: usize, rate_per_s: u64) -> i64 {
    (i as u128 * 1_000_000_000 / u128::from(rate_per_s)) as i64
}

/// Cumulative Zipf(s = 1.0) distribution over ranks `1..=keys`.
fn zipf_cdf(keys: u32) -> Vec<f64> {
    let norm: f64 = (1..=keys).map(|r| 1.0 / f64::from(r)).sum();
    let mut acc = 0.0;
    (1..=keys)
        .map(|r| {
            acc += 1.0 / f64::from(r) / norm;
            acc
        })
        .collect()
}

/// Wire form of the keys of a key space: `key-<n>`, built once so neither
/// the generator nor the checker formats a string per record.
pub fn key_table(keys: u32) -> Vec<Bytes> {
    (0..keys).map(|k| format!("key-{k}").to_bytes()).collect()
}

/// Inverse of [`key_table`] for one key; `None` for bytes the generator
/// never produced.
pub fn parse_key(bytes: &[u8]) -> Option<u32> {
    std::str::from_utf8(bytes.strip_prefix(b"key-")?).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPES: [Shape; 3] = [
        Shape::Uniform { keys: 64 },
        Shape::ZipfDisorder { keys: 64, late_share: 0.1, max_late_ms: 3000 },
        Shape::Paced { keys: 64, rate_per_s: 100_000 },
    ];

    #[test]
    fn same_seed_same_input_other_seed_other_input() {
        for shape in SHAPES {
            let a = generate(shape, 5000, 7);
            assert_eq!(a, generate(shape, 5000, 7), "{shape:?} must repeat per seed");
            assert_ne!(a, generate(shape, 5000, 8), "{shape:?} must depend on the seed");
        }
    }

    #[test]
    fn neighbouring_seeds_are_unrelated_streams() {
        let mut a = XorShift::new(1);
        let mut b = XorShift::new(2);
        let same = (0..1000).filter(|_| a.below(16) == b.below(16)).count();
        assert!((20..120).contains(&same), "expected ~1/16 agreement, got {same}/1000");
    }

    #[test]
    fn zipf_is_skewed_and_disorder_is_bounded() {
        let recs = generate(
            Shape::ZipfDisorder { keys: 1024, late_share: 0.1, max_late_ms: 3000 },
            100_000,
            3,
        );
        let top = recs.iter().filter(|r| r.key == 0).count();
        // Rank 1 of Zipf(1.0) over 1024 keys holds 1/H(1024) ~ 13.3 %.
        assert!((11_000..16_000).contains(&top), "rank-1 share off: {top}");
        let late = recs
            .iter()
            .enumerate()
            .filter(|(i, r)| r.ts < *i as i64 / RECORDS_PER_EVENT_MS)
            .count();
        assert!((8_000..12_000).contains(&late), "late share off: {late}");
        assert!(recs.iter().enumerate().all(|(i, r)| {
            let on_time = i as i64 / RECORDS_PER_EVENT_MS;
            r.ts <= on_time && r.ts >= (on_time - 3000).max(0)
        }));
    }

    #[test]
    fn paced_values_carry_the_due_time() {
        let recs = generate(Shape::Paced { keys: 8, rate_per_s: 100_000 }, 1000, 1);
        assert_eq!(recs[0].value, 0);
        assert_eq!(recs[1].value, 10_000);
        assert_eq!(recs[999].value, 9_990_000);
        assert!(recs.windows(2).all(|w| w[0].value < w[1].value));
    }

    #[test]
    fn keys_round_trip_through_the_wire_form() {
        let table = key_table(300);
        assert_eq!(&table[299][..], b"key-299");
        assert_eq!(parse_key(&table[17]), Some(17));
        assert_eq!(parse_key(b"other-3"), None);
        assert_eq!(parse_key(b"key-x"), None);
    }
}
