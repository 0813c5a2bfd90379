//! The reference computation every run's outputs are checked against.
//!
//! The reference folds the generated input directly — no log, broker or
//! topology — and the checker compares what a read-committed consumer saw
//! on the output topic with it, result by result. Every disagreement is a
//! failure of one of three kinds; `failed_share` is their sum over the
//! expected results.

use crate::gen::{self, Input};
use crate::workload::{
    passthrough_keeps, passthrough_maps, Topo, INPUT_PARTITIONS, WINDOW_GRACE_MS, WINDOW_SIZE_MS,
};
use kbroker::topic::partition_for_key;
use kstreams::kserde::decode_windowed_key;
use kstreams::KSerde;
use std::collections::HashMap;

/// How far ahead the sequence checker looks for an output before calling
/// it wrong rather than calling the outputs before it missing.
const LOOKAHEAD: usize = 64;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Expected results that never arrived (paced: not within the deadline).
    pub missing: u64,
    /// Results delivered more than once.
    pub duplicated: u64,
    /// Results with a value the reference does not give them, or for a key
    /// or window the reference has no result for.
    pub wrong: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.missing + self.duplicated + self.wrong
    }
}

/// Outcome of checking one repetition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Check {
    pub expected: u64,
    pub failures: Failures,
}

impl Check {
    pub fn failed_share(&self) -> f64 {
        self.failures.total() as f64 / self.expected.max(1) as f64
    }

    /// Add another repetition's outcome to this one.
    pub fn add(&mut self, other: &Check) {
        self.expected += other.expected;
        self.failures.missing += other.failures.missing;
        self.failures.duplicated += other.failures.duplicated;
        self.failures.wrong += other.failures.wrong;
    }
}

/// What the output topic must hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reference {
    /// Per key, the exact values in the order they must appear (outputs of
    /// one key share a partition, so their order is defined).
    Sequences(Vec<Vec<i64>>),
    /// Per `(key, window start)`, the final count. With a record cache the
    /// intermediate counts that reach the topic depend on eviction timing,
    /// so they are only required to rise strictly towards the final one.
    Windows { finals: HashMap<(u32, i64), i64>, late_drops: u64 },
}

impl Reference {
    pub fn of(topo: Topo, inputs: &[Input], key_space: u32) -> Self {
        match topo {
            Topo::Passthrough => Self::sequences(inputs, key_space, |_, v| {
                passthrough_keeps(v).then(|| passthrough_maps(v))
            }),
            Topo::ReduceSum => Self::sequences(inputs, key_space, |acc, v| {
                Some(acc.map_or(v, |a| a.wrapping_add(v)))
            }),
            Topo::ReduceMax => {
                Self::sequences(inputs, key_space, |acc, v| Some(acc.map_or(v, |a| a.max(v))))
            }
            Topo::WindowCount => Self::windows(inputs, key_space),
        }
    }

    /// `fold(previous output of this key, input value)` gives the next
    /// output of the key, or `None` when the input yields none.
    fn sequences(
        inputs: &[Input],
        key_space: u32,
        fold: impl Fn(Option<i64>, i64) -> Option<i64>,
    ) -> Self {
        let mut per_key: Vec<Vec<i64>> = vec![Vec::new(); key_space as usize];
        for rec in inputs {
            let outputs = &mut per_key[rec.key as usize];
            if let Some(out) = fold(outputs.last().copied(), rec.value) {
                outputs.push(out);
            }
        }
        Self::Sequences(per_key)
    }

    /// Replays stream time per input partition — each task observes only
    /// its own partition's timestamps — so an event is dropped exactly when
    /// the task that owns it has already seen `window end + grace`.
    fn windows(inputs: &[Input], key_space: u32) -> Self {
        let partition_of: Vec<u32> = gen::key_table(key_space)
            .iter()
            .map(|k| partition_for_key(k, INPUT_PARTITIONS))
            .collect();
        let mut stream_time = [i64::MIN; INPUT_PARTITIONS as usize];
        let mut finals: HashMap<(u32, i64), i64> = HashMap::new();
        let mut late_drops = 0;
        for rec in inputs {
            let now = &mut stream_time[partition_of[rec.key as usize] as usize];
            *now = (*now).max(rec.ts);
            let start = rec.ts / WINDOW_SIZE_MS * WINDOW_SIZE_MS;
            if start + WINDOW_SIZE_MS + WINDOW_GRACE_MS <= *now {
                late_drops += 1;
            } else {
                *finals.entry((rec.key, start)).or_insert(0) += 1;
            }
        }
        Self::Windows { finals, late_drops }
    }

    pub fn expected_results(&self) -> u64 {
        match self {
            Self::Sequences(per_key) => per_key.iter().map(|s| s.len() as u64).sum(),
            Self::Windows { finals, .. } => finals.len() as u64,
        }
    }
}

/// Streaming comparison of observed outputs with a [`Reference`]. Feed it
/// every output record in the order the consumer returned it.
pub struct Checker<'a> {
    reference: &'a Reference,
    failures: Failures,
    seen: u64,
    /// Sequences: next expected index and last observed value, per key.
    cursors: Vec<(usize, Option<i64>)>,
    /// Windows: last observed count per `(key, window start)`.
    last_counts: HashMap<(u32, i64), i64>,
}

impl<'a> Checker<'a> {
    pub fn new(reference: &'a Reference) -> Self {
        let keys = match reference {
            Reference::Sequences(per_key) => per_key.len(),
            Reference::Windows { .. } => 0,
        };
        Self {
            reference,
            failures: Failures::default(),
            seen: 0,
            cursors: vec![(0, None); keys],
            last_counts: HashMap::new(),
        }
    }

    /// Output records observed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn observe(&mut self, key: &[u8], value: &[u8]) {
        self.seen += 1;
        let Ok(value) = i64::from_bytes(value) else {
            self.failures.wrong += 1;
            return;
        };
        match self.reference {
            Reference::Sequences(per_key) => self.observe_in_sequence(per_key, key, value),
            Reference::Windows { finals, .. } => self.observe_window(finals, key, value),
        }
    }

    fn observe_in_sequence(&mut self, per_key: &[Vec<i64>], key: &[u8], value: i64) {
        let Some(key) = gen::parse_key(key).filter(|k| (*k as usize) < per_key.len()) else {
            self.failures.wrong += 1;
            return;
        };
        let expected = &per_key[key as usize];
        let (cursor, last) = &mut self.cursors[key as usize];
        let rest = &expected[(*cursor).min(expected.len())..];
        if rest.first() == Some(&value) {
            *cursor += 1;
        } else if *last == Some(value) {
            self.failures.duplicated += 1;
        } else if let Some(skipped) = rest.iter().take(LOOKAHEAD).position(|e| *e == value) {
            self.failures.missing += skipped as u64;
            *cursor += skipped + 1;
        } else {
            self.failures.wrong += 1;
            // A wrong value stands in for the result expected at its place.
            *cursor = (*cursor + 1).min(expected.len());
        }
        *last = Some(value);
    }

    fn observe_window(&mut self, finals: &HashMap<(u32, i64), i64>, key: &[u8], count: i64) {
        let window = decode_windowed_key(key)
            .ok()
            .and_then(|(key, start)| Some((gen::parse_key(&key)?, start)));
        let Some((window, final_count)) = window.and_then(|w| Some((w, *finals.get(&w)?))) else {
            self.failures.wrong += 1;
            return;
        };
        match self.last_counts.get(&window) {
            Some(prev) if *prev == count => self.failures.duplicated += 1,
            Some(prev) if *prev > count => self.failures.wrong += 1,
            _ if count > final_count => self.failures.wrong += 1,
            _ => {
                self.last_counts.insert(window, count);
            }
        }
    }

    /// Close the comparison: whatever the reference expects and was never
    /// observed is missing.
    pub fn finish(mut self) -> Check {
        match self.reference {
            Reference::Sequences(per_key) => {
                for (expected, (cursor, _)) in per_key.iter().zip(&self.cursors) {
                    self.failures.missing +=
                        (expected.len() - (*cursor).min(expected.len())) as u64;
                }
            }
            Reference::Windows { finals, .. } => {
                let unfinished =
                    finals.iter().filter(|(w, count)| self.last_counts.get(w) != Some(count));
                self.failures.missing += unfinished.count() as u64;
            }
        }
        Check { expected: self.reference.expected_results(), failures: self.failures }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Shape};
    use kstreams::kserde::encode_windowed_key;

    /// The outputs a correct program writes for `reference`, as wire records.
    fn correct_outputs(reference: &Reference) -> Vec<(Vec<u8>, i64)> {
        match reference {
            Reference::Sequences(per_key) => per_key
                .iter()
                .enumerate()
                .flat_map(|(k, seq)| seq.iter().map(move |v| (format!("key-{k}").into_bytes(), *v)))
                .collect(),
            Reference::Windows { finals, .. } => {
                let mut windows: Vec<_> = finals.iter().collect();
                windows.sort();
                windows
                    .into_iter()
                    .flat_map(|((k, start), count)| {
                        let key = encode_windowed_key(format!("key-{k}").as_bytes(), *start);
                        // A partial count first, as a cache eviction emits.
                        let partial = (*count > 1).then(|| (key.to_vec(), count - 1));
                        partial.into_iter().chain([(key.to_vec(), *count)])
                    })
                    .collect()
            }
        }
    }

    fn check(reference: &Reference, outputs: &[(Vec<u8>, i64)]) -> Check {
        let mut checker = Checker::new(reference);
        for (key, value) in outputs {
            checker.observe(key, &value.to_bytes());
        }
        checker.finish()
    }

    fn references() -> Vec<Reference> {
        let uniform = generate(Shape::Uniform { keys: 32 }, 4000, 11);
        let disorder = generate(
            Shape::ZipfDisorder { keys: 32, late_share: 0.2, max_late_ms: 5000 },
            100_000,
            11,
        );
        vec![
            Reference::of(Topo::Passthrough, &uniform, 32),
            Reference::of(Topo::ReduceSum, &uniform, 32),
            Reference::of(Topo::ReduceMax, &uniform, 32),
            Reference::of(Topo::WindowCount, &disorder, 32),
        ]
    }

    #[test]
    fn correct_outputs_have_no_failures() {
        for reference in references() {
            let outputs = correct_outputs(&reference);
            let result = check(&reference, &outputs);
            assert_eq!(result.failures, Failures::default());
            assert!(result.expected > 0);
            assert_eq!(result.failed_share(), 0.0);
        }
    }

    #[test]
    fn a_dropped_output_is_missing() {
        for reference in references() {
            let mut outputs = correct_outputs(&reference);
            // The last output of a key/window: the final result never arrives.
            outputs.pop();
            let result = check(&reference, &outputs);
            assert_eq!(result.failures.missing, 1, "{:?}", result.failures);
            assert!(result.failed_share() > 0.0);
        }
    }

    #[test]
    fn a_dropped_output_in_mid_sequence_is_missing_not_wrong() {
        let reference = Reference::Sequences(vec![vec![1, 2, 3, 4]]);
        let outputs: Vec<_> = [1, 3, 4].iter().map(|v| (b"key-0".to_vec(), *v)).collect();
        let failures = check(&reference, &outputs).failures;
        assert_eq!(failures, Failures { missing: 1, duplicated: 0, wrong: 0 });
    }

    #[test]
    fn a_duplicated_output_is_counted() {
        for reference in references() {
            let mut outputs = correct_outputs(&reference);
            let last = outputs.last().unwrap().clone();
            outputs.push(last);
            let result = check(&reference, &outputs);
            assert_eq!(result.failures.duplicated, 1, "{:?}", result.failures);
            assert!(result.failed_share() > 0.0);
        }
    }

    #[test]
    fn a_wrong_valued_output_is_counted() {
        for reference in references() {
            let mut outputs = correct_outputs(&reference);
            outputs.last_mut().unwrap().1 += 1_000_003;
            let result = check(&reference, &outputs);
            assert!(result.failures.wrong >= 1, "{:?}", result.failures);
            assert!(result.failed_share() > 0.0);
        }
    }

    #[test]
    fn an_output_for_an_unknown_key_is_wrong() {
        let reference = Reference::Sequences(vec![vec![1]]);
        let outputs = vec![(b"key-0".to_vec(), 1), (b"key-9".to_vec(), 1), (b"junk".to_vec(), 1)];
        assert_eq!(check(&reference, &outputs).failures.wrong, 2);
    }

    #[test]
    fn reference_drops_events_past_grace_per_partition() {
        // One key, so one partition's stream time. Window [0, 1000) closes
        // when stream time reaches 1000 + 2000.
        let at = |ts| Input { key: 0, value: 1, ts };
        let inputs = [at(10), at(2999), at(20), at(3000), at(30), at(3500)];
        let Reference::Windows { finals, late_drops } =
            Reference::of(Topo::WindowCount, &inputs, 1)
        else {
            unreachable!()
        };
        assert_eq!(finals[&(0, 0)], 2, "ts 10 and the in-grace ts 20");
        assert_eq!(finals[&(0, 2000)], 1);
        assert_eq!(finals[&(0, 3000)], 2);
        assert_eq!(late_drops, 1, "ts 30 arrived after stream time 3000");
    }

    #[test]
    fn a_late_event_counted_past_grace_is_wrong() {
        let at = |ts| Input { key: 0, value: 1, ts };
        let inputs = [at(10), at(3000), at(30)];
        let reference = Reference::of(Topo::WindowCount, &inputs, 1);
        let window = |start| encode_windowed_key(b"key-0", start).to_vec();
        // A program that ignores grace counts ts 30 into window 0.
        let miscounted = vec![(window(0), 1), (window(3000), 1), (window(0), 2)];
        let result = check(&reference, &miscounted);
        assert_eq!(result.failures, Failures { missing: 0, duplicated: 0, wrong: 1 });
        assert!(result.failed_share() > 0.0);
    }

    #[test]
    fn a_result_for_a_window_with_only_dropped_events_is_wrong() {
        let at = |ts| Input { key: 0, value: 1, ts };
        let inputs = [at(5000), at(10)];
        let reference = Reference::of(Topo::WindowCount, &inputs, 1);
        assert_eq!(reference.expected_results(), 1);
        let outputs = vec![
            (encode_windowed_key(b"key-0", 5000).to_vec(), 1),
            (encode_windowed_key(b"key-0", 0).to_vec(), 1),
        ];
        assert_eq!(check(&reference, &outputs).failures.wrong, 1);
    }
}
