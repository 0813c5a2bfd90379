//! Ablation (§3.2/§4): log compaction keeps changelogs bounded by state
//! size, which is what makes restore-by-replay cheap. Measures a compaction
//! pass over logs with different update-to-key ratios, and the resulting
//! restore (full scan) speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use klog::batch::BatchMeta;
use klog::compaction::{compact, CompactionOptions};
use klog::{IsolationLevel, PartitionLog, Record};

fn changelog(keys: usize, updates_per_key: usize) -> PartitionLog {
    let mut log = PartitionLog::new();
    for round in 0..updates_per_key {
        for k in 0..keys {
            log.append(
                BatchMeta::plain(),
                vec![Record::of_str(&format!("key-{k}"), &format!("v{round}"), round as i64)],
            )
            .unwrap();
        }
    }
    log
}

fn bench_compaction_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("compaction/pass");
    group.sample_size(20);
    for &updates in &[2usize, 10, 50] {
        group.bench_with_input(
            BenchmarkId::new("updates-per-key", updates),
            &updates,
            |b, &updates| {
                b.iter_batched(
                    || changelog(500, updates),
                    |mut log| {
                        let stats = compact(&mut log, CompactionOptions::default()).unwrap();
                        assert_eq!(stats.records_after, 500);
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

fn bench_restore_scan(c: &mut Criterion) {
    // Restore = full changelog scan; compaction shrinks it by the
    // update ratio.
    let mut group = c.benchmark_group("compaction/restore-scan");
    group.sample_size(20);
    let scan = |log: &PartitionLog| {
        let mut pos = log.log_start();
        let mut n = 0usize;
        loop {
            let f = log.fetch(pos, 4096, IsolationLevel::ReadUncommitted).unwrap();
            if f.count() == 0 {
                break;
            }
            n += f.count();
            pos = f.next_offset;
        }
        n
    };
    group.bench_function("uncompacted-20x", |b| {
        let log = changelog(500, 20);
        b.iter(|| assert_eq!(scan(&log), 10_000));
    });
    group.bench_function("compacted-20x", |b| {
        let mut log = changelog(500, 20);
        compact(&mut log, CompactionOptions::default()).unwrap();
        b.iter(|| assert_eq!(scan(&log), 500));
    });
    group.finish();
}

criterion_group!(benches, bench_compaction_pass, bench_restore_scan);
criterion_main!(benches);
