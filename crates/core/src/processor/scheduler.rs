//! Work-stealing task scheduler: the multi-core execution engine behind the
//! paper's scaling claim (§6.1: "throughput increases with the total number
//! of Kafka Streams threads").
//!
//! A [`StreamTask`] is the unit of scheduling. Each process cycle every
//! owned task is enqueued exactly once on a per-worker run queue
//! (round-robin by task index); a worker drains its own queue from the
//! front and, when empty, *steals* from the back of another worker's queue.
//! Because a task appears on exactly one queue per cycle and a worker takes
//! exclusive ownership of a task slot before running it, per-partition
//! ordering is preserved with no locking inside the hot processing path.
//!
//! Why this is safe under exactly-once: a worker's share of a cycle —
//! fetch, process, punctuate — only reads broker logs and mutates
//! *task-local* state (stores, output buffers, offsets). Everything that
//! touches the instance's single EOS-v2 transactional producer (draining
//! outputs, changelog appends, offset commits) stays on the instance
//! thread: [`run_cycle`] hands every task whose cycle succeeded to the
//! caller's `drain` closure on the calling thread. Commit transactions
//! therefore remain scoped per instance and no cross-task locking is
//! introduced.
//!
//! One engine, two executors over the same `run_one` step:
//! * *inline* — one worker, or a scheduler seed is set: the workers are
//!   stepped on the calling thread, in rounds over a seed-shuffled visit
//!   order, and each task is drained right after its slot. One worker is
//!   the plain task-id-order loop; with a seed, `simtest --workers k`
//!   replays byte-identically while still exercising the steal paths.
//! * *threads* — several workers and no seed: one scoped OS thread per
//!   worker with real work stealing; tasks are drained after the join, in
//!   task-id order.

use crate::config::StreamsConfig;
use crate::error::StreamsError;
use crate::task::StreamTask;
use crate::topology::TaskId;
use kbroker::{Cluster, IsolationLevel};
use parking_lot::Mutex;
use simkit::DetRng;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// What one scheduled process cycle did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleOutcome {
    /// Input records processed across all tasks.
    pub processed: usize,
    /// Tasks executed by a worker other than their home worker.
    pub steals: u64,
}

/// One schedulable task slot, borrowing its task from the instance's task
/// map for the cycle. The slot mutex hands a worker exclusive ownership of
/// the task for the duration of its cycle; since each slot is enqueued
/// exactly once per cycle, the mutex is never contended — it exists to lend
/// the task across the thread boundary soundly.
struct Slot<'a> {
    task: &'a mut StreamTask,
    /// Records the task's cycle processed, or why the cycle or its drain
    /// failed.
    outcome: Result<usize, StreamsError>,
}

/// Per-worker FIFO run queues with back-of-queue stealing.
struct RunQueues {
    queues: Vec<Mutex<VecDeque<usize>>>,
    steals: AtomicU64,
}

impl RunQueues {
    fn new(n_slots: usize, workers: usize) -> Self {
        // Round-robin home assignment: slot i belongs to worker i % W. Each
        // slot is enqueued exactly once per cycle, so per-partition ordering
        // needs no further coordination.
        let queues =
            (0..workers).map(|w| Mutex::new((w..n_slots).step_by(workers).collect())).collect();
        Self { queues, steals: AtomicU64::new(0) }
    }

    /// Pop the front of worker `w`'s own queue.
    fn pop_own(&self, w: usize) -> Option<usize> {
        self.queues[w].lock().pop_front()
    }

    /// Steal from the *back* of another worker's queue, scanning victims
    /// starting at `start` (wrapping, skipping `w` itself).
    fn steal(&self, w: usize, start: usize) -> Option<usize> {
        let n = self.queues.len();
        for i in 0..n {
            let victim = (start + i) % n;
            if victim == w {
                continue;
            }
            if let Some(idx) = self.queues[victim].lock().pop_back() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(idx);
            }
        }
        None
    }
}

/// One process cycle's shared state: the slots, their run queues, and what
/// a task cycle needs from the instance.
struct Cycle<'a> {
    slots: Vec<Mutex<Slot<'a>>>,
    queues: RunQueues,
    /// Execution sequence number shared by all workers: the slot spans'
    /// sub-millisecond order on the exported timeline.
    seq: AtomicU64,
    parent: kobs::SpanHandle,
    cluster: &'a Cluster,
    max_poll_records: usize,
    isolation: IsolationLevel,
    wall_ms: i64,
}

impl Cycle<'_> {
    /// Run worker `worker`'s next task cycle (poll-process + punctuate): the
    /// front of its own queue, else a steal scanning from `victim`. Returns
    /// the slot it ran, `None` once every queue is empty. Task-local
    /// mutation only — nothing here touches the instance's producer or any
    /// other task.
    ///
    /// The slot's ktrace span is entered for the duration, so the task's
    /// fetch/process/punctuate spans parent under it on whichever thread
    /// runs the slot. Span times never come from the wall clock (that would
    /// break byte-identical replay): the start is the cycle's virtual time
    /// plus the slot's execution sequence number as a µs offset, which both
    /// orders the slots on the timeline and keeps sibling intervals disjoint
    /// so critical-path self times tile the cycle.
    fn run_one(&self, worker: usize, victim: usize) -> Option<usize> {
        let (idx, stolen) = match self.queues.pop_own(worker) {
            Some(idx) => (idx, false),
            None => (self.queues.steal(worker, victim)?, true),
        };
        let start_us = self.wall_ms * 1000 + self.seq.fetch_add(1, Ordering::Relaxed) as i64;
        let span = kobs::ktrace::start_span(
            start_us,
            "worker",
            Some(worker as u32),
            kobs::ktrace::Parent::Of(self.parent),
            "task",
            || {
                vec![
                    ("slot", kobs::FieldValue::from(idx)),
                    ("stolen", kobs::FieldValue::from(u64::from(stolen))),
                ]
            },
        );
        {
            let _enter = kobs::ktrace::enter(span);
            let mut slot = self.slots[idx].lock();
            slot.outcome = slot
                .task
                .poll_and_process(self.cluster, self.max_poll_records, self.isolation)
                .and_then(|n| slot.task.punctuate(self.wall_ms).map(|()| n));
        }
        kobs::ktrace::finish_span(span, start_us + 1);
        Some(idx)
    }

    /// Hand slot `idx`'s task to `drain` if its cycle succeeded; a drain
    /// error becomes the slot's outcome.
    fn drain_slot(
        &self,
        idx: usize,
        drain: &mut impl FnMut(&mut StreamTask) -> Result<(), StreamsError>,
    ) {
        let mut slot = self.slots[idx].lock();
        if slot.outcome.is_ok() {
            if let Err(e) = drain(slot.task) {
                slot.outcome = Err(e);
            }
        }
    }
}

/// Execute one process cycle over `tasks` on `config.num_worker_threads`
/// workers (never more than there are tasks) and hand every task whose
/// cycle succeeded to `drain`, exactly once and on the calling thread.
/// Every task runs even when another one fails; the error surfaced is then
/// the first in task-id order, independent of which worker hit it first.
///
/// Under the inline executor one task cycle runs per worker per round, with
/// the round's worker *visit order* shuffled from the seed stream. The
/// shuffle is what makes steals reachable there — round-robin home
/// assignment keeps queue lengths within one of each other, so under a
/// fixed visit order every owner would drain its own queue before any idle
/// worker got a turn to steal from it. A shuffled order models real pace
/// divergence: a worker visited ahead of a slower peer finds that peer's
/// queue still populated and steals from its back. The interleaving — visit
/// order and victim choice alike — is a pure function of (task set, worker
/// count, seed, `cycle`), which is what keeps `simtest` replays
/// byte-identical. The threads executor makes no replay promise.
pub fn run_cycle(
    config: &StreamsConfig,
    parent: kobs::SpanHandle,
    tasks: &mut BTreeMap<TaskId, StreamTask>,
    cluster: &Cluster,
    isolation: IsolationLevel,
    cycle: u64,
    mut drain: impl FnMut(&mut StreamTask) -> Result<(), StreamsError>,
) -> Result<CycleOutcome, StreamsError> {
    let workers = config.num_worker_threads.clamp(1, tasks.len().max(1));
    let cx = Cycle {
        queues: RunQueues::new(tasks.len(), workers),
        slots: tasks.values_mut().map(|task| Mutex::new(Slot { task, outcome: Ok(0) })).collect(),
        seq: AtomicU64::new(0),
        parent,
        cluster,
        max_poll_records: config.max_poll_records,
        isolation,
        wall_ms: cluster.now_ms(),
    };
    if workers == 1 || config.scheduler_seed.is_some() {
        // Per-cycle child stream: steal decisions replay deterministically
        // yet vary between cycles the way a real pool's would.
        let mut rng = DetRng::new(config.scheduler_seed.unwrap_or(0)).derive(cycle);
        let mut order: Vec<usize> = (0..workers).collect();
        let mut ran = true;
        while ran {
            // Fisher–Yates from the cycle stream: a fresh visit order per round.
            for i in (1..order.len()).rev() {
                order.swap(i, rng.index(i + 1));
            }
            ran = false;
            for &w in &order {
                if let Some(idx) = cx.run_one(w, rng.index(workers)) {
                    cx.drain_slot(idx, &mut drain);
                    ran = true;
                }
            }
        }
    } else {
        // Worker `w` scans victims from `w + 1` upward and exits when every
        // queue is empty (each slot is queued once per cycle, so there is
        // no re-arm race).
        std::thread::scope(|scope| {
            for w in 0..workers {
                let cx = &cx;
                scope.spawn(move || while cx.run_one(w, w + 1).is_some() {});
            }
        });
        for idx in 0..cx.slots.len() {
            cx.drain_slot(idx, &mut drain);
        }
    }
    let steals = cx.queues.steals.load(Ordering::Relaxed);
    // Slots are in task-id order, so the sum stops at the first error in
    // that order.
    let processed =
        cx.slots.into_iter().map(|slot| slot.into_inner().outcome).sum::<Result<_, _>>()?;
    Ok(CycleOutcome { processed, steals })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::StreamsBuilder;
    use kbroker::{Producer, ProducerConfig, TopicConfig, TopicPartition};

    const RECORDS_PER_PARTITION: usize = 3;

    /// `tasks` passthrough tasks over a `partitions`-partition topic with
    /// records in every partition. Tasks beyond the partition count read a
    /// partition that does not exist, so their cycle fails.
    fn fixture(partitions: u32, tasks: u32) -> (Cluster, BTreeMap<TaskId, StreamTask>) {
        let cluster = Cluster::builder().brokers(1).replication(1).build();
        cluster.create_topic("in", TopicConfig::new(partitions)).unwrap();
        let mut producer = Producer::new(cluster.clone(), ProducerConfig::default());
        for p in 0..partitions {
            for i in 0..RECORDS_PER_PARTITION {
                let record = klog::Record {
                    key: Some(bytes::Bytes::from_static(b"k")),
                    value: Some(bytes::Bytes::from_static(b"v")),
                    timestamp: i as i64,
                };
                producer.send_to_partition(&TopicPartition::new("in", p), record).unwrap();
            }
        }
        producer.flush().unwrap();
        let builder = StreamsBuilder::new();
        builder.stream::<String, String>("in").to("out");
        let topology = builder.build().unwrap();
        let tasks = (0..tasks)
            .map(|partition| {
                let id = TaskId { subtopology: 0, partition };
                (id, StreamTask::new(&topology, id, "app").unwrap())
            })
            .collect();
        (cluster, tasks)
    }

    /// Every executor shape: one worker with and without a seed, seeded and
    /// threaded pools, and more workers than tasks.
    const SHAPES: [(usize, Option<u64>); 6] =
        [(1, None), (1, Some(7)), (3, Some(7)), (8, Some(7)), (3, None), (8, None)];

    /// Run one cycle under `shape`, panicking if `drain` ever runs off the
    /// calling thread.
    fn cycle(
        (workers, seed): (usize, Option<u64>),
        cluster: &Cluster,
        tasks: &mut BTreeMap<TaskId, StreamTask>,
        mut drain: impl FnMut(&mut StreamTask) -> Result<(), StreamsError>,
    ) -> Result<CycleOutcome, StreamsError> {
        let mut config = StreamsConfig::new("app").with_num_worker_threads(workers);
        config.scheduler_seed = seed;
        let caller = std::thread::current().id();
        let isolation = IsolationLevel::ReadUncommitted;
        run_cycle(&config, kobs::SpanHandle::NONE, tasks, cluster, isolation, 0, |task| {
            assert_eq!(std::thread::current().id(), caller, "drain left the instance thread");
            drain(task)
        })
    }

    #[test]
    fn stream_task_is_send() {
        // The threads executor lends tasks to worker threads;
        // `Processor: Send` is the supertrait that carries this. A compile
        // failure here means an operator lost its `Send`-ability.
        fn assert_send<T: Send>() {}
        assert_send::<StreamTask>();
    }

    #[test]
    fn drain_runs_once_per_task_on_the_calling_thread() {
        for shape in SHAPES {
            let (cluster, mut tasks) = fixture(6, 6);
            let mut drained = Vec::new();
            let outcome = cycle(shape, &cluster, &mut tasks, |task| {
                assert_eq!(task.take_outputs().len(), RECORDS_PER_PARTITION, "cycle ran first");
                drained.push(task.id);
                Ok(())
            })
            .unwrap();
            assert_eq!(outcome.processed, 6 * RECORDS_PER_PARTITION, "{shape:?}");
            if shape.0 == 1 {
                assert_eq!(outcome.steals, 0);
                assert!(drained.is_sorted(), "one worker runs in task-id order: {drained:?}");
            }
            drained.sort();
            assert_eq!(drained, tasks.keys().copied().collect::<Vec<_>>(), "{shape:?}");
        }
    }

    #[test]
    fn failed_task_is_not_drained_and_first_error_in_id_order_surfaces() {
        for shape in SHAPES {
            // Tasks 0_4 and 0_5 read partitions the topic does not have.
            let (cluster, mut tasks) = fixture(4, 6);
            let mut drained = Vec::new();
            let err = cycle(shape, &cluster, &mut tasks, |task| {
                drained.push(task.id);
                Ok(())
            })
            .unwrap_err();
            assert!(
                matches!(
                    &err,
                    StreamsError::Broker(kbroker::BrokerError::UnknownPartition {
                        partition: 4,
                        ..
                    })
                ),
                "{shape:?}: {err:?}"
            );
            drained.sort();
            let healthy: Vec<TaskId> = tasks.keys().copied().take(4).collect();
            assert_eq!(drained, healthy, "{shape:?}: the healthy tasks still ran and drained");
        }
    }

    #[test]
    fn drain_error_is_the_tasks_error() {
        for shape in SHAPES {
            let (cluster, mut tasks) = fixture(3, 3);
            let result = cycle(shape, &cluster, &mut tasks, |task| {
                Err(StreamsError::InvalidOperation(task.id.to_string()))
            });
            assert!(
                matches!(&result, Err(StreamsError::InvalidOperation(id)) if id == "0_0"),
                "{shape:?}: {result:?}"
            );
        }
    }

    #[test]
    fn round_robin_home_queues() {
        let q = RunQueues::new(5, 2);
        assert_eq!(q.pop_own(0), Some(0));
        assert_eq!(q.pop_own(0), Some(2));
        assert_eq!(q.pop_own(1), Some(1));
        assert_eq!(q.pop_own(1), Some(3));
        assert_eq!(q.pop_own(0), Some(4));
        assert_eq!(q.pop_own(0), None);
    }

    #[test]
    fn steal_takes_from_the_back() {
        let q = RunQueues::new(4, 2);
        // Worker 1's queue holds [1, 3]; worker 0 steals the back (3).
        assert_eq!(q.steal(0, 1), Some(3));
        assert_eq!(q.steals.load(Ordering::Relaxed), 1);
        assert_eq!(q.pop_own(1), Some(1));
    }

    #[test]
    fn steal_skips_self_and_wraps() {
        let q = RunQueues::new(2, 4);
        // Workers 2 and 3 have empty queues; stealing from start=2 must wrap
        // past itself (and past empty victims) to reach worker 0 or 1.
        assert_eq!(q.steal(2, 2), Some(0));
        assert_eq!(q.steal(3, 3), Some(1));
        assert_eq!(q.steal(0, 1), None, "everything drained");
    }
}
