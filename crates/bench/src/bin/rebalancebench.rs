//! Rebalance bench — how sticky is the assignor, and what does a
//! rebalance actually pause?
//!
//! **Part A — assignor scale sweep.** The deterministic leaderless
//! assignor is a pure function, so its stickiness and balance bounds can
//! be measured directly at fleet scale: for N instances × T tasks it
//! computes the steady-state assignment, then applies three membership
//! deltas and counts the tasks whose owner changed:
//!
//! * **restart** — identical membership and history: moves must be 0.
//! * **add one** — a brand-new member joins: moves ≤ `ceil(T/(N+1))`
//!   (exactly the load the newcomer must absorb, nothing else shuffles).
//! * **remove one** — one member leaves: only its orphaned tasks move;
//!   no task belonging to a survivor changes hands.
//!
//! Every scenario also re-checks the ±1 balance bound and assignment
//! completeness/disjointness, and times the assignment computation.
//! Historically the assignor was positional round-robin (`i % members`),
//! which reshuffled nearly everything on any delta — the regression this
//! bench gates against.
//!
//! **Part B — end-to-end cooperative pause.** A real cluster runs a
//! counting aggregation on 2 instances under sustained input; a third
//! instance joins. Cooperative mode must (a) move at most `ceil(T/3)`
//! tasks, (b) revoke *only* the moved tasks — zero unaffected-task
//! revocations, (c) keep the unaffected tasks committing during the whole
//! warm-up + transfer window, and (d) never dirty-close a task.
//!
//! `--quick` runs the smallest Part A cell plus the Part B gates (the CI
//! smoke); `--json` emits one machine-readable object (committed as
//! `results/BENCH_rebalance.json`).

use bytes::Bytes;
use kbroker::{Cluster, Producer, ProducerConfig, TopicConfig};
use kobs::json::{num, obj, str as jstr, Value};
use kstreams::assignment::assign_tasks_sticky;
use kstreams::topology::TaskId;
use kstreams::{KSerde, KafkaStreamsApp, StreamsBuilder, StreamsConfig};
use simkit::ManualClock;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const APP_ID: &str = "rebalancebench";

// ---------------------------------------------------------------- Part A

/// Owner of every task in an assignment.
fn owners(assignment: &BTreeMap<String, Vec<TaskId>>) -> BTreeMap<TaskId, String> {
    let mut map = BTreeMap::new();
    for (m, tasks) in assignment {
        for t in tasks {
            assert!(map.insert(*t, m.clone()).is_none(), "task {t} assigned to two members");
        }
    }
    map
}

/// Tasks whose owner differs between two assignments (present in both).
fn moved(before: &BTreeMap<TaskId, String>, after: &BTreeMap<TaskId, String>) -> Vec<TaskId> {
    after
        .iter()
        .filter(|(t, m)| before.get(t).is_some_and(|old| old != *m))
        .map(|(t, _)| *t)
        .collect()
}

fn check_balance(assignment: &BTreeMap<String, Vec<TaskId>>, tasks: usize) {
    let loads: Vec<usize> = assignment.values().map(Vec::len).collect();
    let (min, max) = (loads.iter().min().unwrap(), loads.iter().max().unwrap());
    assert!(max - min <= 1, "balance bound violated: min={min} max={max}");
    assert_eq!(loads.iter().sum::<usize>(), tasks, "assignment incomplete");
}

struct ScaleRow {
    instances: usize,
    tasks: usize,
    moved_restart: usize,
    moved_add: usize,
    add_bound: usize,
    moved_remove_survivor: usize,
    orphans: usize,
    assign_us: f64,
}

/// One Part A cell: steady state at N members, then the three deltas.
fn scale_cell(n: usize, t: usize) -> ScaleRow {
    let tasks: Vec<TaskId> =
        (0..t).map(|p| TaskId { subtopology: 0, partition: p as u32 }).collect();
    let members: Vec<String> = (0..n).map(|i| format!("i{i:03}")).collect();
    let base = assign_tasks_sticky(&tasks, &members, &BTreeMap::new());
    check_balance(&base, t);
    let base_owners = owners(&base);

    // Rolling restart: same membership, same history — nothing may move.
    let restart = assign_tasks_sticky(&tasks, &members, &base);
    check_balance(&restart, t);
    let moved_restart = moved(&base_owners, &owners(&restart)).len();

    // Add one member: only the newcomer's fair share may move.
    let mut grown = members.clone();
    grown.push(format!("i{n:03}"));
    let added = assign_tasks_sticky(&tasks, &grown, &base);
    check_balance(&added, t);
    let moved_add = moved(&base_owners, &owners(&added)).len();
    let add_bound = t.div_ceil(n + 1);

    // Remove one member: survivors only *receive* orphans; no task a
    // survivor already owned may change hands.
    let removed_member = members[n / 2].clone();
    let shrunk: Vec<String> = members.iter().filter(|m| **m != removed_member).cloned().collect();
    let removed = assign_tasks_sticky(&tasks, &shrunk, &base);
    check_balance(&removed, t);
    let removed_owners = owners(&removed);
    let orphans = base[&removed_member].len();
    let moved_remove_survivor = moved(&base_owners, &removed_owners)
        .into_iter()
        .filter(|t| base_owners[t] != removed_member)
        .count();

    // Time the steady-state sticky computation (the per-rebalance cost
    // every member pays).
    let reps = if t >= 1000 { 20 } else { 100 };
    let start = Instant::now();
    for _ in 0..reps {
        let a = assign_tasks_sticky(&tasks, &members, &base);
        std::hint::black_box(&a);
    }
    let assign_us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;

    ScaleRow {
        instances: n,
        tasks: t,
        moved_restart,
        moved_add,
        add_bound,
        moved_remove_survivor,
        orphans,
        assign_us,
    }
}

// ---------------------------------------------------------------- Part B

const PARTITIONS: u32 = 12;

fn counting_topology() -> Arc<kstreams::topology::Topology> {
    let builder = StreamsBuilder::new();
    builder
        .stream::<String, String>("events")
        .group_by_key()
        .count("counts-store")
        .to_stream()
        .to("out");
    Arc::new(builder.build().unwrap())
}

struct JoinOutcome {
    /// Steps from the join until the newcomer actively owned its tasks.
    transfer_steps: u64,
    /// Tasks the newcomer ended up owning.
    tasks_moved: u64,
    /// Revocations on the incumbents across the whole window.
    tasks_revoked: u64,
    /// Commits by the incumbents *during* the transfer window.
    incumbent_commits_during: u64,
    /// Tasks dirty-closed (aborted work) anywhere in the window.
    dirty_closed: u64,
    /// Fleet-wide exactly-once sanity: committed input records processed.
    fleet_processed: u64,
}

/// Run 2 incumbents to steady state, join a third, and measure the window.
fn join_cycle() -> JoinOutcome {
    kobs::reset();
    let clock = ManualClock::new();
    let cluster = Cluster::builder().brokers(1).replication(1).clock(clock.shared()).build();
    cluster.create_topic("events", TopicConfig::new(PARTITIONS)).unwrap();
    cluster.create_topic("out", TopicConfig::new(PARTITIONS)).unwrap();

    let config = || StreamsConfig::new(APP_ID).exactly_once().with_commit_interval_ms(10);
    let mut feeder = Producer::new(cluster.clone(), ProducerConfig::default());
    let mut fed = 0u64;
    let mut feed = |feeder: &mut Producer, n: u64| {
        for i in 0..n {
            feeder
                .send(
                    "events",
                    Some(format!("k{}", (fed + i) % 64).to_bytes()),
                    Some(Bytes::from_static(b"x")),
                    (fed + i) as i64,
                )
                .unwrap();
        }
        feeder.flush().unwrap();
        fed += n;
    };

    let mut apps: Vec<KafkaStreamsApp> = (0..2)
        .map(|i| {
            KafkaStreamsApp::new(cluster.clone(), counting_topology(), config(), format!("i{i}"))
        })
        .collect();
    for app in apps.iter_mut() {
        app.start().unwrap();
    }
    // Steady state: both incumbents own tasks and have committed.
    for _ in 0..200 {
        feed(&mut feeder, 8);
        for app in apps.iter_mut() {
            app.step().unwrap();
        }
        clock.advance(10);
        if apps.iter().all(|a| !a.task_ids().is_empty() && a.metrics().commits > 0) {
            break;
        }
    }
    assert!(
        apps.iter().all(|a| !a.task_ids().is_empty() && a.metrics().commits > 0),
        "incumbents did not reach steady state"
    );
    let commits_before: u64 = apps.iter().map(|a| a.metrics().commits).sum();
    let pre = kobs::snapshot();
    let pre_counter = |name: &str| pre.counter(name).unwrap_or(0);
    let (revoked_pre, dirty_pre) = (
        pre_counter("kstreams.rebalance.tasks_revoked"),
        pre_counter("kstreams.rebalance.dirty_closed"),
    );

    // The join. Under cooperative rebalancing the newcomer first warms
    // standbys; tasks transfer only when it reports them warm.
    let mut newcomer = KafkaStreamsApp::new(cluster.clone(), counting_topology(), config(), "i2");
    newcomer.start().unwrap();
    let expected = (PARTITIONS as usize).div_ceil(3);
    let mut transfer_steps = 0u64;
    for _ in 0..2000 {
        if newcomer.task_ids().len() >= expected {
            break;
        }
        transfer_steps += 1;
        feed(&mut feeder, 4);
        for app in apps.iter_mut() {
            app.step().unwrap();
        }
        newcomer.step().unwrap();
        clock.advance(10);
    }
    assert!(
        newcomer.task_ids().len() >= expected,
        "transfer did not complete: newcomer owns {:?}",
        newcomer.task_ids()
    );
    let commits_after: u64 = apps.iter().map(|a| a.metrics().commits).sum();
    // Settle: let the incumbents apply the final transfer generation too
    // (the newcomer adopts as soon as *it* sees the generation; the old
    // owners release on their own next step), so the revocation counters
    // reflect the completed move.
    for _ in 0..10 {
        for app in apps.iter_mut() {
            app.step().unwrap();
        }
        newcomer.step().unwrap();
        clock.advance(10);
    }

    let snap = kobs::snapshot();
    let fleet_processed =
        apps.iter().chain(std::iter::once(&newcomer)).map(|a| a.metrics().records_processed).sum();
    JoinOutcome {
        transfer_steps,
        tasks_moved: newcomer.task_ids().len() as u64,
        tasks_revoked: snap.counter("kstreams.rebalance.tasks_revoked").unwrap_or(0) - revoked_pre,
        incumbent_commits_during: commits_after - commits_before,
        dirty_closed: snap.counter("kstreams.rebalance.dirty_closed").unwrap_or(0) - dirty_pre,
        fleet_processed,
    }
}

// ------------------------------------------------------------------ main

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let json = std::env::args().any(|a| a == "--json");

    let cells: &[(usize, usize)] = if quick {
        &[(10, 100)]
    } else {
        &[(10, 100), (10, 1000), (50, 100), (50, 1000), (100, 100), (100, 1000)]
    };

    let mut scale_rows: Vec<Value> = Vec::new();
    if !json {
        println!("# Part A — assignor scale sweep (pure deterministic assignment)");
        println!(
            "{:>9} {:>6} {:>13} {:>9} {:>9} {:>15} {:>8} {:>10}",
            "instances",
            "tasks",
            "moved-restart",
            "moved-add",
            "add-bound",
            "moved-survivor",
            "orphans",
            "assign-us"
        );
    }
    for &(n, t) in cells {
        let row = scale_cell(n, t);
        // The gates: a restart moves nothing, a join moves at most the
        // newcomer's fair share, a leave moves only the orphans.
        assert_eq!(row.moved_restart, 0, "restart must move nothing ({n}x{t})");
        assert!(
            row.moved_add <= row.add_bound,
            "join moved {} > ceil({t}/{}) = {} ({n} instances)",
            row.moved_add,
            n + 1,
            row.add_bound
        );
        assert_eq!(
            row.moved_remove_survivor, 0,
            "leave must move only the departed member's tasks ({n}x{t})"
        );
        if json {
            scale_rows.push(obj(vec![
                ("instances", num(row.instances as f64)),
                ("tasks", num(row.tasks as f64)),
                ("moved_restart", num(row.moved_restart as f64)),
                ("moved_add", num(row.moved_add as f64)),
                ("add_bound", num(row.add_bound as f64)),
                ("moved_remove_survivor", num(row.moved_remove_survivor as f64)),
                ("orphans", num(row.orphans as f64)),
                ("assign_us", num(row.assign_us)),
            ]));
        } else {
            println!(
                "{:>9} {:>6} {:>13} {:>9} {:>9} {:>15} {:>8} {:>10.1}",
                row.instances,
                row.tasks,
                row.moved_restart,
                row.moved_add,
                row.add_bound,
                row.moved_remove_survivor,
                row.orphans,
                row.assign_us
            );
        }
    }

    if !json {
        println!();
        println!("# Part B — one instance joins 2 under sustained load ({PARTITIONS} tasks)");
        println!(
            "{:>14} {:>11} {:>13} {:>16} {:>12}",
            "transfer-steps", "tasks-moved", "tasks-revoked", "incumbent-commits", "dirty-closed"
        );
    }
    let o = join_cycle();
    let bound = (PARTITIONS as u64).div_ceil(3);
    assert!(
        o.tasks_moved <= bound,
        "moved {} tasks > ceil({PARTITIONS}/3) = {bound}",
        o.tasks_moved
    );
    // Only the moved tasks are ever revoked (zero pause for unaffected
    // tasks), the incumbents keep committing through the window, and
    // nothing dirty-closes.
    assert_eq!(
        o.tasks_revoked, o.tasks_moved,
        "revoked {} != moved {} — unaffected tasks were paused",
        o.tasks_revoked, o.tasks_moved
    );
    assert!(o.incumbent_commits_during > 0, "incumbents must commit during the transfer window");
    assert_eq!(o.dirty_closed, 0, "no task may dirty-close");
    if json {
        let join_row = obj(vec![
            ("mode", jstr("cooperative".to_string())),
            ("partitions", num(PARTITIONS as f64)),
            ("transfer_steps", num(o.transfer_steps as f64)),
            ("tasks_moved", num(o.tasks_moved as f64)),
            ("tasks_revoked", num(o.tasks_revoked as f64)),
            ("incumbent_commits_during", num(o.incumbent_commits_during as f64)),
            ("dirty_closed", num(o.dirty_closed as f64)),
            ("fleet_processed", num(o.fleet_processed as f64)),
        ]);
        println!(
            "{}",
            obj(vec![
                ("figure", jstr("rebalancebench".to_string())),
                ("scale", Value::Arr(scale_rows)),
                ("join", Value::Arr(vec![join_row])),
            ])
        );
        return;
    }
    println!(
        "{:>14} {:>11} {:>13} {:>16} {:>12}",
        o.transfer_steps,
        o.tasks_moved,
        o.tasks_revoked,
        o.incumbent_commits_during,
        o.dirty_closed
    );
    println!();
    println!("# Paper check (§3.3): workload balance with task stickiness. The sticky");
    println!("# assignor bounds a one-member delta to the newcomer's fair share, and the");
    println!("# cooperative protocol turns the remaining moves into deferred, warm");
    println!("# transfers — unaffected tasks never stop committing.");
}
