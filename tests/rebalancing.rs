//! Elastic scaling tests (§3.3): instances joining and leaving mid-stream,
//! task redistribution, state migration, and exactly-once preservation
//! across every membership change.

use bytes::Bytes;
use kbroker::group::SESSION_TIMEOUT_MS;
use kbroker::{
    Cluster, Consumer, ConsumerConfig, Producer, ProducerConfig, TopicConfig, TopicPartition,
};
use kstreams::{KSerde, KafkaStreamsApp, StreamsBuilder, StreamsConfig};
use simkit::ManualClock;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

fn counting_topology() -> Arc<kstreams::topology::Topology> {
    let builder = StreamsBuilder::new();
    builder.stream::<String, String>("events").group_by_key().count("counts").to_stream().to("out");
    Arc::new(builder.build().unwrap())
}

struct Setup {
    cluster: Cluster,
    clock: ManualClock,
}

fn setup(partitions: u32) -> Setup {
    let clock = ManualClock::new();
    let cluster = Cluster::builder().brokers(3).replication(3).clock(clock.shared()).build();
    cluster.create_topic("events", TopicConfig::new(partitions)).unwrap();
    cluster.create_topic("out", TopicConfig::new(partitions)).unwrap();
    Setup { cluster, clock }
}

fn app(s: &Setup, id: &str) -> KafkaStreamsApp {
    app_with(s, id, StreamsConfig::new("scale-app").exactly_once().with_commit_interval_ms(10))
}

fn app_with(s: &Setup, id: &str, config: StreamsConfig) -> KafkaStreamsApp {
    KafkaStreamsApp::new(s.cluster.clone(), counting_topology(), config, id)
}

fn send_round(cluster: &Cluster, keys: usize, round: i64) {
    let mut p = Producer::new(cluster.clone(), ProducerConfig::default());
    for k in 0..keys {
        p.send(
            "events",
            Some(format!("k{k}").to_bytes()),
            Some(Bytes::from_static(b"x")),
            round * 100 + k as i64,
        )
        .unwrap();
    }
    p.flush().unwrap();
}

fn final_counts(cluster: &Cluster) -> (HashMap<String, i64>, usize) {
    let mut c =
        Consumer::new(cluster.clone(), "verify", ConsumerConfig::default().read_committed());
    c.assign(cluster.partitions_of("out").unwrap()).unwrap();
    let mut latest = HashMap::new();
    let mut total = 0;
    loop {
        let batch = c.poll().unwrap();
        if batch.is_empty() {
            break;
        }
        for rec in batch {
            latest.insert(
                String::from_bytes(rec.key.as_ref().unwrap()).unwrap(),
                i64::from_bytes(rec.value.as_ref().unwrap()).unwrap(),
            );
            total += 1;
        }
    }
    (latest, total)
}

#[test]
fn scale_out_redistributes_tasks_and_state() {
    let s = setup(4);
    let mut a = app(&s, "a");
    a.start().unwrap();
    send_round(&s.cluster, 8, 0);
    for _ in 0..10 {
        a.step().unwrap();
        s.clock.advance(10);
    }
    assert_eq!(a.task_ids().len(), 4, "solo instance owns all tasks");

    // Scale out: a second instance joins mid-stream.
    let mut b = app(&s, "b");
    b.start().unwrap();
    send_round(&s.cluster, 8, 1);
    for _ in 0..15 {
        a.step().unwrap();
        b.step().unwrap();
        s.clock.advance(10);
    }
    assert_eq!(a.task_ids().len(), 2, "tasks rebalanced");
    assert_eq!(b.task_ids().len(), 2);
    // The migrated tasks restored their state: counts continue from 1.
    let (latest, total) = final_counts(&s.cluster);
    assert_eq!(total, 16, "no duplicates through the rebalance");
    assert!(latest.values().all(|&v| v == 2), "{latest:?}");
    a.close().unwrap();
    b.close().unwrap();
}

#[test]
fn scale_in_consolidates_without_loss() {
    let s = setup(4);
    let mut a = app(&s, "a");
    let mut b = app(&s, "b");
    a.start().unwrap();
    b.start().unwrap();
    send_round(&s.cluster, 8, 0);
    for _ in 0..15 {
        a.step().unwrap();
        b.step().unwrap();
        s.clock.advance(10);
    }
    // b leaves gracefully; a absorbs its tasks and state.
    b.close().unwrap();
    send_round(&s.cluster, 8, 1);
    for _ in 0..15 {
        a.step().unwrap();
        s.clock.advance(10);
    }
    assert_eq!(a.task_ids().len(), 4);
    let (latest, total) = final_counts(&s.cluster);
    assert_eq!(total, 16);
    assert!(latest.values().all(|&v| v == 2), "{latest:?}");
    a.close().unwrap();
}

#[test]
fn rolling_membership_churn_preserves_exactly_once() {
    let s = setup(4);
    let mut apps: Vec<(String, KafkaStreamsApp)> = Vec::new();
    let mut next_id = 0;
    // 5 phases: add, add, remove, add, remove — traffic after each change,
    // always leaving at least one live instance.
    for phase in 0i64..5 {
        let grow = matches!(phase, 0 | 1 | 3);
        if grow {
            let id = format!("i{next_id}");
            next_id += 1;
            let mut new_app = app(&s, &id);
            new_app.start().unwrap();
            apps.push((id, new_app));
        } else {
            let (_, mut gone) = apps.remove(0);
            gone.close().unwrap();
        }
        send_round(&s.cluster, 8, phase);
        for _ in 0..15 {
            for (_, a) in apps.iter_mut() {
                a.step().unwrap();
            }
            s.clock.advance(10);
        }
    }
    let (latest, total) = final_counts(&s.cluster);
    assert_eq!(total, 8 * 5, "every record exactly once through 5 rebalances");
    assert!(latest.values().all(|&v| v == 5), "{latest:?}");
    for (_, mut a) in apps {
        a.close().unwrap();
    }
}

#[test]
fn sticky_tasks_do_not_restore_on_unrelated_rebalance() {
    // §3.3: "task stickiness to minimize the amount of state migration".
    // A task that stays on its instance through a rebalance must not replay
    // its changelog again.
    let s = setup(4);
    let mut a = app(&s, "a");
    a.start().unwrap();
    send_round(&s.cluster, 8, 0);
    for _ in 0..10 {
        a.step().unwrap();
        s.clock.advance(10);
    }
    let restores_before = a.metrics().restore_records;
    let mut b = app(&s, "b");
    b.start().unwrap();
    for _ in 0..10 {
        a.step().unwrap();
        b.step().unwrap();
        s.clock.advance(10);
    }
    // a kept 2 of its 4 tasks; those two must not have re-restored. (The
    // revoked tasks' metrics are retired, so any increase would come from
    // re-created tasks only.)
    assert_eq!(
        a.metrics().restore_records,
        restores_before,
        "sticky tasks keep their state in place"
    );
    a.close().unwrap();
    b.close().unwrap();
}

#[test]
fn broker_death_mid_rebalance_preserves_exactly_once() {
    // §2.1 failure classes colliding: a broker dies in the middle of a
    // membership change (new instance joining), and a forced rebalance bumps
    // the generation again before anyone has processed the first one.
    // Exactly-once output must survive the pile-up.
    let s = setup(4);
    let mut a = app(&s, "a");
    a.start().unwrap();
    send_round(&s.cluster, 8, 0);
    for _ in 0..10 {
        a.step().unwrap();
        s.clock.advance(10);
    }

    // Membership churn begins: b joins...
    let mut b = app(&s, "b");
    b.start().unwrap();
    // ...and before the new generation is acted on, a broker dies (leaders
    // fail over, the txn coordinator recovers from its replicated log) and
    // the group coordinator forces yet another generation.
    s.cluster.kill_broker(0);
    s.cluster.group_force_rebalance("scale-app");
    send_round(&s.cluster, 8, 1);
    for _ in 0..20 {
        a.step().unwrap();
        b.step().unwrap();
        s.clock.advance(10);
    }

    // The broker returns and traffic continues.
    s.cluster.restore_broker(0).unwrap();
    send_round(&s.cluster, 8, 2);
    for _ in 0..20 {
        a.step().unwrap();
        b.step().unwrap();
        s.clock.advance(10);
    }

    assert_eq!(a.task_ids().len() + b.task_ids().len(), 4, "all tasks owned");
    let (latest, total) = final_counts(&s.cluster);
    assert_eq!(total, 24, "exactly once through broker death + double rebalance");
    assert!(latest.values().all(|&v| v == 3), "{latest:?}");
    a.close().unwrap();
    b.close().unwrap();
}

#[test]
fn instance_crash_mid_rebalance_recovers_exactly_once() {
    // An instance hard-crashes (no clean close, transactions left dangling)
    // right after joining, mid-rebalance. Once its session expires, the
    // survivor must reclaim every task and the output must stay exactly-once.
    let s = setup(4);
    let mut a = app(&s, "a");
    a.start().unwrap();
    send_round(&s.cluster, 8, 0);
    for _ in 0..10 {
        a.step().unwrap();
        s.clock.advance(10);
    }

    let mut b = app(&s, "b");
    b.start().unwrap();
    a.step().unwrap();
    b.step().unwrap();
    b.crash();

    send_round(&s.cluster, 8, 1);
    // The crashed member only disappears after the session timeout. The
    // survivor keeps heartbeating while virtual time passes, so only the
    // silent member expires.
    for _ in 0..4 {
        s.clock.advance(SESSION_TIMEOUT_MS / 3);
        a.step().unwrap();
    }
    s.cluster.group_expire_members("scale-app");
    for _ in 0..30 {
        a.step().unwrap();
        s.clock.advance(10);
    }

    assert_eq!(a.task_ids().len(), 4, "survivor owns every task");
    let (latest, total) = final_counts(&s.cluster);
    assert_eq!(total, 16, "exactly once through the mid-rebalance crash");
    assert!(latest.values().all(|&v| v == 2), "{latest:?}");
    a.close().unwrap();
}

#[test]
fn more_instances_than_tasks_leaves_spares_idle() {
    let s = setup(2);
    let mut apps: Vec<KafkaStreamsApp> = (0..4).map(|i| app(&s, &format!("i{i}"))).collect();
    for a in &mut apps {
        a.start().unwrap();
    }
    send_round(&s.cluster, 6, 0);
    for _ in 0..15 {
        for a in &mut apps {
            a.step().unwrap();
        }
        s.clock.advance(10);
    }
    let owned: Vec<usize> = apps.iter().map(|a| a.task_ids().len()).collect();
    assert_eq!(owned.iter().sum::<usize>(), 2, "2 partitions ⇒ 2 tasks total");
    assert!(owned.iter().all(|&n| n <= 1), "{owned:?}");
    let (_, total) = final_counts(&s.cluster);
    assert_eq!(total, 6);
    for a in &mut apps {
        a.close().unwrap();
    }
}

#[test]
fn rolling_restart_battery_preserves_eos_and_unaffected_commits() {
    // The cooperative-rebalancing acceptance battery: a 5-instance fleet is
    // rolled one instance at a time under sustained input. During every
    // departure window the survivors — whose tasks are unaffected by the
    // membership change — must keep committing (zero-pause incremental
    // rebalancing), and the final output must be exactly-once across all
    // ten generations of churn.
    let s = setup(10);
    let ids = ["i0", "i1", "i2", "i3", "i4"];
    let mut apps: Vec<(String, KafkaStreamsApp)> =
        ids.iter().map(|id| (id.to_string(), app(&s, id))).collect();
    for (_, a) in apps.iter_mut() {
        a.start().unwrap();
    }
    let mut rounds: i64 = 0;
    send_round(&s.cluster, 40, rounds);
    rounds += 1;
    for _ in 0..25 {
        for (_, a) in apps.iter_mut() {
            a.step().unwrap();
        }
        s.clock.advance(10);
    }

    for victim in ids {
        // Roll `victim`: graceful close, fleet of 4 keeps processing.
        let idx = apps.iter().position(|(id, _)| id == victim).unwrap();
        let (vid, mut gone) = apps.remove(idx);
        gone.close().unwrap();
        let commits_before: Vec<u64> =
            apps.iter().map(|(_, a)| a.metrics().commit_cycles).collect();
        send_round(&s.cluster, 40, rounds);
        rounds += 1;
        for _ in 0..20 {
            for (_, a) in apps.iter_mut() {
                a.step().unwrap();
            }
            s.clock.advance(10);
        }
        for (i, (sid, a)) in apps.iter().enumerate() {
            assert!(
                a.metrics().commit_cycles > commits_before[i],
                "survivor {sid} stopped committing while {victim} was rolled"
            );
        }

        // The replacement rejoins under the same id and the fleet re-settles.
        let mut reborn = app(&s, &vid);
        reborn.start().unwrap();
        apps.push((vid, reborn));
        send_round(&s.cluster, 40, rounds);
        rounds += 1;
        for _ in 0..30 {
            for (_, a) in apps.iter_mut() {
                a.step().unwrap();
            }
            s.clock.advance(10);
        }
    }

    let owned: usize = apps.iter().map(|(_, a)| a.task_ids().len()).sum();
    assert_eq!(owned, 10, "all tasks owned after the full roll");
    let (latest, total) = final_counts(&s.cluster);
    assert_eq!(total, 40 * rounds as usize, "exactly once through ten rebalances");
    assert!(latest.values().all(|&v| v == rounds), "{latest:?}");
    for (_, mut a) in apps {
        a.close().unwrap();
    }
}

#[test]
fn standby_promotion_hands_store_over_without_full_restore() {
    // Satellite regression: when an instance already hosts a standby replica
    // for a task it is newly assigned, promotion must hand the standby's
    // stores over in place — replaying only the changelog suffix written
    // after the standby's last applied offset, not the whole changelog.
    let s = setup(4);
    let cfg = || {
        StreamsConfig::new("scale-app")
            .exactly_once()
            .with_commit_interval_ms(10)
            .with_standby_replicas(1)
    };
    let mut a = app_with(&s, "a", cfg());
    let mut b = app_with(&s, "b", cfg());
    a.start().unwrap();
    b.start().unwrap();
    // Build real state: five rounds, fully settled so the standbys are
    // caught up with everything the actives committed.
    for round in 0..5 {
        send_round(&s.cluster, 8, round);
        for _ in 0..15 {
            a.step().unwrap();
            b.step().unwrap();
            s.clock.advance(10);
        }
    }
    assert!(b.metrics().standby_tasks > 0, "b hosts standby replicas");
    assert!(
        b.metrics().standby_records_applied > 0,
        "standbys tailed the changelog while a was active"
    );
    let restored_before = b.metrics().restore_records;

    // a leaves; b inherits a's tasks — for which it holds warm standbys.
    a.close().unwrap();
    for _ in 0..15 {
        b.step().unwrap();
        s.clock.advance(10);
    }
    assert_eq!(b.task_ids().len(), 4, "b owns every task after a left");
    assert_eq!(
        b.metrics().restore_records,
        restored_before,
        "promotion reused the standby stores: no changelog replay on takeover"
    );

    // The promoted state is correct: counts continue, exactly once.
    send_round(&s.cluster, 8, 5);
    for _ in 0..10 {
        b.step().unwrap();
        s.clock.advance(10);
    }
    let (latest, total) = final_counts(&s.cluster);
    assert_eq!(total, 48, "exactly once through the promotion");
    assert!(latest.values().all(|&v| v == 6), "{latest:?}");
    b.close().unwrap();
}

#[test]
fn cooperative_join_under_load_moves_only_the_joiners_share() {
    // §3.3's cooperative protocol: one instance joins two under sustained
    // input. Only the joiner's ⌈12/3⌉ tasks leave the incumbents, nothing
    // else is revoked or re-restored (a dirty-closed or revoked-and-readopted
    // task would replay its changelog), and the incumbents keep committing
    // through the transfer.
    let s = setup(12);
    let owned = |a: &KafkaStreamsApp| a.task_ids().into_iter().collect::<BTreeSet<_>>();
    let mut incumbents = [app(&s, "a"), app(&s, "b")];
    for a in incumbents.iter_mut() {
        a.start().unwrap();
    }
    let mut rounds = 0;
    for _ in 0..20 {
        send_round(&s.cluster, 16, rounds);
        rounds += 1;
        for a in incumbents.iter_mut() {
            a.step().unwrap();
        }
        s.clock.advance(10);
    }
    assert!(incumbents.iter().all(|a| a.task_ids().len() == 6), "incumbents settled 6/6");
    let restores_before: Vec<u64> =
        incumbents.iter().map(|a| a.metrics().restore_records).collect();
    let commits_before: Vec<u64> = incumbents.iter().map(|a| a.metrics().commit_cycles).collect();

    let mut joiner = app(&s, "c");
    joiner.start().unwrap();
    let mut prev: Vec<BTreeSet<_>> = incumbents.iter().map(owned).collect();
    let mut revoked = BTreeSet::new();
    let mut commits_during = None;
    for _ in 0..40 {
        send_round(&s.cluster, 16, rounds);
        rounds += 1;
        for (a, prev) in incumbents.iter_mut().zip(prev.iter_mut()) {
            a.step().unwrap();
            let now = owned(a);
            assert!(now.is_subset(prev), "an incumbent gained tasks: {prev:?} -> {now:?}");
            revoked.extend(prev.difference(&now).copied());
            *prev = now;
        }
        joiner.step().unwrap();
        s.clock.advance(10);
        if commits_during.is_none() && joiner.task_ids().len() == 4 {
            commits_during =
                Some(incumbents.iter().map(|a| a.metrics().commit_cycles).collect::<Vec<_>>());
        }
    }
    let commits_during = commits_during.expect("the joiner took over its share");
    assert!(
        commits_during.iter().zip(&commits_before).all(|(during, before)| during > before),
        "incumbents must commit during the transfer: {commits_before:?} -> {commits_during:?}"
    );
    assert_eq!(revoked, owned(&joiner), "incumbents released exactly the joiner's tasks");
    assert!(revoked.len() <= 4, "moved {} tasks > ⌈12/3⌉", revoked.len());
    let restores: Vec<u64> = incumbents.iter().map(|a| a.metrics().restore_records).collect();
    assert_eq!(restores, restores_before, "no incumbent task was closed and re-restored");

    let (latest, total) = final_counts(&s.cluster);
    assert_eq!(total, 16 * rounds as usize, "exactly once through the join");
    assert!(latest.values().all(|&v| v == rounds), "{latest:?}");
    for mut a in incumbents.into_iter().chain([joiner]) {
        a.close().unwrap();
    }
}

#[test]
fn simultaneous_joins_coalesce_into_one_generation() {
    // Scaling out by three instances at once must cost ONE generation bump,
    // not three: joins landing inside the coordinator's debounce window are
    // coalesced, so incumbents react to the final membership instead of
    // re-planning after every arrival.
    let s = setup(8);
    let cfg = || {
        StreamsConfig::new("scale-app")
            .exactly_once()
            .with_commit_interval_ms(10)
            .with_rebalance_debounce_ms(50)
    };
    let mut a = app_with(&s, "a", cfg());
    a.start().unwrap();
    // Even the founding join is debounced: no generation until the window
    // elapses.
    assert_eq!(s.cluster.group_generation("scale-app"), 0, "founding join debounced");
    s.clock.advance(60);
    a.step().unwrap();
    assert_eq!(s.cluster.group_generation("scale-app"), 1);
    send_round(&s.cluster, 8, 0);
    for _ in 0..10 {
        a.step().unwrap();
        s.clock.advance(10);
    }
    assert_eq!(a.task_ids().len(), 8, "solo incumbent owns everything");

    // Three instances join back-to-back, inside one debounce window.
    let before = s.cluster.group_generation("scale-app");
    let mut joiners: Vec<KafkaStreamsApp> =
        ["b", "c", "d"].iter().map(|id| app_with(&s, id, cfg())).collect();
    for j in joiners.iter_mut() {
        j.start().unwrap();
    }
    assert_eq!(
        s.cluster.group_generation("scale-app"),
        before,
        "joins inside the window must not bump the generation"
    );

    // The window elapses: all three joins fire as ONE rebalance.
    s.clock.advance(60);
    a.step().unwrap();
    for j in joiners.iter_mut() {
        j.step().unwrap();
    }
    assert_eq!(
        s.cluster.group_generation("scale-app"),
        before + 1,
        "three simultaneous joins must coalesce into exactly one generation bump"
    );

    // Warm-ups replay and hand-overs complete in later (also debounced)
    // generations; the fleet converges to a ±1-balanced assignment.
    send_round(&s.cluster, 8, 1);
    for _ in 0..60 {
        a.step().unwrap();
        for j in joiners.iter_mut() {
            j.step().unwrap();
        }
        s.clock.advance(10);
    }
    let mut owned = vec![a.task_ids().len()];
    owned.extend(joiners.iter().map(|j| j.task_ids().len()));
    assert_eq!(owned.iter().sum::<usize>(), 8, "{owned:?}");
    assert!(owned.iter().all(|&n| n == 2), "±1-balanced fleet: {owned:?}");
    let (latest, total) = final_counts(&s.cluster);
    assert_eq!(total, 16, "exactly once through the coalesced scale-out");
    assert!(latest.values().all(|&v| v == 2), "{latest:?}");
    a.close().unwrap();
    for mut j in joiners {
        j.close().unwrap();
    }
}

/// Input offsets the group has committed, summed over `events`' partitions.
fn committed_inputs(s: &Setup, partitions: u32) -> i64 {
    (0..partitions)
        .map(|p| {
            let tp = TopicPartition::new("events", p);
            s.cluster.group_committed_offset("scale-app", &tp).unwrap().unwrap_or(0)
        })
        .sum()
}

/// A commits a round of 8 keys, processes a second round inside a
/// transaction it never commits, and crashes. Once its session is expired,
/// B starts and owns every task. Each changelog now holds committed records
/// below the zombie's open transaction, so B's replay cannot reach the log
/// end until that transaction resolves: B parks every task.
fn parked_takeover(partitions: u32) -> (Setup, KafkaStreamsApp) {
    let s = setup(partitions);
    let mut a = app(&s, "a");
    a.start().unwrap();
    send_round(&s.cluster, 8, 0);
    for _ in 0..5 {
        a.step().unwrap();
        s.clock.advance(10);
    }
    assert!(a.step().unwrap().committed);
    send_round(&s.cluster, 8, 1);
    let open = a.step().unwrap();
    assert_eq!((open.processed, open.committed), (8, false), "round 1 stays uncommitted");
    a.crash();
    s.clock.advance(SESSION_TIMEOUT_MS + 1);
    assert_eq!(s.cluster.group_expire_members("scale-app"), ["a"]);

    let mut b = app(&s, "b");
    b.start().unwrap();
    for _ in 0..3 {
        assert_eq!(b.step().unwrap().processed, 0, "a parked task processes nothing");
        s.clock.advance(10);
    }
    assert!(b.task_ids().is_empty(), "parked tasks are not active");
    assert_eq!(committed_inputs(&s, partitions), 8, "no offsets committed for parked tasks");
    (s, b)
}

#[test]
fn parked_restore_resumes_once_the_zombie_transaction_aborts() {
    let (s, mut b) = parked_takeover(1);
    s.clock.advance(s.cluster.default_txn_timeout_ms());
    assert_eq!(s.cluster.abort_expired_transactions(), 1);
    for _ in 0..10 {
        b.step().unwrap();
        s.clock.advance(10);
    }
    assert_eq!(b.task_ids().len(), 1, "the restore caught up and the task runs");
    assert_eq!(committed_inputs(&s, 1), 16);
    let (latest, total) = final_counts(&s.cluster);
    assert_eq!(total, 16, "the zombie's round 1 is aborted and processed once by b");
    assert!(latest.values().all(|&v| v == 2), "{latest:?}");
    b.close().unwrap();
}

#[test]
fn parked_task_released_to_a_joiner_keeps_its_replay_in_the_metrics() {
    // b parks both tasks; c joins, warms one up (its replay lag is only the
    // zombie's open records) and takes it over through a release while it
    // is still parked. The replay b did for that task stays in b's totals.
    let (s, mut b) = parked_takeover(2);
    let mut replayed = b.metrics().restore_records;
    assert!(replayed > 0, "metrics include the replay parked tasks have done");
    let mut c = app(&s, "c");
    c.start().unwrap();
    for _ in 0..10 {
        b.step().unwrap();
        c.step().unwrap();
        s.clock.advance(10);
        let now = b.metrics().restore_records;
        assert!(now >= replayed, "b's restore_records fell from {replayed} to {now}");
        replayed = now;
    }
    assert!(b.task_ids().is_empty() && c.task_ids().is_empty(), "both tasks still parked");

    s.clock.advance(s.cluster.default_txn_timeout_ms());
    assert_eq!(s.cluster.abort_expired_transactions(), 1);
    for _ in 0..10 {
        b.step().unwrap();
        c.step().unwrap();
        s.clock.advance(10);
    }
    assert_eq!((b.task_ids().len(), c.task_ids().len()), (1, 1), "the parked task moved to c");
    let (latest, total) = final_counts(&s.cluster);
    assert_eq!(total, 16, "exactly once through the parked hand-over");
    assert!(latest.values().all(|&v| v == 2), "{latest:?}");
    b.close().unwrap();
    c.close().unwrap();
}
