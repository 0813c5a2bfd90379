//! `kanalyze` — run the topology static verifier over example topologies
//! and pretty-print the diagnostics.
//!
//! Builds a set of representative topologies — the paper's Figure 2
//! pipeline plus several deliberately misconfigured variants — verifies
//! each, and prints the findings the way `cargo` prints lints. Exits
//! non-zero if any *error*-severity diagnostic is found in a topology that
//! was expected to be clean.
//!
//! Run with: `cargo run --bin kanalyze`

use kstream_repro::kstreams::analyze::render;
use kstream_repro::kstreams::processor::{Processor, ProcessorContext};
use kstream_repro::kstreams::record::FlowRecord;
use kstream_repro::kstreams::state::{StoreKind, StoreSpec};
use kstream_repro::kstreams::topology::{InternalBuilder, TopicRef, Topology, ValueMode};
use kstream_repro::kstreams::{JoinWindows, KStream, StreamsBuilder, StreamsConfig, TimeWindows};

fn section(title: &str, topology: &Topology) {
    println!("== {title} ==");
    print!("{}", topology.describe());
    println!("verify:");
    print!("{}", render(&topology.verify()));
    println!();
}

struct Nop;
impl Processor for Nop {
    fn process(&mut self, _ctx: &mut ProcessorContext<'_>, _record: FlowRecord) {}
}

fn main() {
    let mut unexpected_errors = 0;

    // --- 1. Figure 2: the paper's running example (clean). -------------
    let b = StreamsBuilder::new();
    b.stream::<String, (String, i64)>("pageview-events")
        .filter(|_user, (_category, period)| *period >= 30_000)
        .map(|_user, (category, period)| (category.clone(), *period))
        .group_by_key()
        .windowed_by(TimeWindows::of(5_000).grace(10_000))
        .count("pageview-counts")
        .to_stream()
        .to("pageview-windowed-counts");
    let t = b.build().expect("valid topology");
    unexpected_errors += t.verify().len();
    section("figure2-pageview-pipeline (expected clean)", &t);

    // --- 2. Re-keyed stream joined without a repartition barrier. -------
    let b = StreamsBuilder::new();
    let clicks: KStream<String, i64> = b.stream("clicks");
    let views: KStream<String, i64> = b.stream("views");
    clicks
        .map(|user: &String, v: &i64| (format!("session-{user}"), *v))
        .join(&views, JoinWindows::of(30_000).grace(5_000), |c, v| c + v)
        .to("click-view-pairs");
    let t = b.build().expect("valid topology");
    section("join-after-rekey (expected: non-co-partitioned-join)", &t);

    // --- 3. Suppress below a zero-grace window. -------------------------
    let b = StreamsBuilder::new();
    b.stream::<String, i64>("sensor-readings")
        .group_by_key()
        .windowed_by(TimeWindows::of(60_000)) // no grace!
        .count("per-minute")
        .suppress_until_window_close()
        .to_stream()
        .to("final-per-minute");
    let t = b.build().expect("valid topology");
    section("suppress-zero-grace (expected: suppress-zero-grace)", &t);

    // --- 4. Changelog-disabled store under exactly-once. ----------------
    let mut ib = InternalBuilder::new();
    let src = ib
        .add_source("src".into(), TopicRef::external("events"), ValueMode::Plain)
        .expect("unique");
    ib.add_store(StoreSpec::new("session-cache", StoreKind::KeyValue).without_changelog())
        .expect("unique");
    ib.add_processor(
        "cache".into(),
        std::sync::Arc::new(|_| Box::new(Nop)),
        &[src],
        vec!["session-cache".into()],
    )
    .expect("valid parent");
    let t = ib.build().expect("valid topology");
    println!("== volatile-store-under-eos (expected: changelog-disabled-under-eos) ==");
    print!("{}", t.describe());
    println!("verify_with(exactly_once):");
    print!("{}", render(&t.verify_with(&StreamsConfig::new("kanalyze-demo").exactly_once())));
    println!();

    // --- 5. Unused + undeclared stores, sink feeding its own input. -----
    let mut ib = InternalBuilder::new();
    let src = ib
        .add_source("src".into(), TopicRef::external("loop-topic"), ValueMode::Plain)
        .expect("unique");
    ib.add_store(StoreSpec::new("orphan", StoreKind::KeyValue)).expect("unique");
    let p = ib
        .add_processor(
            "enrich".into(),
            std::sync::Arc::new(|_| Box::new(Nop)),
            &[src],
            vec!["ghost".into()],
        )
        .expect("valid parent");
    ib.add_sink("sink".into(), TopicRef::external("loop-topic"), ValueMode::Plain, &[p])
        .expect("valid parent");
    let t = ib.build().expect("valid topology");
    section("store-misuse-and-feedback (expected: unused-store, undeclared-store, sink-feeds-own-subtopology)", &t);

    if unexpected_errors > 0 {
        eprintln!("kanalyze: {unexpected_errors} unexpected diagnostic(s) in clean topologies");
        std::process::exit(1);
    }
    println!("kanalyze: done");
}
