use super::*;
use crate::state::{StoreKind, StoreSpec};
use crate::topology::{InternalBuilder, InternalTopic, ProcessorFactory, TopicRef, ValueMode};
use std::sync::Arc;

struct Nop;
impl crate::processor::Processor for Nop {
    fn process(
        &mut self,
        _ctx: &mut crate::processor::ProcessorContext<'_>,
        _record: crate::record::FlowRecord,
    ) {
    }
}

fn nop() -> ProcessorFactory {
    Arc::new(|_| Box::new(Nop))
}

fn rules_of(diags: &[Diagnostic]) -> Vec<Rule> {
    diags.iter().map(|d| d.rule).collect()
}

#[test]
fn clean_topology_has_no_diagnostics() {
    let mut b = InternalBuilder::new();
    let src = b.add_source("src".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
    b.add_store(StoreSpec::new("counts", StoreKind::KeyValue)).unwrap();
    let p = b.add_processor("agg".into(), nop(), &[src], vec!["counts".into()]).unwrap();
    b.add_sink("sink".into(), TopicRef::external("out"), ValueMode::Plain, &[p]).unwrap();
    let t = b.build().unwrap();
    assert!(t.verify().is_empty(), "got: {:?}", t.verify());
    assert!(t.verify_with(&StreamsConfig::new("app")).is_empty());
}

#[test]
fn join_after_key_change_without_repartition_flagged() {
    // map (key-changing) feeds a join directly — no repartition topic in
    // between, so correlated records can land on different tasks.
    let mut b = InternalBuilder::new();
    let s1 = b.add_source("s1".into(), TopicRef::external("a"), ValueMode::Plain).unwrap();
    let s2 = b.add_source("s2".into(), TopicRef::external("b"), ValueMode::Plain).unwrap();
    let map = b.add_processor("map".into(), nop(), &[s1], vec![]).unwrap();
    b.tag_key_changing(map);
    let join = b.add_processor("join".into(), nop(), &[map, s2], vec![]).unwrap();
    b.tag_join(join);
    let t = b.build().unwrap();
    let diags = t.verify();
    assert_eq!(rules_of(&diags), vec![Rule::NonCoPartitionedJoin]);
    assert_eq!(diags[0].node.as_deref(), Some("join"));
    assert_eq!(diags[0].severity, Severity::Warning);
    assert!(diags[0].message.contains("`map`"));
}

#[test]
fn join_with_mismatched_partition_counts_flagged() {
    let mut b = InternalBuilder::new();
    b.add_internal_topic(InternalTopic { name: "a".into(), compacted: false, partitions: Some(4) });
    b.add_internal_topic(InternalTopic { name: "b".into(), compacted: false, partitions: Some(6) });
    let s1 = b.add_source("s1".into(), TopicRef::internal("a"), ValueMode::Plain).unwrap();
    let s2 = b.add_source("s2".into(), TopicRef::internal("b"), ValueMode::Plain).unwrap();
    let join = b.add_processor("join".into(), nop(), &[s1, s2], vec![]).unwrap();
    b.tag_join(join);
    let t = b.build().unwrap();
    let diags = t.verify();
    assert_eq!(rules_of(&diags), vec![Rule::NonCoPartitionedJoin]);
    assert!(diags[0].message.contains("a=4"));
    assert!(diags[0].message.contains("b=6"));
}

#[test]
fn co_partitioned_join_is_clean() {
    // Same partition counts, no key-changing upstream: no finding.
    let mut b = InternalBuilder::new();
    b.add_internal_topic(InternalTopic { name: "a".into(), compacted: false, partitions: Some(4) });
    b.add_internal_topic(InternalTopic { name: "b".into(), compacted: false, partitions: Some(4) });
    let s1 = b.add_source("s1".into(), TopicRef::internal("a"), ValueMode::Plain).unwrap();
    let s2 = b.add_source("s2".into(), TopicRef::internal("b"), ValueMode::Plain).unwrap();
    let join = b.add_processor("join".into(), nop(), &[s1, s2], vec![]).unwrap();
    b.tag_join(join);
    let t = b.build().unwrap();
    assert!(t.verify().is_empty(), "got: {:?}", t.verify());
}

#[test]
fn grace_exceeding_changelog_retention_flagged() {
    let mut b = InternalBuilder::new();
    let src = b.add_source("src".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
    b.add_store(StoreSpec::new("win", StoreKind::Window).with_retention_ms(1_000)).unwrap();
    let agg = b.add_processor("agg".into(), nop(), &[src], vec!["win".into()]).unwrap();
    b.tag_grace(agg, 5_000);
    let t = b.build().unwrap();
    let diags = t.verify();
    assert_eq!(rules_of(&diags), vec![Rule::GraceExceedsRetention]);
    assert_eq!(diags[0].node.as_deref(), Some("agg"));
    assert!(diags[0].message.contains("5000 ms late"));
}

#[test]
fn grace_within_retention_is_clean() {
    let mut b = InternalBuilder::new();
    let src = b.add_source("src".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
    b.add_store(StoreSpec::new("win", StoreKind::Window).with_retention_ms(10_000)).unwrap();
    let agg = b.add_processor("agg".into(), nop(), &[src], vec!["win".into()]).unwrap();
    b.tag_grace(agg, 5_000);
    let t = b.build().unwrap();
    assert!(t.verify().is_empty());
}

#[test]
fn grace_rule_ignores_kv_and_changelog_disabled_stores() {
    let mut b = InternalBuilder::new();
    let src = b.add_source("src".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
    // KV store: retention does not bound window restore.
    b.add_store(StoreSpec::new("kv", StoreKind::KeyValue).with_retention_ms(1)).unwrap();
    // Changelog disabled: nothing to restore from, rule does not apply.
    b.add_store(
        StoreSpec::new("volatile", StoreKind::Window).without_changelog().with_retention_ms(1),
    )
    .unwrap();
    let agg =
        b.add_processor("agg".into(), nop(), &[src], vec!["kv".into(), "volatile".into()]).unwrap();
    b.tag_grace(agg, 5_000);
    let t = b.build().unwrap();
    assert!(t.verify().is_empty(), "got: {:?}", t.verify());
}

#[test]
fn suppress_below_zero_grace_window_flagged() {
    let mut b = InternalBuilder::new();
    let src = b.add_source("src".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
    let sup = b.add_processor("suppress".into(), nop(), &[src], vec![]).unwrap();
    b.tag_suppress(sup, Some(0));
    let t = b.build().unwrap();
    let diags = t.verify();
    assert_eq!(rules_of(&diags), vec![Rule::SuppressZeroGrace]);
    assert_eq!(diags[0].node.as_deref(), Some("suppress"));
}

#[test]
fn suppress_with_grace_is_clean() {
    let mut b = InternalBuilder::new();
    let src = b.add_source("src".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
    let sup = b.add_processor("suppress".into(), nop(), &[src], vec![]).unwrap();
    b.tag_suppress(sup, Some(500));
    let t = b.build().unwrap();
    assert!(t.verify().is_empty());
}

#[test]
fn unused_store_flagged() {
    let mut b = InternalBuilder::new();
    let src = b.add_source("src".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
    b.add_store(StoreSpec::new("orphan", StoreKind::KeyValue)).unwrap();
    b.add_processor("p".into(), nop(), &[src], vec![]).unwrap();
    let t = b.build().unwrap();
    let diags = t.verify();
    assert_eq!(rules_of(&diags), vec![Rule::UnusedStore]);
    assert_eq!(diags[0].node, None);
    assert!(diags[0].message.contains("`orphan`"));
    // Unused stores get no changelog topic and no sub-topology attachment.
    assert!(t.internal_topics.is_empty());
    assert!(t.stores.is_empty());
}

#[test]
fn undeclared_store_is_an_error() {
    let mut b = InternalBuilder::new();
    let src = b.add_source("src".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
    b.add_processor("p".into(), nop(), &[src], vec!["ghost".into()]).unwrap();
    let t = b.build().unwrap();
    let diags = t.verify();
    assert_eq!(rules_of(&diags), vec![Rule::UndeclaredStore]);
    assert_eq!(diags[0].severity, Severity::Error);
    assert_eq!(diags[0].node.as_deref(), Some("p"));
}

#[test]
fn cycle_is_an_error() {
    let mut b = InternalBuilder::new();
    let src = b.add_source("src".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
    let p1 = b.add_processor("p1".into(), nop(), &[src], vec![]).unwrap();
    let p2 = b.add_processor("p2".into(), nop(), &[p1], vec![]).unwrap();
    // Free-form Processor API wiring can close a loop: p1 -> p2 -> p1.
    b.connect(&[p2], p1).unwrap();
    let t = b.build().unwrap();
    let diags = t.verify();
    assert_eq!(rules_of(&diags), vec![Rule::Cycle]);
    assert_eq!(diags[0].severity, Severity::Error);
    assert!(diags[0].message.contains("p1 -> p2 -> p1"), "got: {}", diags[0].message);
}

#[test]
fn sink_feeding_own_subtopology_flagged() {
    let mut b = InternalBuilder::new();
    let src = b.add_source("src".into(), TopicRef::external("loop"), ValueMode::Plain).unwrap();
    let p = b.add_processor("p".into(), nop(), &[src], vec![]).unwrap();
    b.add_sink("sink".into(), TopicRef::external("loop"), ValueMode::Plain, &[p]).unwrap();
    let t = b.build().unwrap();
    let diags = t.verify();
    assert_eq!(rules_of(&diags), vec![Rule::SinkFeedsOwnSubtopology]);
    assert_eq!(diags[0].node.as_deref(), Some("sink"));
    assert!(diags[0].message.contains("`loop`"));
}

#[test]
fn sink_to_other_subtopology_is_clean() {
    // Writing a topic consumed by a *different* sub-topology is the normal
    // repartition pattern — no finding.
    let mut b = InternalBuilder::new();
    let src = b.add_source("src".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
    b.add_sink("rsink".into(), TopicRef::internal("rep"), ValueMode::Plain, &[src]).unwrap();
    let rsrc = b.add_source("rsrc".into(), TopicRef::internal("rep"), ValueMode::Plain).unwrap();
    b.add_sink("out".into(), TopicRef::external("out"), ValueMode::Plain, &[rsrc]).unwrap();
    let t = b.build().unwrap();
    assert!(t.verify().is_empty());
}

#[test]
fn changelog_disabled_under_eos_flagged_only_with_config() {
    let mut b = InternalBuilder::new();
    let src = b.add_source("src".into(), TopicRef::external("in"), ValueMode::Plain).unwrap();
    b.add_store(StoreSpec::new("volatile", StoreKind::KeyValue).without_changelog()).unwrap();
    b.add_processor("p".into(), nop(), &[src], vec!["volatile".into()]).unwrap();
    let t = b.build().unwrap();
    // Config-independent pass: no finding.
    assert!(t.verify().is_empty());
    // At-least-once: restore-by-replay is still lossy but the guarantee
    // never promised otherwise — no finding.
    assert!(t.verify_with(&StreamsConfig::new("app")).is_empty());
    let diags = t.verify_with(&StreamsConfig::new("app").exactly_once());
    assert_eq!(rules_of(&diags), vec![Rule::ChangelogDisabledUnderEos]);
    assert!(diags[0].message.contains("`volatile`"));
}

#[test]
fn source_changelog_store_is_exempt_under_eos() {
    // §3.3 optimization: the source topic *is* the changelog, so a disabled
    // dedicated changelog is fine.
    let mut b = InternalBuilder::new();
    let src = b.add_source("src".into(), TopicRef::external("table"), ValueMode::Plain).unwrap();
    b.add_store(StoreSpec::new("mat", StoreKind::KeyValue)).unwrap();
    b.set_source_changelog("mat", TopicRef::external("table")).unwrap();
    b.add_processor("p".into(), nop(), &[src], vec!["mat".into()]).unwrap();
    let t = b.build().unwrap();
    assert!(t.verify_with(&StreamsConfig::new("app").exactly_once()).is_empty());
}

#[test]
fn rule_names_are_stable_and_unique() {
    let names: Vec<&str> = Rule::ALL.iter().map(|r| r.name()).collect();
    let mut dedup = names.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), Rule::ALL.len());
    assert!(names.iter().all(|n| n.chars().all(|c| c.is_ascii_lowercase() || c == '-')));
    assert_eq!(Rule::Cycle.to_string(), "cycle");
}

#[test]
fn diagnostic_display_and_render() {
    let d = Diagnostic {
        rule: Rule::UnusedStore,
        severity: Severity::Warning,
        node: Some("p".into()),
        message: "store `s` is declared but never used".into(),
    };
    assert_eq!(
        d.to_string(),
        "warning[unused-store]: node `p`: store `s` is declared but never used"
    );
    assert!(render(&[d]).contains("warning[unused-store]"));
    assert!(render(&[]).contains("clean"));
}

// -------- DSL-level end-to-end checks --------

#[test]
fn dsl_map_then_join_is_flagged_end_to_end() {
    // `map` re-keys but `join` attaches directly (no repartition topic in
    // this DSL) — the verifier catches the genuine co-partitioning hazard.
    let b = crate::StreamsBuilder::new();
    let left: crate::KStream<String, i64> = b.stream("left");
    let right: crate::KStream<String, i64> = b.stream("right");
    let rekeyed = left.map(|k: &String, v: &i64| (format!("{k}!"), *v));
    rekeyed.join(&right, crate::JoinWindows::of(1_000), |l, r| l + r).to("out");
    let t = b.build().unwrap();
    assert!(
        t.verify().iter().any(|d| d.rule == Rule::NonCoPartitionedJoin),
        "got: {:?}",
        t.verify()
    );
}

#[test]
fn dsl_suppress_on_zero_grace_window_is_flagged() {
    let b = crate::StreamsBuilder::new();
    let s: crate::KStream<String, i64> = b.stream("in");
    s.group_by_key()
        .windowed_by(crate::TimeWindows::of(1_000))
        .count("counts")
        .suppress_until_window_close()
        .to_stream()
        .to("out");
    let t = b.build().unwrap();
    assert_eq!(rules_of(&t.verify()), vec![Rule::SuppressZeroGrace], "got: {:?}", t.verify());
}

#[test]
fn dsl_figure2_pipeline_is_clean() {
    // The paper's Figure 2 pipeline (map → groupByKey → windowed count with
    // grace → to) repartitions properly and stays diagnostic-free.
    let b = crate::StreamsBuilder::new();
    let s: crate::KStream<String, i64> = b.stream("pageview-events");
    s.map(|k: &String, v: &i64| (k.clone(), *v))
        .group_by_key()
        .windowed_by(crate::TimeWindows::of(60_000).grace(10_000))
        .count("counts")
        .to_stream()
        .to("pageview-windowed-counts");
    let t = b.build().unwrap();
    assert!(t.verify().is_empty(), "got: {:?}", t.verify());
}
