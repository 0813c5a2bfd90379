//! `kanalyze` — static verification of built topologies.
//!
//! The paper's guarantees are easy to silently misconfigure: a join over
//! non-co-partitioned inputs, a grace period longer than changelog
//! retention, or a changelog-disabled store under exactly-once all produce
//! *wrong answers*, not crashes. This module runs graph-level lints over a
//! built [`Topology`] and reports structured [`Diagnostic`]s, so misuse
//! fails fast at build time instead of corrupting state at runtime.
//!
//! Entry points: [`Topology::verify`] (config-independent rules, cached at
//! build time), [`Topology::verify_with`] (adds guarantee-dependent rules),
//! and the `kanalyze` binary in the workspace root, which pretty-prints
//! diagnostics for example topologies. A finding's severity is its rule's
//! own ([`Rule::severity`]); an application refuses to start on any error.

use crate::config::{ProcessingGuarantee, StreamsConfig};
use crate::state::StoreKind;
use crate::topology::{NodeKind, Topology};
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Likely misuse; the application still runs.
    Warning,
    /// Definite defect; an application refuses to start.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The lint rules the verifier implements. Each maps to a way the paper's
/// consistency (§4) or completeness (§5) guarantee can be silently broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// A join/merge consumes records whose key may have changed upstream
    /// with no repartition barrier in between, or its inputs have known
    /// different partition counts: correlated records land on different
    /// tasks and silently never meet (§3.2).
    NonCoPartitionedJoin,
    /// A windowed/session store accepts late records for longer than its
    /// changelog retains them: after a failover the restored window is
    /// missing data the operator still considers live — completeness is
    /// silently truncated (§5).
    GraceExceedsRetention,
    /// `suppress` below an operator with zero grace: the "final" result is
    /// emitted the instant the window ends and every late record is
    /// dropped, defeating the revision processing suppress exists for (§5).
    SuppressZeroGrace,
    /// A store is declared but no processor reads or writes it.
    UnusedStore,
    /// A processor references a store that was never declared; building a
    /// task from the topology fails.
    UndeclaredStore,
    /// The processor graph contains a directed cycle; a record entering it
    /// would be forwarded forever within one task.
    Cycle,
    /// A sub-topology writes a topic it also consumes: records loop
    /// through the broker back into the same task group forever.
    SinkFeedsOwnSubtopology,
    /// Under `processing.guarantee=exactly_once`, a changelog-disabled
    /// store (with no source-topic changelog) cannot be rebuilt after a
    /// failover, so the transactional guarantee silently degrades (§4.2).
    ChangelogDisabledUnderEos,
}

impl Rule {
    /// Every rule.
    pub const ALL: [Rule; 8] = [
        Rule::NonCoPartitionedJoin,
        Rule::GraceExceedsRetention,
        Rule::SuppressZeroGrace,
        Rule::UnusedStore,
        Rule::UndeclaredStore,
        Rule::Cycle,
        Rule::SinkFeedsOwnSubtopology,
        Rule::ChangelogDisabledUnderEos,
    ];

    /// Stable kebab-case rule name (used in output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::NonCoPartitionedJoin => "non-co-partitioned-join",
            Rule::GraceExceedsRetention => "grace-exceeds-retention",
            Rule::SuppressZeroGrace => "suppress-zero-grace",
            Rule::UnusedStore => "unused-store",
            Rule::UndeclaredStore => "undeclared-store",
            Rule::Cycle => "cycle",
            Rule::SinkFeedsOwnSubtopology => "sink-feeds-own-subtopology",
            Rule::ChangelogDisabledUnderEos => "changelog-disabled-under-eos",
        }
    }

    /// Severity of every finding of this rule.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            // These two cannot produce a correct run at all.
            Rule::UndeclaredStore | Rule::Cycle => Severity::Error,
            _ => Severity::Warning,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One verifier finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: Rule,
    pub severity: Severity,
    /// Name of the offending node, when the finding is node-scoped.
    pub node: Option<String>,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: ", self.severity, self.rule)?;
        if let Some(n) = &self.node {
            write!(f, "node `{n}`: ")?;
        }
        f.write_str(&self.message)
    }
}

/// Render diagnostics the way the `kanalyze` binary prints them.
#[must_use]
pub fn render(diagnostics: &[Diagnostic]) -> String {
    if diagnostics.is_empty() {
        return "  no diagnostics — topology is clean\n".to_string();
    }
    let mut out = String::new();
    for d in diagnostics {
        out.push_str(&format!("  {d}\n"));
    }
    out
}

/// Run every applicable rule over a built topology.
///
/// Without `config`, guarantee-dependent rules are skipped.
#[must_use]
pub fn run(topology: &Topology, config: Option<&StreamsConfig>) -> Vec<Diagnostic> {
    let ctx = Ctx::new(topology);
    let mut out = Vec::new();
    rule_non_co_partitioned_join(&ctx, &mut out);
    rule_grace_exceeds_retention(&ctx, &mut out);
    rule_suppress_zero_grace(&ctx, &mut out);
    rule_unused_store(&ctx, &mut out);
    rule_undeclared_store(&ctx, &mut out);
    rule_cycle(&ctx, &mut out);
    rule_sink_feeds_own_subtopology(&ctx, &mut out);
    if let Some(cfg) = config {
        rule_changelog_disabled_under_eos(&ctx, cfg, &mut out);
    }
    out
}

/// Pre-computed graph context shared by all rules.
struct Ctx<'a> {
    t: &'a Topology,
    /// Reverse adjacency: parents[i] = nodes with an edge into i.
    parents: Vec<Vec<usize>>,
}

impl<'a> Ctx<'a> {
    fn new(t: &'a Topology) -> Self {
        let mut parents = vec![Vec::new(); t.nodes.len()];
        for (i, node) in t.nodes.iter().enumerate() {
            for &c in &node.children {
                parents[c].push(i);
            }
        }
        Self { t, parents }
    }

    /// All nodes upstream of `start` through in-memory edges (the walk
    /// never crosses a repartition topic: those are separate source nodes).
    fn upstream(&self, start: usize) -> Vec<usize> {
        let mut seen = vec![false; self.t.nodes.len()];
        let mut stack = self.parents[start].clone();
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            if seen[n] {
                continue;
            }
            seen[n] = true;
            out.push(n);
            stack.extend(self.parents[n].iter().copied());
        }
        out
    }

    /// Known partition count of a topic, if declared on an internal topic.
    fn known_partitions(&self, topic: &str) -> Option<u32> {
        self.t.internal_topics.iter().find(|it| it.name == topic).and_then(|it| it.partitions)
    }
}

fn rule_non_co_partitioned_join(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    for (i, node) in ctx.t.nodes.iter().enumerate() {
        if !node.tags.join {
            continue;
        }
        let upstream = ctx.upstream(i);
        // (a) A key-changing operator sits between this join and its
        // sources with no repartition barrier in between.
        if let Some(&k) = upstream.iter().find(|&&u| ctx.t.nodes[u].tags.key_changing) {
            out.push(Diagnostic {
                rule: Rule::NonCoPartitionedJoin,
                severity: Rule::NonCoPartitionedJoin.severity(),
                node: Some(node.name.clone()),
                message: format!(
                    "input passes through key-changing operator `{}` with no \
                     repartition topic before the join; correlated records can \
                     land on different tasks and never meet (§3.2)",
                    ctx.t.nodes[k].name
                ),
            });
            continue;
        }
        // (b) The join's upstream source topics have known, different
        // partition counts.
        let mut counts: Vec<(String, u32)> = Vec::new();
        for &u in &upstream {
            if let NodeKind::Source { topic, .. } = &ctx.t.nodes[u].kind {
                if let Some(p) = ctx.known_partitions(&topic.name) {
                    counts.push((topic.name.clone(), p));
                }
            }
        }
        counts.sort();
        counts.dedup();
        if counts.len() > 1 && counts.iter().any(|(_, p)| *p != counts[0].1) {
            out.push(Diagnostic {
                rule: Rule::NonCoPartitionedJoin,
                severity: Rule::NonCoPartitionedJoin.severity(),
                node: Some(node.name.clone()),
                message: format!(
                    "input topics have different partition counts ({}); joined \
                     streams must be co-partitioned (§3.2)",
                    counts.iter().map(|(t, p)| format!("{t}={p}")).collect::<Vec<_>>().join(", ")
                ),
            });
        }
    }
}

fn rule_grace_exceeds_retention(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    for node in &ctx.t.nodes {
        let (Some(grace), NodeKind::Processor { stores, .. }) = (node.tags.grace_ms, &node.kind)
        else {
            continue;
        };
        for s in stores {
            let Some((spec, _)) = ctx.t.stores.get(s) else { continue };
            if !matches!(spec.kind, StoreKind::Window | StoreKind::Session) {
                continue;
            }
            if let Some(retention) = spec.retention_ms {
                if spec.changelog && grace > retention {
                    out.push(Diagnostic {
                        rule: Rule::GraceExceedsRetention,
                        severity: Rule::GraceExceedsRetention.severity(),
                        node: Some(node.name.clone()),
                        message: format!(
                            "store `{s}` accepts records up to {grace} ms late but \
                             its changelog only retains {retention} ms; after a \
                             failover the restored window silently loses data the \
                             operator still considers live (§5)"
                        ),
                    });
                }
            }
        }
    }
}

fn rule_suppress_zero_grace(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    for node in &ctx.t.nodes {
        if node.tags.suppress && node.tags.grace_ms == Some(0) {
            out.push(Diagnostic {
                rule: Rule::SuppressZeroGrace,
                severity: Rule::SuppressZeroGrace.severity(),
                node: Some(node.name.clone()),
                message: "suppress below a zero-grace window: the \"final\" result \
                          is emitted the instant the window ends and every late \
                          record is dropped; give the upstream window a grace \
                          period (§5)"
                    .to_string(),
            });
        }
    }
}

fn rule_unused_store(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    for spec in &ctx.t.unused_stores {
        out.push(Diagnostic {
            rule: Rule::UnusedStore,
            severity: Rule::UnusedStore.severity(),
            node: None,
            message: format!(
                "store `{}` is declared but no processor reads or writes it",
                spec.name
            ),
        });
    }
}

fn rule_undeclared_store(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    for (store, node) in &ctx.t.undeclared_stores {
        out.push(Diagnostic {
            rule: Rule::UndeclaredStore,
            severity: Rule::UndeclaredStore.severity(),
            node: Some(ctx.t.nodes[*node].name.clone()),
            message: format!("references store `{store}` which was never declared"),
        });
    }
}

fn rule_cycle(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    // Iterative three-color DFS over the directed children edges.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let n = ctx.t.nodes.len();
    let mut color = vec![WHITE; n];
    for root in 0..n {
        if color[root] != WHITE {
            continue;
        }
        // Stack of (node, next child index to visit).
        let mut stack = vec![(root, 0usize)];
        color[root] = GRAY;
        while let Some(&mut (node, ref mut ci)) = stack.last_mut() {
            if *ci < ctx.t.nodes[node].children.len() {
                let child = ctx.t.nodes[node].children[*ci];
                *ci += 1;
                match color[child] {
                    WHITE => {
                        color[child] = GRAY;
                        stack.push((child, 0));
                    }
                    GRAY => {
                        // Back edge: the cycle is the stack suffix from
                        // `child` to `node`.
                        let names: Vec<&str> = stack
                            .iter()
                            .skip_while(|&&(s, _)| s != child)
                            .map(|&(s, _)| ctx.t.nodes[s].name.as_str())
                            .collect();
                        out.push(Diagnostic {
                            rule: Rule::Cycle,
                            severity: Rule::Cycle.severity(),
                            node: Some(ctx.t.nodes[child].name.clone()),
                            message: format!(
                                "processor graph contains a cycle: {} -> {}",
                                names.join(" -> "),
                                ctx.t.nodes[child].name
                            ),
                        });
                        return;
                    }
                    _ => {}
                }
            } else {
                color[node] = BLACK;
                stack.pop();
            }
        }
    }
}

fn rule_sink_feeds_own_subtopology(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    for st in &ctx.t.subtopologies {
        for &ni in &st.nodes {
            let NodeKind::Sink { topic, .. } = &ctx.t.nodes[ni].kind else { continue };
            if st.source_topics.iter().any(|src| src == topic) {
                out.push(Diagnostic {
                    rule: Rule::SinkFeedsOwnSubtopology,
                    severity: Rule::SinkFeedsOwnSubtopology.severity(),
                    node: Some(ctx.t.nodes[ni].name.clone()),
                    message: format!(
                        "writes topic `{}` which the same sub-topology consumes; \
                         records loop through the broker back into the same task \
                         group (insert a repartition/`through` barrier)",
                        topic.name
                    ),
                });
            }
        }
    }
}

fn rule_changelog_disabled_under_eos(
    ctx: &Ctx<'_>,
    cfg: &StreamsConfig,
    out: &mut Vec<Diagnostic>,
) {
    if cfg.guarantee != ProcessingGuarantee::ExactlyOnce {
        return;
    }
    for (name, (spec, _)) in &ctx.t.stores {
        if !spec.changelog && !ctx.t.source_changelogs.contains_key(name) {
            out.push(Diagnostic {
                rule: Rule::ChangelogDisabledUnderEos,
                severity: Rule::ChangelogDisabledUnderEos.severity(),
                node: None,
                message: format!(
                    "store `{name}` has changelogging disabled under \
                     processing.guarantee=exactly_once; its state cannot be \
                     rebuilt after a failover, silently degrading the \
                     transactional guarantee (§4.2)"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests;
