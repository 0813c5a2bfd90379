//! The typed Streams DSL (§3.2).
//!
//! Mirrors the Kafka Streams DSL of Figure 2: an application reads
//! [`KStream`]s and [`KTable`]s from topics, chains transformations, and
//! pipes results back to topics. The DSL records every operator into an
//! [`InternalBuilder`]; [`StreamsBuilder::build`] compiles the result into a
//! [`Topology`] whose sub-topologies split at repartition boundaries.
//!
//! Key-changing operators (`map`, `select_key`, `group_by`) mark the stream
//! as *repartition required*; the next key-based operator inserts an
//! internal repartition topic, exactly as §3.2 describes for the
//! `map → groupByKey` pair of the running example.
//!
//! Bytes cross into user types at one decode point (`decoded`); one that
//! does not decode fails its task ([`ProcessorContext::fail`]).

pub mod ops;
pub mod windows;

use crate::error::StreamsError;
use crate::kserde::KSerde;
use crate::processor::{Processor, ProcessorContext, StoreId};
use crate::record::FlowRecord;
use crate::state::{StoreKind, StoreSpec};
use crate::topology::builder::InternalBuilder;
use crate::topology::node::{ProcessorFactory, TopicRef, ValueMode};
use crate::topology::{InternalTopic, Topology};
use bytes::Bytes;
use ops::{AggFn, FnOp, FnOpBody, JoinFn};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::Arc;
use windows::{JoinWindows, SessionWindows, TimeWindows, Windowed};

type SharedBuilder = Rc<RefCell<InternalBuilder>>;

/// The typed DSL's one decode point: lend a record's key and its `old` and
/// `new` values, decoded, to `f`. The key decodes through
/// [`KSerde::with_decoded`], so a `String` key borrows a reused buffer and
/// allocates nothing. A record with neither value lends nothing and gives
/// `None`; a record without a key, or bytes that do not decode, is a
/// [`StreamsError::Serde`].
fn decoded<K: KSerde, V: KSerde, R>(
    key: &Option<Bytes>,
    old: Option<&Bytes>,
    new: Option<&Bytes>,
    f: impl FnOnce(&K, Option<V>, Option<V>) -> R,
) -> Result<Option<R>, StreamsError> {
    if old.is_none() && new.is_none() {
        return Ok(None);
    }
    let key = key.as_ref().ok_or_else(|| StreamsError::Serde("a record without a key".into()))?;
    let (old, new) = (value(old)?, value(new)?);
    K::with_decoded(key, |k| f(k, old, new)).map(Some)
}

/// The value-only decode beside [`decoded`]: an absent operand stays `None`.
fn value<V: KSerde>(bytes: Option<&Bytes>) -> Result<Option<V>, StreamsError> {
    bytes.map(|b| V::from_bytes(b)).transpose()
}

/// The one fold behind every reduce, aggregate and count: `step` folds a
/// decoded value into the decoded aggregate, `None` before the first.
fn fold<V: KSerde, VA: KSerde>(
    step: impl Fn(Option<VA>, V) -> VA + Send + Sync + 'static,
) -> AggFn {
    Arc::new(move |agg, v| {
        let (agg, v) = (value::<VA>(agg.as_ref())?, value::<V>(Some(v))?);
        Ok(v.map(|v| step(agg, v).to_bytes()))
    })
}

/// Reduce: the first value is the aggregate, `f` combines each later one
/// into it. The same fold merges two sessions.
fn reducer<V: KSerde>(f: impl Fn(&V, &V) -> V + Send + Sync + 'static) -> AggFn {
    fold(move |agg: Option<V>, v: V| match agg {
        Some(agg) => f(&agg, &v),
        None => v,
    })
}

/// Aggregate: `init` starts the aggregate, `f` folds each value into it.
fn aggregator<V: KSerde, VA: KSerde>(
    init: impl Fn() -> VA + Send + Sync + 'static,
    f: impl Fn(&V, VA) -> VA + Send + Sync + 'static,
) -> AggFn {
    fold(move |agg, v: V| f(&v, agg.unwrap_or_else(&init)))
}

/// Count: each record moves the count by `by` (a retraction by −1).
fn counter(by: i64) -> AggFn {
    fold(move |n: Option<i64>, (): ()| n.unwrap_or(0) + by)
}

/// The joiner behind every typed join, stream or table: `f` on the decoded
/// operands, run only when the operands present are ones `emits` joins.
fn joiner<V1: KSerde, V2: KSerde, VR: KSerde>(
    emits: fn(bool, bool) -> bool,
    f: impl Fn(Option<&V1>, Option<&V2>) -> Option<VR> + Send + Sync + 'static,
) -> JoinFn {
    Arc::new(move |l, r| {
        if !emits(l.is_some(), r.is_some()) {
            return Ok(None);
        }
        let (l, r) = (value::<V1>(l)?, value::<V2>(r)?);
        Ok(f(l.as_ref(), r.as_ref()).map(|joined| joined.to_bytes()))
    })
}

/// An inner join joins when both sides are present.
fn inner_joiner<V1: KSerde, V2: KSerde, VR: KSerde>(
    f: impl Fn(&V1, &V2) -> VR + Send + Sync + 'static,
) -> JoinFn {
    joiner(|l, r| l && r, move |l, r| Some(f(l?, r?)))
}

/// A left join joins whenever the left side is present.
fn left_joiner<V1: KSerde, V2: KSerde, VR: KSerde>(
    f: impl Fn(&V1, Option<&V2>) -> VR + Send + Sync + 'static,
) -> JoinFn {
    joiner(|l, _| l, move |l, r| Some(f(l?, r)))
}

/// An outer join joins whenever either side is present.
fn outer_joiner<V1: KSerde, V2: KSerde, VR: KSerde>(
    f: impl Fn(Option<&V1>, Option<&V2>) -> VR + Send + Sync + 'static,
) -> JoinFn {
    joiner(|l, r| l || r, move |l, r| Some(f(l, r)))
}

/// A stateless operator running `body` on each record.
fn fn_op(body: FnOpBody) -> ProcessorFactory {
    Arc::new(move |_| Box::new(FnOp { body: body.clone() }))
}

/// An operator forwarding every record as it is (the merge of two inputs).
fn pass_through() -> ProcessorFactory {
    fn_op(Arc::new(|ctx, rec| {
        ctx.forward(rec);
        Ok(())
    }))
}

/// Add a processor named after `role` below `parents`, declaring `stores`.
fn add_node(
    b: &mut InternalBuilder,
    role: &str,
    factory: ProcessorFactory,
    parents: &[usize],
    stores: Vec<String>,
) -> usize {
    let name = b.next_name(role);
    b.add_processor(name, factory, parents, stores).expect("generated names and valid parents")
}

/// Declare a store: a name already taken fails [`StreamsBuilder::build`].
fn add_store(b: &mut InternalBuilder, spec: StoreSpec) {
    let added = b.add_store(spec);
    b.defer(added);
}

/// Materialize `parent`'s records into the key-value store `store`, through
/// a node named after `role`.
fn materialize(b: &mut InternalBuilder, role: &str, parent: usize, store: &str) -> usize {
    add_store(b, StoreSpec::new(store, StoreKind::KeyValue));
    let factory: ProcessorFactory = Arc::new(|s| Box::new(ops::TableMaterialize { store: s[0] }));
    add_node(b, role, factory, &[parent], vec![store.to_string()])
}

/// Route `node`'s records through a new repartition topic (§3.2): a grouped
/// stream's records as they are, a grouped table's revisions
/// change-encoded. Returns the node reading the topic back.
fn repartition(b: &mut InternalBuilder, node: usize, mode: ValueMode) -> usize {
    let kind = if mode == ValueMode::Plain { "KSTREAM" } else { "KTABLE" };
    let topic = format!("{}-repartition", b.next_name(&format!("{kind}-AGGREGATE")));
    b.add_internal_topic(InternalTopic { name: topic.clone(), compacted: false, partitions: None });
    let sink = b.next_name(&format!("{kind}-REPARTITION-SINK"));
    b.add_sink(sink, TopicRef::internal(topic.clone()), mode, &[node]).expect("valid parent");
    let source = b.next_name(&format!("{kind}-REPARTITION-SOURCE"));
    b.add_source(source, TopicRef::internal(topic), mode).expect("generated names are unique")
}

/// Entry point: declare sources, then [`build`](Self::build) the topology.
pub struct StreamsBuilder {
    inner: SharedBuilder,
}

impl Default for StreamsBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamsBuilder {
    pub fn new() -> Self {
        Self { inner: Rc::new(RefCell::new(InternalBuilder::new())) }
    }

    fn source(&self, role: &str, topic: &str) -> usize {
        let mut b = self.inner.borrow_mut();
        let name = b.next_name(role);
        let source = b.add_source(name, TopicRef::external(topic), ValueMode::Plain);
        source.expect("generated names are unique")
    }

    /// A record stream from `topic` (Figure 2's `builder.stream(…)`).
    pub fn stream<K: KSerde, V: KSerde>(&self, topic: &str) -> KStream<K, V> {
        KStream::new(&self.inner, self.source("KSTREAM-SOURCE", topic), false)
    }

    /// An evolving table from `topic`: the topic is interpreted as a
    /// changelog of upserts, materialized into `store` (§3.2, §5).
    ///
    /// Applies the §3.3 topology optimization: the source topic already *is*
    /// a changelog of the table, so no separate changelog topic is created —
    /// restore replays the source up to the committed offset instead.
    pub fn table<K: KSerde, V: KSerde>(&self, topic: &str, store: &str) -> KTable<K, V> {
        let src = self.source("KTABLE-SOURCE", topic);
        let mut b = self.inner.borrow_mut();
        let node = materialize(&mut b, "KTABLE-MATERIALIZE", src, store);
        b.set_source_changelog(store, TopicRef::external(topic)).expect("store just declared");
        KTable::new(&self.inner, node, Some(store.to_string()))
    }

    /// Compile into an immutable topology. Outstanding `KStream`/`KTable`
    /// handles become inert (the builder is consumed). A DSL call that
    /// declared an invalid topology (a store name taken twice, a window
    /// suppress without a window) fails here.
    pub fn build(self) -> Result<Topology, StreamsError> {
        self.inner.replace(InternalBuilder::new()).build()
    }
}

/// A typed record stream (§3.2).
pub struct KStream<K, V> {
    inner: SharedBuilder,
    node: usize,
    /// Set by key-changing operators; forces a repartition topic before the
    /// next key-based operation (§3.2).
    repartition_required: bool,
    _pd: PhantomData<fn() -> (K, V)>,
}

impl<K, V> KStream<K, V> {
    fn new(inner: &SharedBuilder, node: usize, repartition_required: bool) -> Self {
        Self { inner: inner.clone(), node, repartition_required, _pd: PhantomData }
    }
}

impl<K, V> Clone for KStream<K, V> {
    fn clone(&self) -> Self {
        Self::new(&self.inner, self.node, self.repartition_required)
    }
}

impl<K: KSerde, V: KSerde> KStream<K, V> {
    /// Add the stateless operator `role`. One that `rekeys` marks the stream
    /// as needing repartitioning.
    fn stateless<K2, V2>(&self, role: &str, rekeys: bool, op: ProcessorFactory) -> KStream<K2, V2> {
        let mut b = self.inner.borrow_mut();
        let node = add_node(&mut b, role, op, &[self.node], vec![]);
        if rekeys {
            b.tag_key_changing(node);
        }
        KStream::new(&self.inner, node, rekeys || self.repartition_required)
    }

    /// A stateless operator handing `emit` what `f` makes of each record's
    /// decoded key and value; a tombstone is dropped.
    fn transform<K2, V2, R>(
        &self,
        role: &str,
        rekeys: bool,
        f: impl Fn(&K, &V) -> R + Send + Sync + 'static,
        emit: impl Fn(&mut ProcessorContext<'_>, FlowRecord, R) + Send + Sync + 'static,
    ) -> KStream<K2, V2> {
        let op = fn_op(Arc::new(move |ctx, rec| {
            let out =
                decoded(&rec.key, None, rec.new.as_ref(), |k, _, v: Option<V>| v.map(|v| f(k, &v)));
            if let Some(out) = out?.flatten() {
                emit(ctx, rec, out);
            }
            Ok(())
        }));
        self.stateless(role, rekeys, op)
    }

    /// Keep records satisfying the predicate.
    pub fn filter(&self, f: impl Fn(&K, &V) -> bool + Send + Sync + 'static) -> KStream<K, V> {
        self.transform("KSTREAM-FILTER", false, f, |ctx, rec, keep| {
            if keep {
                ctx.forward(rec);
            }
        })
    }

    /// Transform values only (key unchanged ⇒ no repartition, §3.2).
    pub fn map_values<V2: KSerde>(
        &self,
        f: impl Fn(&K, &V) -> V2 + Send + Sync + 'static,
    ) -> KStream<K, V2> {
        self.transform("KSTREAM-MAPVALUES", false, f, |ctx, rec, v2: V2| {
            ctx.forward(FlowRecord { new: Some(v2.to_bytes()), old: None, ..rec });
        })
    }

    /// Transform key and value (may change the key ⇒ marks the stream as
    /// needing repartitioning before the next key-based operator).
    pub fn map<K2: KSerde, V2: KSerde>(
        &self,
        f: impl Fn(&K, &V) -> (K2, V2) + Send + Sync + 'static,
    ) -> KStream<K2, V2> {
        self.transform("KSTREAM-MAP", true, f, |ctx, rec, (k2, v2): (K2, V2)| {
            let (key, new) = (Some(k2.to_bytes()), Some(v2.to_bytes()));
            ctx.forward(FlowRecord { key, new, old: None, ts: rec.ts });
        })
    }

    /// Change the key only.
    pub fn select_key<K2: KSerde>(
        &self,
        f: impl Fn(&K, &V) -> K2 + Send + Sync + 'static,
    ) -> KStream<K2, V> {
        self.transform("KSTREAM-SELECTKEY", true, f, |ctx, rec, k2: K2| {
            ctx.forward(FlowRecord { key: Some(k2.to_bytes()), ..rec });
        })
    }

    /// One record in, any number out.
    pub fn flat_map_values<V2: KSerde>(
        &self,
        f: impl Fn(&K, &V) -> Vec<V2> + Send + Sync + 'static,
    ) -> KStream<K, V2> {
        self.transform("KSTREAM-FLATMAPVALUES", false, f, |ctx, rec, values: Vec<V2>| {
            for v2 in values {
                let (key, new) = (rec.key.clone(), Some(v2.to_bytes()));
                ctx.forward(FlowRecord { key, new, old: None, ts: rec.ts });
            }
        })
    }

    /// Keep records NOT satisfying the predicate.
    pub fn filter_not(&self, f: impl Fn(&K, &V) -> bool + Send + Sync + 'static) -> KStream<K, V> {
        self.filter(move |k, v| !f(k, v))
    }

    /// One record in, any number of re-keyed records out (marks the stream
    /// as repartition-required, like `map`).
    pub fn flat_map<K2: KSerde, V2: KSerde>(
        &self,
        f: impl Fn(&K, &V) -> Vec<(K2, V2)> + Send + Sync + 'static,
    ) -> KStream<K2, V2> {
        self.transform("KSTREAM-FLATMAP", true, f, |ctx, rec, pairs: Vec<(K2, V2)>| {
            for (k2, v2) in pairs {
                let (key, new) = (Some(k2.to_bytes()), Some(v2.to_bytes()));
                ctx.forward(FlowRecord { key, new, old: None, ts: rec.ts });
            }
        })
    }

    /// Split the stream: records satisfying the predicate go to the first
    /// returned stream, the rest to the second.
    pub fn branch(
        &self,
        f: impl Fn(&K, &V) -> bool + Send + Sync + 'static,
    ) -> (KStream<K, V>, KStream<K, V>) {
        let f = Arc::new(f);
        let f2 = f.clone();
        let matched = self.filter(move |k, v| f(k, v));
        let rest = self.filter(move |k, v| !f2(k, v));
        (matched, rest)
    }

    /// Interpret the stream as a changelog of upserts and materialize it
    /// into a table (`toTable` in Kafka Streams).
    pub fn to_table(&self, store: &str) -> KTable<K, V> {
        let node = materialize(&mut self.inner.borrow_mut(), "KSTREAM-TOTABLE", self.node, store);
        KTable::new(&self.inner, node, Some(store.to_string()))
    }

    /// Side-effect observation; records pass through unchanged.
    pub fn peek(&self, f: impl Fn(&K, &V) + Send + Sync + 'static) -> KStream<K, V> {
        let op = fn_op(Arc::new(move |ctx, rec| {
            decoded(&rec.key, None, rec.new.as_ref(), |k, _, v: Option<V>| v.map(|v| f(k, &v)))?;
            ctx.forward(rec);
            Ok(())
        }));
        self.stateless("KSTREAM-PEEK", false, op)
    }

    /// Merge two streams of the same type into one.
    pub fn merge(&self, other: &KStream<K, V>) -> KStream<K, V> {
        let mut b = self.inner.borrow_mut();
        let node =
            add_node(&mut b, "KSTREAM-MERGE", pass_through(), &[self.node, other.node], vec![]);
        b.tag_join(node);
        KStream::new(&self.inner, node, self.repartition_required || other.repartition_required)
    }

    /// Attach a custom low-level [`Processor`]
    /// (the Processor API §3.2;
    /// used e.g. for Bloomberg-style outlier detection operators).
    pub fn process<K2: KSerde, V2: KSerde>(
        &self,
        factory: ProcessorFactory,
        stores: Vec<StoreSpec>,
    ) -> KStream<K2, V2> {
        let mut b = self.inner.borrow_mut();
        let store_names: Vec<String> = stores.iter().map(|s| s.name.clone()).collect();
        for spec in stores {
            add_store(&mut b, spec);
        }
        let node = add_node(&mut b, "KSTREAM-PROCESSOR", factory, &[self.node], store_names);
        // A custom processor may emit arbitrary keys; treat it as
        // key-changing for co-partitioning analysis.
        b.tag_key_changing(node);
        KStream::new(&self.inner, node, true)
    }

    /// Write the stream to a topic (Figure 2's `.to(…)`).
    pub fn to(&self, topic: &str) {
        let mut b = self.inner.borrow_mut();
        let name = b.next_name("KSTREAM-SINK");
        b.add_sink(name, TopicRef::external(topic), ValueMode::Plain, &[self.node])
            .expect("valid parent");
    }

    /// Group by the current key, repartitioning first if an upstream
    /// operator may have changed keys (§3.2).
    pub fn group_by_key(&self) -> KGroupedStream<K, V> {
        let repartition = self.repartition_required.then_some(ValueMode::Plain);
        KGroupedStream::new(&self.inner, self.node, repartition)
    }

    /// Re-key then group (always repartitions).
    pub fn group_by<K2: KSerde>(
        &self,
        f: impl Fn(&K, &V) -> K2 + Send + Sync + 'static,
    ) -> KGroupedStream<K2, V> {
        self.select_key(f).group_by_key()
    }

    /// Stream-table inner join: each stream record is enriched with the
    /// table's current value for its key.
    pub fn join_table<VT: KSerde, VR: KSerde>(
        &self,
        table: &KTable<K, VT>,
        f: impl Fn(&V, &VT) -> VR + Send + Sync + 'static,
    ) -> KStream<K, VR> {
        self.table_lookup(table, inner_joiner(f))
    }

    /// Stream-table left join: misses produce `None` on the table side.
    pub fn left_join_table<VT: KSerde, VR: KSerde>(
        &self,
        table: &KTable<K, VT>,
        f: impl Fn(&V, Option<&VT>) -> VR + Send + Sync + 'static,
    ) -> KStream<K, VR> {
        self.table_lookup(table, left_joiner(f))
    }

    fn table_lookup<VT: KSerde, VR: KSerde>(
        &self,
        table: &KTable<K, VT>,
        joiner: JoinFn,
    ) -> KStream<K, VR> {
        let (_, table_store) = table.materialized();
        let factory: ProcessorFactory = Arc::new(move |s| {
            Box::new(ops::StreamTableJoin { table_store: s[0], joiner: joiner.clone() })
        });
        let mut b = self.inner.borrow_mut();
        let node = add_node(&mut b, "KSTREAM-JOIN-TABLE", factory, &[self.node], vec![table_store]);
        b.tag_join(node);
        KStream::new(&self.inner, node, self.repartition_required)
    }

    /// Windowed stream-stream inner join: pairs are emitted as soon as the
    /// second record arrives — no completeness delay needed (§5).
    pub fn join<V2: KSerde, VR: KSerde>(
        &self,
        other: &KStream<K, V2>,
        window: JoinWindows,
        f: impl Fn(&V, &V2) -> VR + Send + Sync + 'static,
    ) -> KStream<K, VR> {
        self.window_join(other, window, inner_joiner(f), false, false)
    }

    /// Windowed left join: unmatched left records are *held* until the
    /// window plus grace elapses, then emitted with a `None` right side —
    /// the §5 example of protecting an append-only output.
    pub fn left_join<V2: KSerde, VR: KSerde>(
        &self,
        other: &KStream<K, V2>,
        window: JoinWindows,
        f: impl Fn(&V, Option<&V2>) -> VR + Send + Sync + 'static,
    ) -> KStream<K, VR> {
        self.window_join(other, window, left_joiner(f), true, false)
    }

    /// Windowed outer join: both sides pad after the hold.
    pub fn outer_join<V2: KSerde, VR: KSerde>(
        &self,
        other: &KStream<K, V2>,
        window: JoinWindows,
        f: impl Fn(Option<&V>, Option<&V2>) -> VR + Send + Sync + 'static,
    ) -> KStream<K, VR> {
        self.window_join(other, window, outer_joiner(f), true, true)
    }

    fn window_join<V2: KSerde, VR: KSerde>(
        &self,
        other: &KStream<K, V2>,
        window: JoinWindows,
        joiner: JoinFn,
        left_pads: bool,
        right_pads: bool,
    ) -> KStream<K, VR> {
        let mut b = self.inner.borrow_mut();
        let base = b.next_name("KSTREAM-JOIN");
        // Both sides declare `[left buffer, right buffer, left pending?,
        // right pending?]`. Join buffers must survive restore for the full
        // horizon a record can still pair or pad: window span plus grace
        // (§5).
        let mut stores = vec![format!("{base}-left-buffer"), format!("{base}-right-buffer")];
        stores.extend(left_pads.then(|| format!("{base}-left-pending")));
        stores.extend(right_pads.then(|| format!("{base}-right-pending")));
        let retention = (window.before_ms + window.after_ms + window.grace_ms).max(1);
        for store in &stores {
            add_store(
                &mut b,
                StoreSpec::new(store, StoreKind::Window).with_retention_ms(retention),
            );
        }
        let side = move |this_is_left: bool| -> ProcessorFactory {
            let joiner = joiner.clone();
            Arc::new(move |s| {
                let pending = &s[2..];
                let left = (s[0], left_pads.then(|| pending[0]));
                let right = (s[1], right_pads.then(|| pending[usize::from(left_pads)]));
                let (mine, other) = if this_is_left { (left, right) } else { (right, left) };
                Box::new(ops::StreamStreamJoin {
                    my_buffer: mine.0,
                    other_buffer: other.0,
                    my_pending: mine.1,
                    other_pending: other.1,
                    window,
                    joiner: joiner.clone(),
                    this_is_left,
                })
            })
        };
        let jl = add_node(&mut b, "KSTREAM-JOINTHIS", side(true), &[self.node], stores.clone());
        let jr = add_node(&mut b, "KSTREAM-JOINOTHER", side(false), &[other.node], stores);
        b.tag_grace(jl, window.grace_ms);
        b.tag_grace(jr, window.grace_ms);
        let node = add_node(&mut b, "KSTREAM-JOINMERGE", pass_through(), &[jl, jr], vec![]);
        b.tag_join(node);
        KStream::new(&self.inner, node, false)
    }
}

/// A grouped stream, ready for aggregation (§3.2).
pub struct KGroupedStream<K, V> {
    inner: SharedBuilder,
    node: usize,
    /// The repartition topic an aggregation needs first, if the key may
    /// have changed: carrying a stream's records (`Plain`) or a re-keyed
    /// table's revisions (`Change`).
    repartition: Option<ValueMode>,
    _pd: PhantomData<fn() -> (K, V)>,
}

impl<K, V> KGroupedStream<K, V> {
    fn new(inner: &SharedBuilder, node: usize, repartition: Option<ValueMode>) -> Self {
        Self { inner: inner.clone(), node, repartition, _pd: PhantomData }
    }
}

impl<K: KSerde, V: KSerde> KGroupedStream<K, V> {
    /// Add the aggregation `role` into the store `spec`, behind the
    /// repartition topic the grouping needs. A windowed one is tagged with
    /// its `grace`.
    fn aggregation<KA, VA>(
        &self,
        spec: StoreSpec,
        role: &str,
        grace: Option<i64>,
        op: impl Fn(StoreId) -> Box<dyn Processor> + Send + Sync + 'static,
    ) -> KTable<KA, VA> {
        let mut b = self.inner.borrow_mut();
        let parent =
            self.repartition.map_or(self.node, |mode| repartition(&mut b, self.node, mode));
        let store = spec.name.clone();
        add_store(&mut b, spec);
        let node =
            add_node(&mut b, role, Arc::new(move |s| op(s[0])), &[parent], vec![store.clone()]);
        if let Some(grace) = grace {
            b.tag_grace(node, grace);
        }
        KTable::new(&self.inner, node, Some(store))
    }

    /// Aggregate per key into the key-value store `store`, retracting the
    /// `old` of a revision with `sub` before adding its `new` with `add`.
    fn kv_aggregate<VA>(&self, role: &str, store: &str, add: AggFn, sub: AggFn) -> KTable<K, VA> {
        self.aggregation(StoreSpec::new(store, StoreKind::KeyValue), role, None, move |store| {
            Box::new(ops::KvAggregate { store, add: add.clone(), sub: sub.clone() })
        })
    }

    fn stream_aggregate<VA>(&self, store: &str, add: AggFn) -> KTable<K, VA> {
        // A stream has no retractions: `sub` never runs.
        self.kv_aggregate("KSTREAM-AGGREGATE", store, add, Arc::new(|agg, _| Ok(agg)))
    }

    /// Count records per key into an evolving table.
    pub fn count(&self, store: &str) -> KTable<K, i64> {
        self.stream_aggregate(store, counter(1))
    }

    /// Combine values per key with `f`.
    pub fn reduce(
        &self,
        store: &str,
        f: impl Fn(&V, &V) -> V + Send + Sync + 'static,
    ) -> KTable<K, V> {
        self.stream_aggregate(store, reducer(f))
    }

    /// General aggregation with an initializer. (Aggregations needing the
    /// key can fold it into the value with `map_values` first.)
    pub fn aggregate<VA: KSerde>(
        &self,
        store: &str,
        init: impl Fn() -> VA + Send + Sync + 'static,
        f: impl Fn(&V, VA) -> VA + Send + Sync + 'static,
    ) -> KTable<K, VA> {
        self.stream_aggregate(store, aggregator(init, f))
    }

    /// Window the grouped stream by fixed time windows (Figure 2's
    /// `windowedBy`).
    pub fn windowed_by(&self, windows: TimeWindows) -> TimeWindowedKStream<K, V> {
        let grouped = Self::new(&self.inner, self.node, self.repartition);
        TimeWindowedKStream { grouped, windows }
    }

    /// Window the grouped stream by sessions.
    pub fn windowed_by_session(&self, windows: SessionWindows) -> SessionWindowedKStream<K, V> {
        let grouped = Self::new(&self.inner, self.node, self.repartition);
        SessionWindowedKStream { grouped, windows }
    }
}

/// A grouped stream with fixed time windows attached.
pub struct TimeWindowedKStream<K, V> {
    grouped: KGroupedStream<K, V>,
    windows: TimeWindows,
}

impl<K: KSerde, V: KSerde> TimeWindowedKStream<K, V> {
    fn window_aggregate<VA: KSerde>(&self, store: &str, agg: AggFn) -> KTable<Windowed<K>, VA> {
        let windows = self.windows;
        // A restored window must cover the full liveness horizon: window
        // size plus grace (§5); shorter retention silently truncates
        // completeness after a failover.
        let retention = (windows.size_ms + windows.grace_ms).max(1);
        let spec = StoreSpec::new(store, StoreKind::Window).with_retention_ms(retention);
        let role = "KSTREAM-WINDOW-AGGREGATE";
        let table = self.grouped.aggregation(spec, role, Some(windows.grace_ms), move |store| {
            Box::new(ops::WindowAggregate { store, windows, agg: agg.clone() })
        });
        KTable { windows: Some(windows), ..table }
    }

    /// Windowed count (Figure 2's `count()` after `windowedBy`).
    pub fn count(&self, store: &str) -> KTable<Windowed<K>, i64> {
        self.window_aggregate(store, counter(1))
    }

    /// Windowed reduce.
    pub fn reduce(
        &self,
        store: &str,
        f: impl Fn(&V, &V) -> V + Send + Sync + 'static,
    ) -> KTable<Windowed<K>, V> {
        self.window_aggregate(store, reducer(f))
    }

    /// Windowed aggregation with an initializer.
    pub fn aggregate<VA: KSerde>(
        &self,
        store: &str,
        init: impl Fn() -> VA + Send + Sync + 'static,
        f: impl Fn(&V, VA) -> VA + Send + Sync + 'static,
    ) -> KTable<Windowed<K>, VA> {
        self.window_aggregate(store, aggregator(init, f))
    }
}

/// A grouped stream with session windows attached.
pub struct SessionWindowedKStream<K, V> {
    grouped: KGroupedStream<K, V>,
    windows: SessionWindows,
}

impl<K: KSerde, V: KSerde> SessionWindowedKStream<K, V> {
    /// Count per session; merging sessions sums their counts.
    pub fn count(&self, store: &str) -> KTable<Windowed<K>, i64> {
        let sum = fold(|n: Option<i64>, m: i64| n.unwrap_or(0) + m);
        self.session_aggregate(store, counter(1), sum)
    }

    /// Session reduce: values combine with `f`, sessions merge with `f`.
    pub fn reduce(
        &self,
        store: &str,
        f: impl Fn(&V, &V) -> V + Send + Sync + 'static,
    ) -> KTable<Windowed<K>, V> {
        let reduce = reducer(f);
        self.session_aggregate(store, reduce.clone(), reduce)
    }

    fn session_aggregate<VA: KSerde>(
        &self,
        store: &str,
        agg: AggFn,
        merge: AggFn,
    ) -> KTable<Windowed<K>, VA> {
        let windows = self.windows;
        // A session stays extendable for gap + grace after its last record.
        let retention = (windows.gap_ms + windows.grace_ms).max(1);
        let spec = StoreSpec::new(store, StoreKind::Session).with_retention_ms(retention);
        let role = "KSTREAM-SESSION-AGGREGATE";
        self.grouped.aggregation(spec, role, Some(windows.grace_ms), move |store| {
            Box::new(ops::SessionAggregate {
                store,
                windows,
                agg: agg.clone(),
                merge: merge.clone(),
            })
        })
    }
}

/// A typed evolving table (§3.2, §5): a stream of revisions with amendment
/// semantics.
pub struct KTable<K, V> {
    inner: SharedBuilder,
    node: usize,
    /// Materialized store, if any.
    store: Option<String>,
    /// Window definition when this table is a windowed aggregate (drives
    /// `suppress_until_window_close`).
    windows: Option<TimeWindows>,
    _pd: PhantomData<fn() -> (K, V)>,
}

impl<K, V> KTable<K, V> {
    fn new(inner: &SharedBuilder, node: usize, store: Option<String>) -> Self {
        Self { inner: inner.clone(), node, store, windows: None, _pd: PhantomData }
    }
}

impl<K, V> Clone for KTable<K, V> {
    fn clone(&self) -> Self {
        Self { windows: self.windows, ..Self::new(&self.inner, self.node, self.store.clone()) }
    }
}

impl<K: KSerde, V: KSerde> KTable<K, V> {
    /// Name of the materialized store (for interactive queries).
    pub fn store_name(&self) -> Option<&str> {
        self.store.as_deref()
    }

    /// Ensure this table is materialized; returns `(node, store name)`.
    fn materialized(&self) -> (usize, String) {
        if let Some(s) = &self.store {
            return (self.node, s.clone());
        }
        let mut b = self.inner.borrow_mut();
        let store = b.next_name("KTABLE-STORE");
        (materialize(&mut b, "KTABLE-MATERIALIZE", self.node, &store), store)
    }

    /// View the table's changelog as a record stream (Figure 2's
    /// `.toStream()`).
    pub fn to_stream(&self) -> KStream<K, V> {
        let to_stream = fn_op(Arc::new(|ctx, rec| {
            ctx.forward(FlowRecord { old: None, ..rec });
            Ok(())
        }));
        let node = add_node(
            &mut self.inner.borrow_mut(),
            "KTABLE-TOSTREAM",
            to_stream,
            &[self.node],
            vec![],
        );
        KStream::new(&self.inner, node, false)
    }

    /// Filter the table; rows failing the predicate become deletions.
    pub fn filter(&self, f: impl Fn(&K, &V) -> bool + Send + Sync + 'static) -> KTable<K, V> {
        let filter = fn_op(Arc::new(move |ctx, rec| {
            let kept = decoded(&rec.key, rec.old.as_ref(), rec.new.as_ref(), |k, old, new| {
                let keep = |v: Option<V>| v.is_some_and(|v| f(k, &v));
                (keep(old), keep(new))
            });
            let Some((keep_old, keep_new)) = kept? else { return Ok(()) };
            let (old, new) = (rec.old.filter(|_| keep_old), rec.new.filter(|_| keep_new));
            if old.is_some() || new.is_some() {
                ctx.forward(FlowRecord { key: rec.key, old, new, ts: rec.ts });
            }
            Ok(())
        }));
        self.stateless("KTABLE-FILTER", filter)
    }

    /// Transform values; both the old and new side of every revision map
    /// through `f` so downstream retractions stay consistent.
    pub fn map_values<V2: KSerde>(
        &self,
        f: impl Fn(&K, &V) -> V2 + Send + Sync + 'static,
    ) -> KTable<K, V2> {
        let map = fn_op(Arc::new(move |ctx, rec| {
            let mapped = decoded(&rec.key, rec.old.as_ref(), rec.new.as_ref(), |k, old, new| {
                let map = |v: Option<V>| v.map(|v| f(k, &v).to_bytes());
                (map(old), map(new))
            });
            let (old, new) = mapped?.unwrap_or_default();
            ctx.forward(FlowRecord { key: rec.key, old, new, ts: rec.ts });
            Ok(())
        }));
        self.stateless("KTABLE-MAPVALUES", map)
    }

    fn stateless<V2>(&self, role: &str, op: ProcessorFactory) -> KTable<K, V2> {
        let node = add_node(&mut self.inner.borrow_mut(), role, op, &[self.node], vec![]);
        KTable { windows: self.windows, ..KTable::new(&self.inner, node, None) }
    }

    /// Table-table inner join (§5's table-valued join: out-of-order updates
    /// become amendments, so results may be emitted speculatively).
    pub fn join<V2: KSerde, VR: KSerde>(
        &self,
        other: &KTable<K, V2>,
        f: impl Fn(&V, &V2) -> VR + Send + Sync + 'static,
    ) -> KTable<K, VR> {
        self.table_join(other, inner_joiner(f))
    }

    /// Table-table left join.
    pub fn left_join<V2: KSerde, VR: KSerde>(
        &self,
        other: &KTable<K, V2>,
        f: impl Fn(&V, Option<&V2>) -> VR + Send + Sync + 'static,
    ) -> KTable<K, VR> {
        self.table_join(other, left_joiner(f))
    }

    /// Table-table outer join.
    pub fn outer_join<V2: KSerde, VR: KSerde>(
        &self,
        other: &KTable<K, V2>,
        f: impl Fn(Option<&V>, Option<&V2>) -> VR + Send + Sync + 'static,
    ) -> KTable<K, VR> {
        self.table_join(other, outer_joiner(f))
    }

    fn table_join<V2: KSerde, VR: KSerde>(
        &self,
        other: &KTable<K, V2>,
        joiner: JoinFn,
    ) -> KTable<K, VR> {
        let (left_node, left_store) = self.materialized();
        let (right_node, right_store) = other.materialized();
        let mut b = self.inner.borrow_mut();
        // Both sides declare `[left store, right store]` and read the other.
        let stores = vec![left_store, right_store];
        let side = |this_is_left: bool| -> ProcessorFactory {
            let joiner = joiner.clone();
            Arc::new(move |s| {
                let other_store = s[usize::from(this_is_left)];
                Box::new(ops::TableTableJoin { other_store, joiner: joiner.clone(), this_is_left })
            })
        };
        let jl = add_node(&mut b, "KTABLE-JOINTHIS", side(true), &[left_node], stores.clone());
        let jr = add_node(&mut b, "KTABLE-JOINOTHER", side(false), &[right_node], stores);
        let node = add_node(&mut b, "KTABLE-JOINMERGE", pass_through(), &[jl, jr], vec![]);
        b.tag_join(node);
        KTable::new(&self.inner, node, None)
    }

    /// Re-key the table for a downstream re-aggregation. Revisions cross the
    /// repartition topic with both old and new values (Change encoding) so
    /// the re-aggregation can retract before accumulating — §5's
    /// recomputation bookkeeping.
    pub fn group_by<K2: KSerde, V2: KSerde>(
        &self,
        f: impl Fn(&K, &V) -> (K2, V2) + Send + Sync + 'static,
    ) -> KGroupedTable<K2, V2> {
        let regroup = fn_op(Arc::new(move |ctx, rec| {
            let regrouped = decoded(&rec.key, rec.old.as_ref(), rec.new.as_ref(), |k, old, new| {
                let regroup = |v: Option<V>| v.map(|v| f(k, &v));
                (regroup(old), regroup(new))
            });
            let Some((old, new)) = regrouped? else { return Ok(()) };
            // Old and new may map to *different* keys: send a retraction to
            // the old key and an addition to the new key.
            if let Some((k2, v2)) = old {
                let (key, old) = (Some(k2.to_bytes()), Some(v2.to_bytes()));
                ctx.forward(FlowRecord { key, old, new: None, ts: rec.ts });
            }
            if let Some((k2, v2)) = new {
                let (key, new) = (Some(k2.to_bytes()), Some(v2.to_bytes()));
                ctx.forward(FlowRecord { key, old: None, new, ts: rec.ts });
            }
            Ok(())
        }));
        let mut b = self.inner.borrow_mut();
        let node = add_node(&mut b, "KTABLE-GROUPBY", regroup, &[self.node], vec![]);
        b.tag_key_changing(node);
        KGroupedTable::new(&self.inner, node)
    }

    /// Buffer revisions until their window closes, emitting one final result
    /// per window (§5's suppress). A table that is not a windowed
    /// aggregation fails [`StreamsBuilder::build`].
    pub fn suppress_until_window_close(&self) -> KTable<K, V> {
        let Some(windows) = self.windows else {
            let msg = "suppress_until_window_close requires a windowed aggregation upstream";
            self.inner.borrow_mut().defer(Err(StreamsError::InvalidTopology(msg.into())));
            return self.clone();
        };
        self.suppress(ops::SuppressMode::WindowClose {
            window_size_ms: windows.size_ms,
            grace_ms: windows.grace_ms,
        })
    }

    /// Coalesce revisions per key, emitting at most one update per
    /// `interval_ms` of stream time (§6.2's output suppression caching).
    pub fn suppress_until_time_limit(&self, interval_ms: i64) -> KTable<K, V> {
        self.suppress(ops::SuppressMode::TimeLimit { interval_ms })
    }

    fn suppress(&self, mode: ops::SuppressMode) -> KTable<K, V> {
        let mut b = self.inner.borrow_mut();
        let store = format!("{}-buffer", b.next_name("KTABLE-SUPPRESS"));
        add_store(&mut b, StoreSpec::new(&store, StoreKind::KeyValue));
        let upstream_grace = match mode {
            ops::SuppressMode::WindowClose { grace_ms, .. } => Some(grace_ms),
            ops::SuppressMode::TimeLimit { .. } => None,
        };
        let factory: ProcessorFactory = Arc::new(move |s| Box::new(ops::Suppress::new(s[0], mode)));
        let node = add_node(&mut b, "KTABLE-SUPPRESS", factory, &[self.node], vec![store]);
        b.tag_suppress(node, upstream_grace);
        KTable { windows: self.windows, ..KTable::new(&self.inner, node, None) }
    }
}

/// A re-keyed table awaiting re-aggregation.
pub struct KGroupedTable<K, V> {
    /// Always behind a repartition topic: `group_by` re-keys by definition.
    /// Revisions cross it change-encoded.
    grouped: KGroupedStream<K, V>,
}

impl<K, V> KGroupedTable<K, V> {
    fn new(inner: &SharedBuilder, node: usize) -> Self {
        Self { grouped: KGroupedStream::new(inner, node, Some(ValueMode::Change)) }
    }
}

impl<K: KSerde, V: KSerde> KGroupedTable<K, V> {
    /// Count rows per new key, with retractions decrementing.
    pub fn count(&self, store: &str) -> KTable<K, i64> {
        self.grouped.kv_aggregate("KTABLE-AGGREGATE", store, counter(1), counter(-1))
    }

    /// Aggregate with explicit adder and subtractor (§5: "users would need
    /// to provide corresponding implementations for both accumulations and
    /// retractions").
    pub fn aggregate<VA: KSerde>(
        &self,
        store: &str,
        init: impl Fn() -> VA + Send + Sync + 'static,
        add: impl Fn(&V, VA) -> VA + Send + Sync + 'static,
        sub: impl Fn(&V, VA) -> VA + Send + Sync + 'static,
    ) -> KTable<K, VA> {
        let init = Arc::new(init);
        let init2 = init.clone();
        let (add, sub) = (aggregator(move || init(), add), aggregator(move || init2(), sub));
        self.grouped.kv_aggregate("KTABLE-AGGREGATE", store, add, sub)
    }
}
