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

pub mod ops;
pub mod windows;

use crate::error::StreamsError;
use crate::kserde::KSerde;

use crate::record::FlowRecord;
use crate::state::{StoreKind, StoreSpec};
use crate::topology::builder::InternalBuilder;
use crate::topology::node::{ProcessorFactory, TopicRef, ValueMode};
use crate::topology::{InternalTopic, Topology};
use bytes::Bytes;
use ops::{AggFn, FnOp, FnOpBody, JoinFn, MergeFn};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::Arc;
use windows::{JoinWindows, SessionWindows, TimeWindows, Windowed};

type SharedBuilder = Rc<RefCell<InternalBuilder>>;

fn fn_op_factory(body: FnOpBody) -> ProcessorFactory {
    Arc::new(move |_| Box::new(FnOp { body: body.clone() }))
}

/// Lend the record's decoded key to `f`: the user's closures only borrow
/// it, so a key type may decode without allocating
/// ([`KSerde::with_decoded`]).
fn with_key<K: KSerde, R>(key: &Option<Bytes>, f: impl FnOnce(&K) -> R) -> R {
    let key = key.as_ref().expect("typed DSL operators require keyed records");
    K::with_decoded(key, f).expect("key deserialization failed")
}

fn de_val<V: KSerde>(val: &Bytes) -> V {
    V::from_bytes(val).expect("value deserialization failed")
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

    /// A record stream from `topic` (Figure 2's `builder.stream(…)`).
    pub fn stream<K: KSerde, V: KSerde>(&self, topic: &str) -> KStream<K, V> {
        let mut b = self.inner.borrow_mut();
        let name = b.next_name("KSTREAM-SOURCE");
        let node = b
            .add_source(name, TopicRef::external(topic), ValueMode::Plain)
            .expect("generated names are unique");
        KStream { inner: self.inner.clone(), node, repartition_required: false, _pd: PhantomData }
    }

    /// An evolving table from `topic`: the topic is interpreted as a
    /// changelog of upserts, materialized into `store` (§3.2, §5).
    ///
    /// Applies the §3.3 topology optimization: the source topic already *is*
    /// a changelog of the table, so no separate changelog topic is created —
    /// restore replays the source up to the committed offset instead.
    pub fn table<K: KSerde, V: KSerde>(&self, topic: &str, store: &str) -> KTable<K, V> {
        let mut b = self.inner.borrow_mut();
        let src_name = b.next_name("KTABLE-SOURCE");
        let src = b
            .add_source(src_name, TopicRef::external(topic), ValueMode::Plain)
            .expect("generated names are unique");
        b.add_store(StoreSpec::new(store, StoreKind::KeyValue)).expect("unique store name");
        b.set_source_changelog(store, TopicRef::external(topic)).expect("store just added");
        let name = b.next_name("KTABLE-MATERIALIZE");
        let factory: ProcessorFactory =
            Arc::new(|s| Box::new(ops::TableMaterialize { store: s[0] }));
        let node =
            b.add_processor(name, factory, &[src], vec![store.to_string()]).expect("valid parent");
        KTable {
            inner: self.inner.clone(),
            node,
            store: Some(store.to_string()),
            windows: None,
            _pd: PhantomData,
        }
    }

    /// Compile into an immutable topology. Outstanding `KStream`/`KTable`
    /// handles become inert (the builder is consumed).
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

impl<K, V> Clone for KStream<K, V> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            node: self.node,
            repartition_required: self.repartition_required,
            _pd: PhantomData,
        }
    }
}

impl<K: KSerde, V: KSerde> KStream<K, V> {
    fn stateless<K2: KSerde, V2: KSerde>(
        &self,
        role: &str,
        body: FnOpBody,
        repartition: bool,
    ) -> KStream<K2, V2> {
        let mut b = self.inner.borrow_mut();
        let name = b.next_name(role);
        let node =
            b.add_processor(name, fn_op_factory(body), &[self.node], vec![]).expect("valid parent");
        KStream {
            inner: self.inner.clone(),
            node,
            repartition_required: repartition,
            _pd: PhantomData,
        }
    }

    /// Keep records satisfying the predicate.
    pub fn filter(&self, f: impl Fn(&K, &V) -> bool + Send + Sync + 'static) -> KStream<K, V> {
        let body: FnOpBody = Arc::new(move |ctx, rec| {
            let Some(v) = &rec.new else { return };
            if with_key::<K, _>(&rec.key, |k| f(k, &de_val::<V>(v))) {
                ctx.forward(rec);
            }
        });
        self.stateless("KSTREAM-FILTER", body, self.repartition_required)
    }

    /// Transform values only (key unchanged ⇒ no repartition, §3.2).
    pub fn map_values<V2: KSerde>(
        &self,
        f: impl Fn(&K, &V) -> V2 + Send + Sync + 'static,
    ) -> KStream<K, V2> {
        let body: FnOpBody = Arc::new(move |ctx, rec| {
            let Some(v) = &rec.new else { return };
            let v2 = with_key::<K, _>(&rec.key, |k| f(k, &de_val::<V>(v)));
            ctx.forward(FlowRecord {
                key: rec.key,
                new: Some(v2.to_bytes()),
                old: None,
                ts: rec.ts,
            });
        });
        self.stateless("KSTREAM-MAPVALUES", body, self.repartition_required)
    }

    /// Transform key and value (may change the key ⇒ marks the stream as
    /// needing repartitioning before the next key-based operator).
    pub fn map<K2: KSerde, V2: KSerde>(
        &self,
        f: impl Fn(&K, &V) -> (K2, V2) + Send + Sync + 'static,
    ) -> KStream<K2, V2> {
        let body: FnOpBody = Arc::new(move |ctx, rec| {
            let Some(v) = &rec.new else { return };
            let (k2, v2) = with_key::<K, _>(&rec.key, |k| f(k, &de_val::<V>(v)));
            ctx.forward(FlowRecord {
                key: Some(k2.to_bytes()),
                new: Some(v2.to_bytes()),
                old: None,
                ts: rec.ts,
            });
        });
        let s = self.stateless("KSTREAM-MAP", body, true);
        self.inner.borrow_mut().tag_key_changing(s.node);
        s
    }

    /// Change the key only.
    pub fn select_key<K2: KSerde>(
        &self,
        f: impl Fn(&K, &V) -> K2 + Send + Sync + 'static,
    ) -> KStream<K2, V> {
        let body: FnOpBody = Arc::new(move |ctx, rec| {
            let Some(v) = &rec.new else { return };
            let k2 = with_key::<K, _>(&rec.key, |k| f(k, &de_val::<V>(v)));
            ctx.forward(FlowRecord { key: Some(k2.to_bytes()), ..rec });
        });
        let s = self.stateless("KSTREAM-SELECTKEY", body, true);
        self.inner.borrow_mut().tag_key_changing(s.node);
        s
    }

    /// One record in, any number out.
    pub fn flat_map_values<V2: KSerde>(
        &self,
        f: impl Fn(&K, &V) -> Vec<V2> + Send + Sync + 'static,
    ) -> KStream<K, V2> {
        let body: FnOpBody = Arc::new(move |ctx, rec| {
            let Some(v) = &rec.new else { return };
            for v2 in with_key::<K, _>(&rec.key, |k| f(k, &de_val::<V>(v))) {
                ctx.forward(FlowRecord {
                    key: rec.key.clone(),
                    new: Some(v2.to_bytes()),
                    old: None,
                    ts: rec.ts,
                });
            }
        });
        self.stateless("KSTREAM-FLATMAPVALUES", body, self.repartition_required)
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
        let body: FnOpBody = Arc::new(move |ctx, rec| {
            let Some(v) = &rec.new else { return };
            for (k2, v2) in with_key::<K, _>(&rec.key, |k| f(k, &de_val::<V>(v))) {
                ctx.forward(FlowRecord {
                    key: Some(k2.to_bytes()),
                    new: Some(v2.to_bytes()),
                    old: None,
                    ts: rec.ts,
                });
            }
        });
        let s = self.stateless("KSTREAM-FLATMAP", body, true);
        self.inner.borrow_mut().tag_key_changing(s.node);
        s
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
        let mut b = self.inner.borrow_mut();
        b.add_store(StoreSpec::new(store, StoreKind::KeyValue)).expect("unique store name");
        let name = b.next_name("KSTREAM-TOTABLE");
        let factory: ProcessorFactory =
            Arc::new(|s| Box::new(ops::TableMaterialize { store: s[0] }));
        let node = b
            .add_processor(name, factory, &[self.node], vec![store.to_string()])
            .expect("valid parent");
        KTable {
            inner: self.inner.clone(),
            node,
            store: Some(store.to_string()),
            windows: None,
            _pd: PhantomData,
        }
    }

    /// Side-effect observation; records pass through unchanged.
    pub fn peek(&self, f: impl Fn(&K, &V) + Send + Sync + 'static) -> KStream<K, V> {
        let body: FnOpBody = Arc::new(move |ctx, rec| {
            if let Some(v) = &rec.new {
                with_key::<K, _>(&rec.key, |k| f(k, &de_val::<V>(v)));
            }
            ctx.forward(rec);
        });
        self.stateless("KSTREAM-PEEK", body, self.repartition_required)
    }

    /// Merge two streams of the same type into one.
    pub fn merge(&self, other: &KStream<K, V>) -> KStream<K, V> {
        let mut b = self.inner.borrow_mut();
        let name = b.next_name("KSTREAM-MERGE");
        // The closure is required: a bare `ProcessorContext::forward` method
        // path cannot generalize over the context lifetime (HRTB).
        #[allow(clippy::redundant_closure_for_method_calls)]
        let body: FnOpBody = Arc::new(|ctx, rec| ctx.forward(rec));
        let node = b
            .add_processor(name, fn_op_factory(body), &[self.node, other.node], vec![])
            .expect("valid parents");
        b.tag_join(node);
        KStream {
            inner: self.inner.clone(),
            node,
            repartition_required: self.repartition_required || other.repartition_required,
            _pd: PhantomData,
        }
    }

    /// Attach a custom low-level [`Processor`](crate::processor::Processor)
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
            b.add_store(spec).expect("unique store name");
        }
        let name = b.next_name("KSTREAM-PROCESSOR");
        let node = b.add_processor(name, factory, &[self.node], store_names).expect("valid parent");
        // A custom processor may emit arbitrary keys; treat it as
        // key-changing for co-partitioning analysis.
        b.tag_key_changing(node);
        KStream { inner: self.inner.clone(), node, repartition_required: true, _pd: PhantomData }
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
        KGroupedStream {
            inner: self.inner.clone(),
            node: self.node,
            repartition_required: self.repartition_required,
            _pd: PhantomData,
        }
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
        self.join_table_internal(table, true, move |v, t| t.map(|t| f(v, t)))
    }

    /// Stream-table left join: misses produce `None` on the table side.
    pub fn left_join_table<VT: KSerde, VR: KSerde>(
        &self,
        table: &KTable<K, VT>,
        f: impl Fn(&V, Option<&VT>) -> VR + Send + Sync + 'static,
    ) -> KStream<K, VR> {
        self.join_table_internal(table, false, move |v, t| Some(f(v, t)))
    }

    fn join_table_internal<VT: KSerde, VR: KSerde>(
        &self,
        table: &KTable<K, VT>,
        inner_join: bool,
        f: impl Fn(&V, Option<&VT>) -> Option<VR> + Send + Sync + 'static,
    ) -> KStream<K, VR> {
        let (_, table_store) = table.materialized();
        let joiner: JoinFn = Arc::new(move |stream_v, table_v| {
            let v = de_val::<V>(stream_v.expect("stream side always present"));
            let t = table_v.map(|b| de_val::<VT>(b));
            f(&v, t.as_ref()).map(|r| r.to_bytes())
        });
        let mut b = self.inner.borrow_mut();
        let name = b.next_name("KSTREAM-JOIN-TABLE");
        let factory: ProcessorFactory = Arc::new(move |s| {
            Box::new(ops::StreamTableJoin {
                table_store: s[0],
                joiner: joiner.clone(),
                left: !inner_join,
            })
        });
        let node =
            b.add_processor(name, factory, &[self.node], vec![table_store]).expect("valid parent");
        b.tag_join(node);
        KStream {
            inner: self.inner.clone(),
            node,
            repartition_required: self.repartition_required,
            _pd: PhantomData,
        }
    }

    /// Windowed stream-stream inner join: pairs are emitted as soon as the
    /// second record arrives — no completeness delay needed (§5).
    pub fn join<V2: KSerde, VR: KSerde>(
        &self,
        other: &KStream<K, V2>,
        window: JoinWindows,
        f: impl Fn(&V, &V2) -> VR + Send + Sync + 'static,
    ) -> KStream<K, VR> {
        let joiner: JoinFn = Arc::new(move |l, r| match (l, r) {
            (Some(l), Some(r)) => Some(f(&de_val::<V>(l), &de_val::<V2>(r)).to_bytes()),
            _ => None,
        });
        self.stream_join_internal(other, window, joiner, false, false)
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
        let joiner: JoinFn = Arc::new(move |l, r| {
            l.map(|l| f(&de_val::<V>(l), r.map(|b| de_val::<V2>(b)).as_ref()).to_bytes())
        });
        self.stream_join_internal(other, window, joiner, true, false)
    }

    /// Windowed outer join: both sides pad after the hold.
    pub fn outer_join<V2: KSerde, VR: KSerde>(
        &self,
        other: &KStream<K, V2>,
        window: JoinWindows,
        f: impl Fn(Option<&V>, Option<&V2>) -> VR + Send + Sync + 'static,
    ) -> KStream<K, VR> {
        let joiner: JoinFn = Arc::new(move |l, r| {
            Some(
                f(l.map(|b| de_val::<V>(b)).as_ref(), r.map(|b| de_val::<V2>(b)).as_ref())
                    .to_bytes(),
            )
        });
        self.stream_join_internal(other, window, joiner, true, true)
    }

    fn stream_join_internal<V2: KSerde, VR: KSerde>(
        &self,
        other: &KStream<K, V2>,
        window: JoinWindows,
        joiner: JoinFn,
        left_pads: bool,
        right_pads: bool,
    ) -> KStream<K, VR> {
        let mut b = self.inner.borrow_mut();
        let base = b.next_name("KSTREAM-JOIN");
        let buf_l = format!("{base}-left-buffer");
        let buf_r = format!("{base}-right-buffer");
        // Join buffers must survive restore for the full horizon a record
        // can still pair or pad: window span plus grace (§5).
        let retention = (window.before_ms + window.after_ms + window.grace_ms).max(1);
        b.add_store(StoreSpec::new(&buf_l, StoreKind::Window).with_retention_ms(retention))
            .expect("unique");
        b.add_store(StoreSpec::new(&buf_r, StoreKind::Window).with_retention_ms(retention))
            .expect("unique");
        let pend_l = left_pads.then(|| format!("{base}-left-pending"));
        let pend_r = right_pads.then(|| format!("{base}-right-pending"));
        for p in pend_l.iter().chain(pend_r.iter()) {
            b.add_store(StoreSpec::new(p, StoreKind::Window).with_retention_ms(retention))
                .expect("unique");
        }
        // Both sides declare `[left buffer, right buffer, left pending?,
        // right pending?]`.
        let mut stores = vec![buf_l, buf_r];
        stores.extend(pend_l);
        stores.extend(pend_r);
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
        let name_l = b.next_name("KSTREAM-JOINTHIS");
        let name_r = b.next_name("KSTREAM-JOINOTHER");
        let jl = b
            .add_processor(name_l, side(true), &[self.node], stores.clone())
            .expect("valid parent");
        let jr = b.add_processor(name_r, side(false), &[other.node], stores).expect("valid parent");
        b.tag_grace(jl, window.grace_ms);
        b.tag_grace(jr, window.grace_ms);
        let merge_name = b.next_name("KSTREAM-JOINMERGE");
        // The closure is required: a bare `ProcessorContext::forward` method
        // path cannot generalize over the context lifetime (HRTB).
        #[allow(clippy::redundant_closure_for_method_calls)]
        let body: FnOpBody = Arc::new(|ctx, rec| ctx.forward(rec));
        let node =
            b.add_processor(merge_name, fn_op_factory(body), &[jl, jr], vec![]).expect("valid");
        b.tag_join(node);
        KStream { inner: self.inner.clone(), node, repartition_required: false, _pd: PhantomData }
    }
}

/// A grouped stream, ready for aggregation (§3.2).
pub struct KGroupedStream<K, V> {
    inner: SharedBuilder,
    node: usize,
    repartition_required: bool,
    _pd: PhantomData<fn() -> (K, V)>,
}

impl<K: KSerde, V: KSerde> KGroupedStream<K, V> {
    /// Insert the repartition topic if the key may have changed upstream;
    /// returns the node aggregations should attach to.
    fn partitioned_node(&self, b: &mut InternalBuilder, mode: ValueMode) -> usize {
        if !self.repartition_required {
            return self.node;
        }
        let topic = format!("{}-repartition", b.next_name("KSTREAM-AGGREGATE"));
        b.add_internal_topic(InternalTopic {
            name: topic.clone(),
            compacted: false,
            partitions: None,
        });
        let sink = b.next_name("KSTREAM-REPARTITION-SINK");
        b.add_sink(sink, TopicRef::internal(topic.clone()), mode, &[self.node])
            .expect("valid parent");
        let src = b.next_name("KSTREAM-REPARTITION-SOURCE");
        b.add_source(src, TopicRef::internal(topic), mode).expect("unique name")
    }

    fn kv_aggregate<VA: KSerde>(&self, store: &str, add: AggFn, sub: AggFn) -> KTable<K, VA> {
        let mut b = self.inner.borrow_mut();
        let node = self.partitioned_node(&mut b, ValueMode::Plain);
        b.add_store(StoreSpec::new(store, StoreKind::KeyValue)).expect("unique store name");
        let name = b.next_name("KSTREAM-AGGREGATE");
        let factory: ProcessorFactory = Arc::new(move |s| {
            Box::new(ops::KvAggregate { store: s[0], add: add.clone(), sub: sub.clone() })
        });
        let n =
            b.add_processor(name, factory, &[node], vec![store.to_string()]).expect("valid parent");
        KTable {
            inner: self.inner.clone(),
            node: n,
            store: Some(store.to_string()),
            windows: None,
            _pd: PhantomData,
        }
    }

    /// Count records per key into an evolving table.
    pub fn count(&self, store: &str) -> KTable<K, i64> {
        self.kv_aggregate(store, count_add(), count_sub())
    }

    /// Combine values per key with `f`.
    pub fn reduce(
        &self,
        store: &str,
        f: impl Fn(&V, &V) -> V + Send + Sync + 'static,
    ) -> KTable<K, V> {
        let add: AggFn = Arc::new(move |cur, v| {
            let v = de_val::<V>(v);
            Some(match cur {
                None => v.to_bytes(),
                Some(c) => f(&de_val::<V>(&c), &v).to_bytes(),
            })
        });
        // A stream reduce has no retraction input; `sub` is never invoked.
        let sub: AggFn = Arc::new(|cur, _| cur);
        self.kv_aggregate(store, add, sub)
    }

    /// General aggregation with an initializer. (Aggregations needing the
    /// key can fold it into the value with `map_values` first.)
    pub fn aggregate<VA: KSerde>(
        &self,
        store: &str,
        init: impl Fn() -> VA + Send + Sync + 'static,
        f: impl Fn(&V, VA) -> VA + Send + Sync + 'static,
    ) -> KTable<K, VA> {
        let add: AggFn = Arc::new(move |cur, v| {
            let acc = match cur {
                None => init(),
                Some(c) => de_val::<VA>(&c),
            };
            Some(f(&de_val::<V>(v), acc).to_bytes())
        });
        let sub: AggFn = Arc::new(|cur, _| cur);
        self.kv_aggregate(store, add, sub)
    }

    /// Window the grouped stream by fixed time windows (Figure 2's
    /// `windowedBy`).
    pub fn windowed_by(&self, windows: TimeWindows) -> TimeWindowedKStream<K, V> {
        TimeWindowedKStream { grouped: self.clone_inner(), windows }
    }

    /// Window the grouped stream by sessions.
    pub fn windowed_by_session(&self, windows: SessionWindows) -> SessionWindowedKStream<K, V> {
        SessionWindowedKStream { grouped: self.clone_inner(), windows }
    }

    fn clone_inner(&self) -> KGroupedStream<K, V> {
        KGroupedStream {
            inner: self.inner.clone(),
            node: self.node,
            repartition_required: self.repartition_required,
            _pd: PhantomData,
        }
    }
}

fn count_add() -> AggFn {
    Arc::new(|cur, _v| {
        let n = cur.map_or(0, |b| i64::from_bytes(&b).expect("count state"));
        Some((n + 1).to_bytes())
    })
}

fn count_sub() -> AggFn {
    Arc::new(|cur, _v| {
        let n = cur.map_or(0, |b| i64::from_bytes(&b).expect("count state"));
        Some((n - 1).to_bytes())
    })
}

/// A grouped stream with fixed time windows attached.
pub struct TimeWindowedKStream<K, V> {
    grouped: KGroupedStream<K, V>,
    windows: TimeWindows,
}

impl<K: KSerde, V: KSerde> TimeWindowedKStream<K, V> {
    fn window_aggregate<VA: KSerde>(&self, store: &str, agg: AggFn) -> KTable<Windowed<K>, VA> {
        let mut b = self.grouped.inner.borrow_mut();
        let node = self.grouped.partitioned_node(&mut b, ValueMode::Plain);
        // A restored window must cover the full liveness horizon: window
        // size plus grace (§5); shorter retention silently truncates
        // completeness after a failover.
        let retention = (self.windows.size_ms + self.windows.grace_ms).max(1);
        b.add_store(StoreSpec::new(store, StoreKind::Window).with_retention_ms(retention))
            .expect("unique store name");
        let name = b.next_name("KSTREAM-WINDOW-AGGREGATE");
        let windows = self.windows;
        let factory: ProcessorFactory = Arc::new(move |s| {
            Box::new(ops::WindowAggregate { store: s[0], windows, agg: agg.clone() })
        });
        let n =
            b.add_processor(name, factory, &[node], vec![store.to_string()]).expect("valid parent");
        b.tag_grace(n, self.windows.grace_ms);
        KTable {
            inner: self.grouped.inner.clone(),
            node: n,
            store: Some(store.to_string()),
            windows: Some(self.windows),
            _pd: PhantomData,
        }
    }

    /// Windowed count (Figure 2's `count()` after `windowedBy`).
    pub fn count(&self, store: &str) -> KTable<Windowed<K>, i64> {
        self.window_aggregate(store, count_add())
    }

    /// Windowed reduce.
    pub fn reduce(
        &self,
        store: &str,
        f: impl Fn(&V, &V) -> V + Send + Sync + 'static,
    ) -> KTable<Windowed<K>, V> {
        let add: AggFn = Arc::new(move |cur, v| {
            let v = de_val::<V>(v);
            Some(match cur {
                None => v.to_bytes(),
                Some(c) => f(&de_val::<V>(&c), &v).to_bytes(),
            })
        });
        self.window_aggregate(store, add)
    }

    /// Windowed aggregation with an initializer.
    pub fn aggregate<VA: KSerde>(
        &self,
        store: &str,
        init: impl Fn() -> VA + Send + Sync + 'static,
        f: impl Fn(&V, VA) -> VA + Send + Sync + 'static,
    ) -> KTable<Windowed<K>, VA> {
        let add: AggFn = Arc::new(move |cur, v| {
            let acc = match cur {
                None => init(),
                Some(c) => de_val::<VA>(&c),
            };
            Some(f(&de_val::<V>(v), acc).to_bytes())
        });
        self.window_aggregate(store, add)
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
        let merge: MergeFn = Arc::new(|a, b| {
            let x = i64::from_bytes(a).expect("count state");
            let y = i64::from_bytes(b).expect("count state");
            (x + y).to_bytes()
        });
        self.session_aggregate(store, count_add(), merge)
    }

    /// Session reduce: values combine with `f`, sessions merge with `f`.
    pub fn reduce(
        &self,
        store: &str,
        f: impl Fn(&V, &V) -> V + Send + Sync + 'static,
    ) -> KTable<Windowed<K>, V> {
        let f = Arc::new(f);
        let f2 = f.clone();
        let add: AggFn = Arc::new(move |cur, v| {
            let v = de_val::<V>(v);
            Some(match cur {
                None => v.to_bytes(),
                Some(c) => f(&de_val::<V>(&c), &v).to_bytes(),
            })
        });
        let merge: MergeFn = Arc::new(move |a, b| f2(&de_val::<V>(a), &de_val::<V>(b)).to_bytes());
        self.session_aggregate(store, add, merge)
    }

    fn session_aggregate<VA: KSerde>(
        &self,
        store: &str,
        agg: AggFn,
        merge: MergeFn,
    ) -> KTable<Windowed<K>, VA> {
        let mut b = self.grouped.inner.borrow_mut();
        let node = self.grouped.partitioned_node(&mut b, ValueMode::Plain);
        // A session stays extendable for gap + grace after its last record.
        let retention = (self.windows.gap_ms + self.windows.grace_ms).max(1);
        b.add_store(StoreSpec::new(store, StoreKind::Session).with_retention_ms(retention))
            .expect("unique store name");
        let name = b.next_name("KSTREAM-SESSION-AGGREGATE");
        let windows = self.windows;
        let factory: ProcessorFactory = Arc::new(move |s| {
            Box::new(ops::SessionAggregate {
                store: s[0],
                windows,
                agg: agg.clone(),
                merge: merge.clone(),
            })
        });
        let n =
            b.add_processor(name, factory, &[node], vec![store.to_string()]).expect("valid parent");
        b.tag_grace(n, self.windows.grace_ms);
        KTable {
            inner: self.grouped.inner.clone(),
            node: n,
            store: Some(store.to_string()),
            windows: None,
            _pd: PhantomData,
        }
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

impl<K, V> Clone for KTable<K, V> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            node: self.node,
            store: self.store.clone(),
            windows: self.windows,
            _pd: PhantomData,
        }
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
        b.add_store(StoreSpec::new(&store, StoreKind::KeyValue)).expect("unique store name");
        let name = b.next_name("KTABLE-MATERIALIZE");
        let factory: ProcessorFactory =
            Arc::new(|s| Box::new(ops::TableMaterialize { store: s[0] }));
        let node = b
            .add_processor(name, factory, &[self.node], vec![store.clone()])
            .expect("valid parent");
        (node, store)
    }

    /// View the table's changelog as a record stream (Figure 2's
    /// `.toStream()`).
    pub fn to_stream(&self) -> KStream<K, V> {
        let mut b = self.inner.borrow_mut();
        let name = b.next_name("KTABLE-TOSTREAM");
        let body: FnOpBody = Arc::new(|ctx, rec| {
            ctx.forward(FlowRecord { old: None, ..rec });
        });
        let node =
            b.add_processor(name, fn_op_factory(body), &[self.node], vec![]).expect("valid parent");
        KStream { inner: self.inner.clone(), node, repartition_required: false, _pd: PhantomData }
    }

    /// Filter the table; rows failing the predicate become deletions.
    pub fn filter(&self, f: impl Fn(&K, &V) -> bool + Send + Sync + 'static) -> KTable<K, V> {
        let body: FnOpBody = Arc::new(move |ctx, rec| {
            let (old, new) = with_key::<K, _>(&rec.key, |key| {
                let keep = |v: &Option<Bytes>| -> Option<Bytes> {
                    v.as_ref().filter(|b| f(key, &de_val::<V>(b))).cloned()
                };
                (keep(&rec.old), keep(&rec.new))
            });
            if old.is_none() && new.is_none() {
                return;
            }
            ctx.forward(FlowRecord { key: rec.key, old, new, ts: rec.ts });
        });
        self.stateless_table("KTABLE-FILTER", body)
    }

    /// Transform values; both the old and new side of every revision map
    /// through `f` so downstream retractions stay consistent.
    pub fn map_values<V2: KSerde>(
        &self,
        f: impl Fn(&K, &V) -> V2 + Send + Sync + 'static,
    ) -> KTable<K, V2> {
        let body: FnOpBody = Arc::new(move |ctx, rec| {
            let (old, new) = with_key::<K, _>(&rec.key, |key| {
                let map = |v: &Option<Bytes>| -> Option<Bytes> {
                    v.as_ref().map(|b| f(key, &de_val::<V>(b)).to_bytes())
                };
                (map(&rec.old), map(&rec.new))
            });
            ctx.forward(FlowRecord { key: rec.key, old, new, ts: rec.ts });
        });
        self.stateless_table("KTABLE-MAPVALUES", body)
    }

    fn stateless_table<K2: KSerde, V2: KSerde>(
        &self,
        role: &str,
        body: FnOpBody,
    ) -> KTable<K2, V2> {
        let mut b = self.inner.borrow_mut();
        let name = b.next_name(role);
        let node =
            b.add_processor(name, fn_op_factory(body), &[self.node], vec![]).expect("valid parent");
        KTable {
            inner: self.inner.clone(),
            node,
            store: None,
            windows: self.windows,
            _pd: PhantomData,
        }
    }

    /// Table-table inner join (§5's table-valued join: out-of-order updates
    /// become amendments, so results may be emitted speculatively).
    pub fn join<V2: KSerde, VR: KSerde>(
        &self,
        other: &KTable<K, V2>,
        f: impl Fn(&V, &V2) -> VR + Send + Sync + 'static,
    ) -> KTable<K, VR> {
        let joiner: JoinFn = Arc::new(move |l, r| match (l, r) {
            (Some(l), Some(r)) => Some(f(&de_val::<V>(l), &de_val::<V2>(r)).to_bytes()),
            _ => None,
        });
        self.table_join_internal(other, joiner)
    }

    /// Table-table left join.
    pub fn left_join<V2: KSerde, VR: KSerde>(
        &self,
        other: &KTable<K, V2>,
        f: impl Fn(&V, Option<&V2>) -> VR + Send + Sync + 'static,
    ) -> KTable<K, VR> {
        let joiner: JoinFn = Arc::new(move |l, r| {
            l.map(|l| f(&de_val::<V>(l), r.map(|b| de_val::<V2>(b)).as_ref()).to_bytes())
        });
        self.table_join_internal(other, joiner)
    }

    /// Table-table outer join.
    pub fn outer_join<V2: KSerde, VR: KSerde>(
        &self,
        other: &KTable<K, V2>,
        f: impl Fn(Option<&V>, Option<&V2>) -> VR + Send + Sync + 'static,
    ) -> KTable<K, VR> {
        let joiner: JoinFn = Arc::new(move |l, r| {
            if l.is_none() && r.is_none() {
                None
            } else {
                Some(
                    f(l.map(|b| de_val::<V>(b)).as_ref(), r.map(|b| de_val::<V2>(b)).as_ref())
                        .to_bytes(),
                )
            }
        });
        self.table_join_internal(other, joiner)
    }

    fn table_join_internal<V2: KSerde, VR: KSerde>(
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
        let name_l = b.next_name("KTABLE-JOINTHIS");
        let name_r = b.next_name("KTABLE-JOINOTHER");
        let jl = b
            .add_processor(name_l, side(true), &[left_node], stores.clone())
            .expect("valid parent");
        let jr = b.add_processor(name_r, side(false), &[right_node], stores).expect("valid parent");
        let merge = b.next_name("KTABLE-JOINMERGE");
        // The closure is required: a bare `ProcessorContext::forward` method
        // path cannot generalize over the context lifetime (HRTB).
        #[allow(clippy::redundant_closure_for_method_calls)]
        let body: FnOpBody = Arc::new(|ctx, rec| ctx.forward(rec));
        let node = b.add_processor(merge, fn_op_factory(body), &[jl, jr], vec![]).expect("valid");
        b.tag_join(node);
        KTable { inner: self.inner.clone(), node, store: None, windows: None, _pd: PhantomData }
    }

    /// Re-key the table for a downstream re-aggregation. Revisions cross the
    /// repartition topic with both old and new values (Change encoding) so
    /// the re-aggregation can retract before accumulating — §5's
    /// recomputation bookkeeping.
    pub fn group_by<K2: KSerde, V2: KSerde>(
        &self,
        f: impl Fn(&K, &V) -> (K2, V2) + Send + Sync + 'static,
    ) -> KGroupedTable<K2, V2> {
        let mut b = self.inner.borrow_mut();
        let name = b.next_name("KTABLE-GROUPBY");
        let body: FnOpBody = Arc::new(move |ctx, rec| {
            with_key::<K, _>(&rec.key, |key| {
                // Old and new may map to *different* keys: send a retraction to
                // the old key and an addition to the new key.
                if let Some(old) = &rec.old {
                    let (k2, v2) = f(key, &de_val::<V>(old));
                    ctx.forward(FlowRecord {
                        key: Some(k2.to_bytes()),
                        old: Some(v2.to_bytes()),
                        new: None,
                        ts: rec.ts,
                    });
                }
                if let Some(new) = &rec.new {
                    let (k2, v2) = f(key, &de_val::<V>(new));
                    ctx.forward(FlowRecord {
                        key: Some(k2.to_bytes()),
                        old: None,
                        new: Some(v2.to_bytes()),
                        ts: rec.ts,
                    });
                }
            });
        });
        let node =
            b.add_processor(name, fn_op_factory(body), &[self.node], vec![]).expect("valid parent");
        b.tag_key_changing(node);
        drop(b);
        KGroupedTable { inner: self.inner.clone(), node, _pd: PhantomData }
    }

    /// Buffer revisions until their window closes, emitting one final result
    /// per window (§5's suppress; requires a windowed table).
    pub fn suppress_until_window_close(&self) -> KTable<K, V> {
        let windows = self
            .windows
            .expect("suppress_until_window_close requires a windowed aggregation upstream");
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
        b.add_store(StoreSpec::new(&store, StoreKind::KeyValue)).expect("unique store name");
        let name = b.next_name("KTABLE-SUPPRESS");
        let upstream_grace = match mode {
            ops::SuppressMode::WindowClose { grace_ms, .. } => Some(grace_ms),
            ops::SuppressMode::TimeLimit { .. } => None,
        };
        let factory: ProcessorFactory = Arc::new(move |s| Box::new(ops::Suppress::new(s[0], mode)));
        let node = b.add_processor(name, factory, &[self.node], vec![store]).expect("valid parent");
        b.tag_suppress(node, upstream_grace);
        KTable {
            inner: self.inner.clone(),
            node,
            store: None,
            windows: self.windows,
            _pd: PhantomData,
        }
    }
}

/// A re-keyed table awaiting re-aggregation.
pub struct KGroupedTable<K, V> {
    inner: SharedBuilder,
    node: usize,
    _pd: PhantomData<fn() -> (K, V)>,
}

impl<K: KSerde, V: KSerde> KGroupedTable<K, V> {
    fn re_aggregate<VA: KSerde>(&self, store: &str, add: AggFn, sub: AggFn) -> KTable<K, VA> {
        let mut b = self.inner.borrow_mut();
        // Always repartition: group_by re-keys by definition. Revisions
        // cross with Change encoding.
        let topic = format!("{}-repartition", b.next_name("KTABLE-AGGREGATE"));
        b.add_internal_topic(InternalTopic {
            name: topic.clone(),
            compacted: false,
            partitions: None,
        });
        let sink = b.next_name("KTABLE-REPARTITION-SINK");
        b.add_sink(sink, TopicRef::internal(topic.clone()), ValueMode::Change, &[self.node])
            .expect("valid parent");
        let src_name = b.next_name("KTABLE-REPARTITION-SOURCE");
        let src = b
            .add_source(src_name, TopicRef::internal(topic), ValueMode::Change)
            .expect("unique name");
        b.add_store(StoreSpec::new(store, StoreKind::KeyValue)).expect("unique store name");
        let name = b.next_name("KTABLE-AGGREGATE");
        let factory: ProcessorFactory = Arc::new(move |s| {
            Box::new(ops::KvAggregate { store: s[0], add: add.clone(), sub: sub.clone() })
        });
        let n =
            b.add_processor(name, factory, &[src], vec![store.to_string()]).expect("valid parent");
        KTable {
            inner: self.inner.clone(),
            node: n,
            store: Some(store.to_string()),
            windows: None,
            _pd: PhantomData,
        }
    }

    /// Count rows per new key, with retractions decrementing.
    pub fn count(&self, store: &str) -> KTable<K, i64> {
        self.re_aggregate(store, count_add(), count_sub())
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
        let addf: AggFn = Arc::new(move |cur, v| {
            let acc = match cur {
                None => init(),
                Some(c) => de_val::<VA>(&c),
            };
            Some(add(&de_val::<V>(v), acc).to_bytes())
        });
        let subf: AggFn = Arc::new(move |cur, v| {
            let acc = match cur {
                None => init2(),
                Some(c) => de_val::<VA>(&c),
            };
            Some(sub(&de_val::<V>(v), acc).to_bytes())
        });
        self.re_aggregate(store, addf, subf)
    }
}
