//! The discrete-event simulation engine.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::ControlFlow;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spyker_obs::MetricId;

use crate::avail::AvailabilityPlan;
use crate::fault::{FaultPlan, ScriptedDrop};
use crate::metrics::Metrics;
use crate::net::{LinkModel, NetworkConfig, Region};
use crate::pairmap::PairMap;
use crate::runtime::{Env, Node, NodeId, WireSize};
use crate::time::SimTime;
use crate::wheel::TimerWheel;

pub(crate) enum EventBody<M> {
    Start,
    Deliver {
        from: NodeId,
        msg: M,
    },
    Timer {
        tag: u64,
    },
    /// Fault injection: the node goes down (its inbox is silently
    /// discarded until it restarts, if ever).
    Crash,
    /// Fault injection: the node comes back with its last state and gets
    /// a [`Node::on_restart`] call.
    Restart,
    /// Fault injection: a [`crate::fault::ConnWindow`] opens (bookkeeping
    /// only — the drop itself is applied per-send via
    /// [`FaultPlan::conn_down`]).
    ConnDrop,
    /// Fault injection: a [`crate::fault::ConnWindow`] closes.
    ConnRestore,
    /// Availability schedule: an [`crate::avail::AvailWindow`] opens — the
    /// node goes offline (events are discarded until it returns).
    Offline,
    /// Availability schedule: an [`crate::avail::AvailWindow`] closes —
    /// the node returns with its state intact and gets a
    /// [`Node::on_restart`] call.
    Online,
    /// Flow-model bookkeeping (only under [`LinkModel::FlowShared`]): the
    /// earliest in-flight flow on `trunk` is due to finish. Stale ticks
    /// (generation mismatch after a join/leave re-plan) are ignored.
    /// Internal: never dispatched to a node, never counted as a
    /// processed event, never reported to taps.
    FlowTick {
        trunk: usize,
        gen: u64,
    },
}

pub(crate) struct Event<M> {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) node: NodeId,
    pub(crate) body: EventBody<M>,
    /// Whether this event has already been counted in the target node's
    /// arrived-but-unprocessed queue (set when deferred because the node was
    /// busy; counted only once even if deferred repeatedly).
    pub(crate) queued: bool,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so the BinaryHeap becomes a min-heap on (time, seq).
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Which event-queue implementation drives the run.
///
/// Both produce the exact same `(time, seq)` total order — golden traces,
/// reports and simtest fingerprints are byte-identical across the two.
/// The wheel is the default; the heap is kept as the frozen reference for
/// equivalence tests and as the baseline the scalability bench beats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// `BinaryHeap<Event>` — `O(log n)` push/pop reference implementation.
    Heap,
    /// Hierarchical timer wheel — amortized `O(1)` push/pop (see the
    /// private `wheel` module).
    Wheel,
}

enum EventQueue<M> {
    Heap(BinaryHeap<Event<M>>),
    Wheel(TimerWheel<M>),
}

impl<M> EventQueue<M> {
    fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::Heap => EventQueue::Heap(BinaryHeap::new()),
            SchedulerKind::Wheel => EventQueue::Wheel(TimerWheel::new()),
        }
    }

    #[inline]
    fn push(&mut self, ev: Event<M>) {
        match self {
            EventQueue::Heap(h) => h.push(ev),
            EventQueue::Wheel(w) => w.push(ev),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Event<M>> {
        match self {
            EventQueue::Heap(h) => h.pop(),
            EventQueue::Wheel(w) => w.pop(),
        }
    }
}

/// A deferred event parked in its target node's side queue, ordered by
/// `seq` ascending (min-heap via reversed [`Ord`]).
struct Deferred<M>(Event<M>);

impl<M> PartialEq for Deferred<M> {
    fn eq(&self, other: &Self) -> bool {
        self.0.seq == other.0.seq
    }
}
impl<M> Eq for Deferred<M> {}
impl<M> PartialOrd for Deferred<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Deferred<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.seq.cmp(&self.0.seq)
    }
}

/// One message in transmission on a trunk under [`LinkModel::FlowShared`].
struct ActiveFlow<M> {
    from: NodeId,
    to: NodeId,
    /// Remaining work in bit-microseconds: `bytes * 8 * 1_000_000`, so a
    /// flow with the full trunk to itself drains `bandwidth_bps` units
    /// per microsecond of virtual time. Integer math keeps re-planning
    /// bit-reproducible.
    remaining: u128,
    /// Propagation latency (+ jitter) added after transmission completes.
    latency: SimTime,
    msg: M,
}

/// One directed region-pair trunk: its in-flight flows share
/// `bandwidth_bps` equally (processor sharing), re-planned on every join
/// and completion.
struct Trunk<M> {
    flows: Vec<ActiveFlow<M>>,
    /// Virtual time the flow set was last settled to.
    last: SimTime,
    /// Bumped on every membership change; outstanding [`EventBody::FlowTick`]s
    /// carrying an older generation are stale and ignored.
    gen: u64,
}

impl<M> Trunk<M> {
    fn new() -> Self {
        Self {
            flows: Vec::new(),
            last: SimTime::ZERO,
            gen: 0,
        }
    }

    /// Drains `(now - last) * bps / n` work units from every in-flight
    /// flow (integer floor — the next tick estimate compensates).
    fn settle(&mut self, now: SimTime, bps: u64) {
        let elapsed = now.as_micros().saturating_sub(self.last.as_micros());
        self.last = now;
        if elapsed == 0 || self.flows.is_empty() {
            return;
        }
        let drain = elapsed as u128 * bps as u128 / self.flows.len() as u128;
        for f in &mut self.flows {
            f.remaining = f.remaining.saturating_sub(drain);
        }
    }

    /// When the earliest in-flight flow finishes, assuming the flow set
    /// stays as-is (any join/leave re-plans with a fresh generation).
    fn next_tick(&self, now: SimTime, bps: u64) -> Option<SimTime> {
        if self.flows.is_empty() {
            return None;
        }
        let min_rem = self.flows.iter().map(|f| f.remaining).min().unwrap_or(0);
        let n = self.flows.len() as u128;
        // ceil-divide, and always at least 1 µs so ticks make progress
        // even when integer floors leave sub-µs residue.
        let dt = ((min_rem * n).div_ceil(bps as u128)).max(1);
        Some(now + SimTime::from_micros(dt as u64))
    }
}

/// Message queued behind the pair's in-flight flow (one active flow per
/// `(from, to)` pair preserves the documented per-link FIFO contract).
struct QueuedMsg<M> {
    remaining: u128,
    latency: SimTime,
    msg: M,
}

struct PairQueue<M> {
    /// Whether a flow for this pair is currently in some trunk.
    active: bool,
    queue: VecDeque<QueuedMsg<M>>,
}

// Manual impl: `#[derive(Default)]` would wrongly bound `M: Default`.
impl<M> Default for PairQueue<M> {
    fn default() -> Self {
        Self {
            active: false,
            queue: VecDeque::new(),
        }
    }
}

/// All [`LinkModel::FlowShared`] state: 16 directed region-pair trunks
/// plus the per-node-pair FIFO queues.
struct FlowNet<M> {
    trunks: Vec<Trunk<M>>,
    pairs: PairMap<PairQueue<M>>,
    /// Total in-flight flows across all trunks (the `sim.flows.active`
    /// gauge).
    active: u64,
    gauge_id: Option<MetricId>,
}

struct Core<M> {
    queue: EventQueue<M>,
    regions: Vec<Region>,
    avail: Vec<SimTime>,
    inbox: Vec<usize>,
    metrics: Metrics,
    net: NetworkConfig,
    rng: StdRng,
    now: SimTime,
    seq: u64,
    faults: FaultPlan,
    /// Dedicated RNG stream for probabilistic drops, so fault draws never
    /// perturb the jitter stream and an empty plan draws nothing.
    fault_rng: StdRng,
    /// Which nodes are currently crashed.
    down: Vec<bool>,
    /// Availability schedule (offline windows + compute tiers).
    availability: AvailabilityPlan,
    /// Which nodes are currently inside an offline window.
    offline: Vec<bool>,
    /// Per-node compute multipliers in thousandths (`1000` = neutral);
    /// scales every [`Env::busy`] charge.
    compute_mul: Vec<u64>,
    /// Per-node side queues of deferred events (target was busy), ordered
    /// by seq. Only the minimum-seq deferred event per node — its
    /// *representative* — rides the global queue, so a deep backlog costs
    /// O(log depth) per processed event instead of the old O(depth)
    /// re-queue storm.
    deferred: Vec<BinaryHeap<Deferred<M>>>,
    /// `seq` of each node's in-flight representative, if any.
    rep_seq: Vec<Option<u64>>,
    /// Per-link FIFO release time: a message never overtakes an earlier
    /// one on the same `(src, dst)` pair.
    link_free: PairMap<SimTime>,
    /// Per-link send counters, maintained only while the plan contains
    /// `NthOnLink` drops.
    link_sends: PairMap<u64>,
    /// Flow-shared bandwidth state (only under [`LinkModel::FlowShared`]).
    flow: Option<FlowNet<M>>,
    /// Cached counter ids for the per-send hot path.
    id_net_bytes: Option<MetricId>,
    id_net_messages: Option<MetricId>,
    /// Cached `net.bytes.<kind>` ids, keyed by the `&'static str` kind.
    kind_ids: Vec<(&'static str, MetricId)>,
}

impl<M: WireSize> Core<M> {
    fn push(&mut self, time: SimTime, node: NodeId, body: EventBody<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event {
            time,
            seq,
            node,
            body,
            queued: false,
        });
    }

    /// Checks every message-drop rule for a `from -> to` send at `at` and
    /// returns the cause label when the message must be dropped.
    ///
    /// Order matters for determinism: scripted and partition checks come
    /// first (no randomness), the probabilistic draw happens last and only
    /// when the effective probability is non-zero, so plans without
    /// probabilistic loss consume no random draws at all.
    fn fault_drop_cause(&mut self, at: SimTime, from: NodeId, to: NodeId) -> Option<&'static str> {
        let mut nth_matched = false;
        if self
            .faults
            .drops
            .iter()
            .any(|d| matches!(d, ScriptedDrop::NthOnLink { from: f, to: t, .. } if *f == from && *t == to))
        {
            let n = self.link_sends.get_or_insert_with(from, to, || 0);
            let sent = *n;
            *n += 1;
            nth_matched = self.faults.drops.iter().any(|d| {
                matches!(d, ScriptedDrop::NthOnLink { from: f, to: t, nth }
                    if *f == from && *t == to && *nth == sent)
            });
        }
        if nth_matched {
            return Some("scripted");
        }
        if self.faults.drops.iter().any(|d| {
            matches!(d, ScriptedDrop::LinkWindow { from: f, to: t, start, end }
                if *f == from && *t == to && at >= *start && at < *end)
        }) {
            return Some("scripted");
        }
        if self.faults.conn_down(from, to, at) {
            return Some("conn");
        }
        if self
            .faults
            .partitioned(self.regions[from], self.regions[to], at)
        {
            return Some("partition");
        }
        let p = self.faults.loss_for(from, to);
        if p > 0.0 && self.fault_rng.gen_range(0.0..1.0) < p {
            return Some("loss");
        }
        None
    }

    fn schedule_send(&mut self, at: SimTime, from: NodeId, to: NodeId, mut msg: M) {
        // Byzantine senders corrupt their payload before it hits the wire;
        // the attack is cloned out so the RNG closure can borrow `self`'s
        // fault stream. Honest senders take no draw at all.
        if !self.faults.byzantine.is_empty() {
            if let Some(attack) = self.faults.attack_for(from).cloned() {
                let frng = &mut self.fault_rng;
                if msg.corrupt(&attack, &mut || frng.gen_range(0.0..1.0)) {
                    self.metrics.add_counter("fault.byzantine", 1);
                    self.metrics
                        .add_counter_suffixed("fault.byzantine.", attack.label(), 1);
                }
            }
        }
        let bytes = msg.wire_size();
        let kind = msg.kind();
        if let Some(id) = self.id_net_bytes {
            self.metrics.add_counter_id(id, bytes as u64);
        }
        self.add_kind_bytes(kind, bytes as u64);
        if let Some(id) = self.id_net_messages {
            self.metrics.add_counter_id(id, 1);
        }
        if self.faults.has_message_faults() {
            if let Some(cause) = self.fault_drop_cause(at, from, to) {
                self.metrics.add_counter("fault.dropped", 1);
                self.metrics
                    .add_counter_suffixed("fault.dropped.", cause, 1);
                return;
            }
        }
        let mut latency = self.net.latency(self.regions[from], self.regions[to]);
        if self.net.jitter_max > SimTime::ZERO {
            latency +=
                SimTime::from_micros(self.rng.gen_range(0..=self.net.jitter_max.as_micros()));
        }
        if self.flow.is_some() {
            self.flow_send(at, from, to, msg, bytes, latency);
            return;
        }
        let delay = latency + self.net.serialization_delay(bytes);
        // FIFO per link: a message never overtakes an earlier one on the
        // same (src, dst) pair.
        let free = self
            .link_free
            .get_or_insert_with(from, to, || SimTime::ZERO);
        let delivery = (at + delay).max(*free);
        *free = delivery;
        self.push(delivery, to, EventBody::Deliver { from, msg });
    }

    /// Adds to `net.bytes.<kind>` through a small per-kind id cache; kinds
    /// are a handful of `&'static str`s, so a linear scan beats hashing.
    fn add_kind_bytes(&mut self, kind: &'static str, delta: u64) {
        for (k, id) in &self.kind_ids {
            if *k == kind {
                let id = *id;
                self.metrics.add_counter_id(id, delta);
                return;
            }
        }
        let name = format!("net.bytes.{kind}");
        if let Some(id) = self.metrics.counter_handle(&name) {
            self.kind_ids.push((kind, id));
            self.metrics.add_counter_id(id, delta);
        }
    }

    /// Entry point for a send under [`LinkModel::FlowShared`]: either the
    /// pair is idle and the message becomes a flow on its region trunk
    /// right away, or it queues behind the pair's in-flight flow
    /// (preserving the per-link FIFO contract exactly as the per-message
    /// model does).
    fn flow_send(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        msg: M,
        bytes: usize,
        latency: SimTime,
    ) {
        // Work units: bit-microseconds; at least 1 so zero-byte messages
        // still traverse the trunk machinery deterministically.
        let remaining = ((bytes as u128) * 8 * 1_000_000).max(1);
        let flow_net = self.flow.as_mut().expect("flow_send without flow state");
        let pq = flow_net
            .pairs
            .get_or_insert_with(from, to, PairQueue::default);
        if pq.active {
            pq.queue.push_back(QueuedMsg {
                remaining,
                latency,
                msg,
            });
            return;
        }
        pq.active = true;
        self.flow_start(
            at,
            ActiveFlow {
                from,
                to,
                remaining,
                latency,
                msg,
            },
        );
    }

    /// Joins a flow onto its region trunk: settles the trunk to `now`,
    /// adds the flow, and re-plans the next completion tick under a fresh
    /// generation.
    fn flow_start(&mut self, now: SimTime, f: ActiveFlow<M>) {
        let bps = self.net.bandwidth_bps;
        let trunk_idx =
            self.regions[f.from].index() * Region::ALL.len() + self.regions[f.to].index();
        let flow_net = self.flow.as_mut().expect("flow_start without flow state");
        let trunk = &mut flow_net.trunks[trunk_idx];
        trunk.settle(now, bps);
        trunk.flows.push(f);
        trunk.gen += 1;
        let gen = trunk.gen;
        let next = trunk.next_tick(now, bps);
        flow_net.active += 1;
        let active = flow_net.active;
        let gauge = flow_net.gauge_id;
        if let Some(id) = gauge {
            self.metrics.gauge_set_id(id, active as f64);
        }
        if let Some(t) = next {
            // FlowTicks target node 0 nominally but are intercepted before
            // dispatch; the node field is never used.
            self.push(
                t,
                0,
                EventBody::FlowTick {
                    trunk: trunk_idx,
                    gen,
                },
            );
        }
    }

    /// Handles an [`EventBody::FlowTick`]: settles the trunk, completes
    /// every drained flow (delivery = completion + propagation latency,
    /// clamped to per-link FIFO), promotes queued messages on the freed
    /// pairs, and re-plans the next tick.
    fn flow_tick(&mut self, now: SimTime, trunk_idx: usize, gen: u64) {
        let bps = self.net.bandwidth_bps;
        let flow_net = match self.flow.as_mut() {
            Some(f) => f,
            None => return,
        };
        let trunk = &mut flow_net.trunks[trunk_idx];
        if gen != trunk.gen {
            return; // stale tick from before a join/leave re-plan
        }
        trunk.settle(now, bps);
        // Stable split keeps completion order (and thus seq assignment)
        // deterministic and comprehensible: flows complete in join order.
        let mut done = Vec::new();
        let mut kept = Vec::new();
        for f in trunk.flows.drain(..) {
            if f.remaining == 0 {
                done.push(f);
            } else {
                kept.push(f);
            }
        }
        trunk.flows = kept;
        trunk.gen += 1;
        let gen = trunk.gen;
        let next = trunk.next_tick(now, bps);
        flow_net.active -= done.len() as u64;
        let active = flow_net.active;
        let gauge = flow_net.gauge_id;
        if let Some(id) = gauge {
            self.metrics.gauge_set_id(id, active as f64);
        }
        if let Some(t) = next {
            self.push(
                t,
                0,
                EventBody::FlowTick {
                    trunk: trunk_idx,
                    gen,
                },
            );
        }
        for f in done {
            // Propagation jitter varies per message, so clamp to the
            // link's previous delivery to keep the FIFO contract.
            let free = self
                .link_free
                .get_or_insert_with(f.from, f.to, || SimTime::ZERO);
            let delivery = (now + f.latency).max(*free);
            *free = delivery;
            self.push(
                delivery,
                f.to,
                EventBody::Deliver {
                    from: f.from,
                    msg: f.msg,
                },
            );
            // The pair is free: start its next queued message, if any.
            let flow_net = self.flow.as_mut().expect("flow state vanished");
            let pq = flow_net
                .pairs
                .get_or_insert_with(f.from, f.to, PairQueue::default);
            if let Some(q) = pq.queue.pop_front() {
                self.flow_start(
                    now,
                    ActiveFlow {
                        from: f.from,
                        to: f.to,
                        remaining: q.remaining,
                        latency: q.latency,
                        msg: q.msg,
                    },
                );
            } else {
                pq.active = false;
            }
        }
    }
}

struct EnvHandle<'a, M> {
    core: &'a mut Core<M>,
    me: NodeId,
    start: SimTime,
    busy: SimTime,
}

impl<M: WireSize> Env<M> for EnvHandle<'_, M> {
    fn now(&self) -> SimTime {
        self.start + self.busy
    }

    fn me(&self) -> NodeId {
        self.me
    }

    fn num_nodes(&self) -> usize {
        self.core.regions.len()
    }

    fn send(&mut self, to: NodeId, msg: M) {
        assert!(to < self.core.regions.len(), "unknown node {to}");
        let at = self.now();
        self.core.schedule_send(at, self.me, to, msg);
    }

    fn set_timer(&mut self, delay: SimTime, tag: u64) {
        let at = self.now() + delay;
        self.core.push(at, self.me, EventBody::Timer { tag });
    }

    fn busy(&mut self, duration: SimTime) {
        // The node's compute tier scales every busy charge; the neutral
        // tier takes the exact original path, so runs without compute
        // multipliers are bit-identical to runs without the feature.
        let mul = self.core.compute_mul[self.me];
        if mul == 1000 {
            self.busy += duration;
        } else {
            self.busy +=
                SimTime::from_micros(((duration.as_micros() as u128 * mul as u128) / 1000) as u64);
        }
    }

    fn record(&mut self, series: &str, value: f64) {
        let now = self.now();
        self.core.metrics.record(series, now, value);
    }

    fn add_counter(&mut self, name: &str, delta: u64) {
        self.core.metrics.add_counter(name, delta);
    }

    fn add_counter_suffixed(&mut self, prefix: &str, suffix: &str, delta: u64) {
        self.core
            .metrics
            .add_counter_suffixed(prefix, suffix, delta);
    }

    fn observe(&mut self, name: &str, value: f64) {
        self.core.metrics.observe(name, value);
    }

    fn gauge_set(&mut self, name: &str, value: f64) {
        self.core.metrics.gauge_set(name, value);
    }

    fn gauge(&self, name: &str) -> Option<f64> {
        self.core.metrics.gauge(name)
    }

    fn span_enter(&mut self, name: &'static str) {
        let now = self.now();
        self.core.metrics.span_enter(self.me as u32, name, now);
    }

    fn span_exit(&mut self, name: &'static str) {
        let now = self.now();
        self.core.metrics.span_exit(self.me as u32, name, now);
    }
}

/// Snapshot handed to the periodic probe callback during
/// [`Simulation::run_with_probe`].
///
/// The probe runs *outside* virtual time: evaluating a model here costs the
/// simulated system nothing, exactly like the paper's measurement harness.
pub struct ProbeCtx<'a, M> {
    time: SimTime,
    nodes: &'a [Box<dyn Node<M>>],
    inbox: &'a [usize],
    metrics: &'a mut Metrics,
}

impl<M> ProbeCtx<'_, M> {
    /// Current virtual time.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// All nodes; downcast via [`Node::as_any`] to inspect concrete state.
    pub fn nodes(&self) -> &[Box<dyn Node<M>>] {
        self.nodes
    }

    /// Number of messages that have arrived at `node` but are still waiting
    /// because the node is busy (paper Fig. 9's queue length).
    pub fn queue_len(&self, node: NodeId) -> usize {
        self.inbox[node]
    }

    /// The metrics collector, for recording probe-derived series.
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }
}

/// What kind of event the simulation just processed, as reported to an
/// [`EventTap`] after the event's handler ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapKind {
    /// A node's [`Node::on_start`] ran.
    Start,
    /// A message delivery was handed to [`Node::on_message`].
    Deliver,
    /// A timer fired ([`Node::on_timer`]).
    Timer,
    /// The node crashed (fault injection).
    Crash,
    /// The node restarted ([`Node::on_restart`] ran).
    Restart,
    /// The event arrived at a crashed node and was silently discarded.
    Discarded,
    /// The node went offline (availability window opened).
    Offline,
    /// The node came back online ([`Node::on_restart`] ran, unless it is
    /// also crashed).
    Online,
    /// The event arrived at an offline node and was silently discarded.
    OfflineDiscarded,
}

/// Read-only view of the simulation handed to an [`EventTap`].
///
/// Like [`ProbeCtx`], the tap runs *outside* virtual time: inspecting node
/// state here costs the simulated system nothing and consumes no random
/// draws, so an attached tap never perturbs the event schedule.
pub struct TapCtx<'a, M> {
    time: SimTime,
    nodes: &'a [Box<dyn Node<M>>],
    inbox: &'a [usize],
    down: &'a [bool],
    offline: &'a [bool],
    metrics: &'a Metrics,
}

impl<M> TapCtx<'_, M> {
    /// Current virtual time.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// All nodes; downcast via [`Node::as_any`] to inspect concrete state.
    pub fn nodes(&self) -> &[Box<dyn Node<M>>] {
        self.nodes
    }

    /// Number of messages that have arrived at `node` but are still
    /// waiting because the node is busy.
    pub fn queue_len(&self, node: NodeId) -> usize {
        self.inbox[node]
    }

    /// `true` while `node` is crashed.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down[node]
    }

    /// `true` while `node` is inside an availability offline window.
    pub fn is_offline(&self, node: NodeId) -> bool {
        self.offline[node]
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        self.metrics
    }
}

/// Observer invoked around every processed event — the hook protocol
/// invariant oracles attach to (see `spyker-simtest`).
///
/// Both methods default to doing nothing, so an implementation only
/// overrides the granularity it needs. Returning [`ControlFlow::Break`]
/// stops the run at the current event; the tap implementation is expected
/// to remember *why* it broke (the simulation only reports the stop).
///
/// A tap only observes: it gets shared references, draws no randomness and
/// schedules nothing, so a run with a tap attached is byte-identical to the
/// same run without one (the `tap_does_not_perturb_the_schedule` test pins
/// this).
pub trait EventTap<M> {
    /// Called just before a delivery is dispatched to a live node, with the
    /// message still intact. Not called for deliveries that a crashed node
    /// discards (those surface as [`TapKind::Discarded`] in
    /// [`EventTap::after_event`]).
    fn on_deliver(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: &M,
        ctx: &TapCtx<'_, M>,
    ) -> ControlFlow<()> {
        let _ = (from, to, msg, ctx);
        ControlFlow::Continue(())
    }

    /// Called after each event's handler ran (or the event was discarded).
    fn after_event(&mut self, node: NodeId, kind: TapKind, ctx: &TapCtx<'_, M>) -> ControlFlow<()> {
        let _ = (node, kind, ctx);
        ControlFlow::Continue(())
    }
}

/// The no-op tap [`Simulation::run_with_probe`] uses; never breaks.
pub struct NoTap;

impl<M> EventTap<M> for NoTap {}

/// Summary of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Number of events (starts, deliveries, timers) processed.
    pub events_processed: u64,
    /// Virtual time at which the run ended.
    pub end_time: SimTime,
}

/// A deterministic discrete-event simulation of one deployment.
///
/// Nodes are added with a region; [`Simulation::run`] (or
/// [`Simulation::run_with_probe`]) then delivers messages in virtual time
/// with the configured latency/bandwidth model, charging [`Env::busy`] time
/// against each node and queueing deliveries while a node is busy.
///
/// See the crate-level docs for a complete example.
pub struct Simulation<M> {
    nodes: Vec<Box<dyn Node<M>>>,
    core: Core<M>,
    started: bool,
    events_processed: u64,
}

impl<M: WireSize> Simulation<M> {
    /// Creates an empty simulation with the given network model and RNG seed
    /// (the seed only matters when jitter is enabled).
    pub fn new(net: NetworkConfig, seed: u64) -> Self {
        let mut metrics = Metrics::new();
        // Cache catalog ids for the per-send hot path. Resolving never
        // touches a counter, so golden traces are unaffected.
        let id_net_bytes = metrics.counter_handle("net.bytes");
        let id_net_messages = metrics.counter_handle("net.messages");
        let flow = match net.link_model {
            LinkModel::PerMessage => None,
            LinkModel::FlowShared => {
                let n_regions = Region::ALL.len();
                Some(FlowNet {
                    trunks: (0..n_regions * n_regions).map(|_| Trunk::new()).collect(),
                    pairs: PairMap::new(),
                    active: 0,
                    gauge_id: metrics.gauge_handle("sim.flows.active"),
                })
            }
        };
        Self {
            nodes: Vec::new(),
            core: Core {
                queue: EventQueue::new(SchedulerKind::Wheel),
                regions: Vec::new(),
                avail: Vec::new(),
                inbox: Vec::new(),
                metrics,
                net,
                rng: StdRng::seed_from_u64(seed ^ 0x6c62_272e_07bb_0142),
                now: SimTime::ZERO,
                seq: 0,
                faults: FaultPlan::none(),
                fault_rng: StdRng::seed_from_u64(seed ^ 0x27d4_eb2f_1656_67c5),
                down: Vec::new(),
                availability: AvailabilityPlan::none(),
                offline: Vec::new(),
                compute_mul: Vec::new(),
                deferred: Vec::new(),
                rep_seq: Vec::new(),
                link_free: PairMap::new(),
                link_sends: PairMap::new(),
                flow,
                id_net_bytes,
                id_net_messages,
                kind_ids: Vec::new(),
            },
            started: false,
            events_processed: 0,
        }
    }

    /// Selects the event-queue implementation (builder style; default
    /// [`SchedulerKind::Wheel`]). Both schedulers produce byte-identical
    /// runs — the heap exists as the frozen reference for equivalence
    /// tests and benchmarks.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started.
    pub fn with_scheduler(mut self, kind: SchedulerKind) -> Self {
        assert!(
            !self.started,
            "scheduler must be chosen before the run starts"
        );
        self.core.queue = EventQueue::new(kind);
        self
    }

    /// Attaches a fault-injection plan (builder style). Must be called
    /// before the first [`Simulation::run`]; see [`FaultPlan`] for what can
    /// be injected. The default is [`FaultPlan::none`], which is
    /// byte-identical to a simulation without fault support.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        assert!(
            !self.started,
            "fault plan must be set before the run starts"
        );
        self.core.faults = plan;
        self
    }

    /// Attaches an availability schedule (builder style): offline windows
    /// and compute-speed multipliers, distinct from fault injection. Must
    /// be called before the first [`Simulation::run`]. The default is
    /// [`AvailabilityPlan::none`], which is byte-identical to a simulation
    /// without availability support.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started, or if two offline
    /// windows of the same node overlap.
    pub fn with_availability(mut self, plan: AvailabilityPlan) -> Self {
        assert!(
            !self.started,
            "availability plan must be set before the run starts"
        );
        if let Some(node) = plan.overlapping_node() {
            panic!("overlapping offline windows for node {node}");
        }
        self.core.availability = plan;
        self
    }

    /// Adds a node in `region` and returns its id (ids are dense, in
    /// insertion order).
    pub fn add_node(&mut self, node: Box<dyn Node<M>>, region: Region) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(node);
        self.core.regions.push(region);
        self.core.avail.push(SimTime::ZERO);
        self.core.inbox.push(0);
        self.core.down.push(false);
        self.core.offline.push(false);
        self.core.compute_mul.push(1000);
        self.core.deferred.push(BinaryHeap::new());
        self.core.rep_seq.push(None);
        id
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node for post-run inspection.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &dyn Node<M> {
        self.nodes[id].as_ref()
    }

    /// All nodes, indexed by id (the slice [`EventTap`]s also see).
    pub fn nodes(&self) -> &[Box<dyn Node<M>>] {
        &self.nodes
    }

    /// Mutable access to a node between run segments.
    ///
    /// Intended for test harnesses that pause a run (probe break or
    /// `max_time`), mutate actor state directly — e.g. to inject an
    /// invariant violation — and resume. Mutating state a handler is
    /// relying on mid-protocol voids the determinism contract only if the
    /// mutation itself is non-deterministic; the simulation schedule is
    /// unaffected either way.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut dyn Node<M> {
        self.nodes[id].as_mut()
    }

    /// Current virtual time (the time of the last processed event, or the
    /// `max_time`/probe time a paused run stopped at).
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// Mutable access to the metrics (for harnesses that stamp run-level
    /// gauges — wall-clock throughput, peak RSS — onto the collector).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    /// Consumes the simulation and returns the collected metrics.
    pub fn into_metrics(self) -> Metrics {
        self.core.metrics
    }

    /// Runs until `max_time` or until no events remain.
    pub fn run(&mut self, max_time: SimTime) -> RunReport {
        self.run_with_probe(max_time, SimTime::MAX, |_| ControlFlow::Continue(()))
    }

    /// Runs until `max_time`, no events remain, or the probe breaks.
    ///
    /// `probe` is invoked every `probe_interval` of virtual time (first at
    /// `probe_interval`), between events. Returning
    /// [`ControlFlow::Break`] stops the run at the probe time.
    pub fn run_with_probe(
        &mut self,
        max_time: SimTime,
        probe_interval: SimTime,
        probe: impl FnMut(&mut ProbeCtx<'_, M>) -> ControlFlow<()>,
    ) -> RunReport {
        self.run_with_probe_and_tap(max_time, probe_interval, probe, &mut NoTap)
    }

    /// Runs until `max_time`, no events remain, or `tap` breaks.
    ///
    /// Every processed event is reported to `tap` (see [`EventTap`]); a
    /// break stops the run at the current event's time.
    pub fn run_with_tap(&mut self, max_time: SimTime, tap: &mut dyn EventTap<M>) -> RunReport {
        self.run_with_probe_and_tap(max_time, SimTime::MAX, |_| ControlFlow::Continue(()), tap)
    }

    /// [`Simulation::run_with_probe`] with an [`EventTap`] attached.
    ///
    /// The tap observes every event (probes stay periodic); either the
    /// probe or the tap can break the run. The tap is a plain observer —
    /// with [`NoTap`] this is exactly `run_with_probe`, byte for byte.
    pub fn run_with_probe_and_tap(
        &mut self,
        max_time: SimTime,
        probe_interval: SimTime,
        mut probe: impl FnMut(&mut ProbeCtx<'_, M>) -> ControlFlow<()>,
        tap: &mut dyn EventTap<M>,
    ) -> RunReport {
        assert!(
            probe_interval > SimTime::ZERO,
            "probe interval must be positive"
        );
        if !self.started {
            self.started = true;
            for id in 0..self.nodes.len() {
                self.core.push(SimTime::ZERO, id, EventBody::Start);
            }
            if !self.core.faults.partitions.is_empty() {
                self.core
                    .metrics
                    .add_counter("fault.partitions", self.core.faults.partitions.len() as u64);
            }
            for crash in self.core.faults.crashes.clone() {
                assert!(crash.node < self.nodes.len(), "crash of unknown node");
                self.core.push(crash.at, crash.node, EventBody::Crash);
                if let Some(t) = crash.restart {
                    self.core.push(t, crash.node, EventBody::Restart);
                }
            }
            for w in self.core.faults.conns.clone() {
                assert!(
                    w.a < self.nodes.len() && w.b < self.nodes.len(),
                    "conn drop of unknown node"
                );
                self.core.push(w.start, w.a, EventBody::ConnDrop);
                self.core.push(w.end, w.a, EventBody::ConnRestore);
            }
            for &(node, mul) in &self.core.availability.compute.clone() {
                assert!(node < self.nodes.len(), "compute tier of unknown node");
                self.core.compute_mul[node] = mul;
            }
            for w in self.core.availability.offline.clone() {
                assert!(w.node < self.nodes.len(), "offline window of unknown node");
                self.core.push(w.start, w.node, EventBody::Offline);
                self.core.push(w.end, w.node, EventBody::Online);
            }
        }
        let mut next_probe = if probe_interval == SimTime::MAX {
            SimTime::MAX
        } else {
            self.core.now + probe_interval
        };
        loop {
            // Deferral loop: park events whose target is still busy. Only
            // the minimum-seq deferred event per node (its representative)
            // rides the global queue at the node's avail time; the rest
            // wait in the node's seq-ordered side queue and are promoted
            // one at a time, so a backlog of depth d costs O(log d) per
            // processed event instead of O(d) re-queues.
            let event = loop {
                match self.core.queue.pop() {
                    None => {
                        return RunReport {
                            events_processed: self.events_processed,
                            end_time: self.core.now,
                        };
                    }
                    Some(mut ev) => {
                        // Crash/restart take effect immediately: a crash
                        // interrupts whatever the node was busy with.
                        // FlowTicks are trunk bookkeeping, not node input.
                        if matches!(
                            ev.body,
                            EventBody::Crash
                                | EventBody::Restart
                                | EventBody::ConnDrop
                                | EventBody::ConnRestore
                                | EventBody::Offline
                                | EventBody::Online
                                | EventBody::FlowTick { .. }
                        ) {
                            break ev;
                        }
                        let avail = self.core.avail[ev.node];
                        if avail > ev.time
                            && !self.core.down[ev.node]
                            && !self.core.offline[ev.node]
                        {
                            if !ev.queued {
                                ev.queued = true;
                                self.core.inbox[ev.node] += 1;
                            }
                            match self.core.rep_seq[ev.node] {
                                // A lower-seq representative is already in
                                // flight: park in the side queue. (The old
                                // representative entry of a node whose rep
                                // changed is handled here too when it
                                // eventually pops.)
                                Some(r) if ev.seq > r => {
                                    self.core.deferred[ev.node].push(Deferred(ev));
                                }
                                // No representative, this event *is* the
                                // representative re-popping (seq == r), or
                                // it has a smaller seq and takes over.
                                _ => {
                                    self.core.rep_seq[ev.node] = Some(ev.seq);
                                    ev.time = avail;
                                    self.core.queue.push(ev);
                                }
                            }
                            continue;
                        }
                        break ev;
                    }
                }
            };

            // Fire probes scheduled before this event.
            while next_probe <= event.time && next_probe <= max_time {
                self.core.now = next_probe;
                let mut ctx = ProbeCtx {
                    time: next_probe,
                    nodes: &self.nodes,
                    inbox: &self.core.inbox,
                    metrics: &mut self.core.metrics,
                };
                if probe(&mut ctx).is_break() {
                    // Requeue the unprocessed event so a later run resumes.
                    self.core.queue.push(event);
                    return RunReport {
                        events_processed: self.events_processed,
                        end_time: next_probe,
                    };
                }
                next_probe += probe_interval;
            }

            if event.time > max_time {
                self.core.queue.push(event);
                self.core.now = max_time;
                return RunReport {
                    events_processed: self.events_processed,
                    end_time: max_time,
                };
            }

            self.core.now = event.time;
            if let EventBody::FlowTick { trunk, gen } = event.body {
                // Internal bandwidth bookkeeping: not a node event, not
                // counted, not reported to taps.
                self.core.flow_tick(event.time, trunk, gen);
                continue;
            }
            if event.queued {
                self.core.inbox[event.node] -= 1;
            }
            // Seqs are unique, so this identifies exactly the in-flight
            // representative; consuming it must promote the node's next
            // deferred event into the global queue.
            let was_rep = self.core.rep_seq[event.node] == Some(event.seq);
            match event.body {
                EventBody::Crash => {
                    // The node goes down mid-whatever: pending busy time is
                    // void and everything delivered from now on is
                    // discarded (below) until a restart.
                    self.core.down[event.node] = true;
                    self.core.avail[event.node] = event.time;
                    self.core.metrics.add_counter("fault.crashes", 1);
                    self.core
                        .metrics
                        .span_enter(event.node as u32, "node.down", event.time);
                    self.events_processed += 1;
                    if self.fire_tap(tap, event.node, TapKind::Crash).is_break() {
                        return self.report();
                    }
                    continue;
                }
                EventBody::Restart => {
                    self.core.down[event.node] = false;
                    self.core.metrics.add_counter("fault.restarts", 1);
                    self.core
                        .metrics
                        .span_exit(event.node as u32, "node.down", event.time);
                    // A node restarting inside an offline window stays
                    // silent until the window closes (on_restart fires at
                    // its Online transition instead).
                    if !self.core.offline[event.node] {
                        let mut env = EnvHandle {
                            core: &mut self.core,
                            me: event.node,
                            start: event.time,
                            busy: SimTime::ZERO,
                        };
                        self.nodes[event.node].on_restart(&mut env);
                        let busy = env.busy;
                        self.core.avail[event.node] = event.time + busy;
                    }
                    self.events_processed += 1;
                    if self.fire_tap(tap, event.node, TapKind::Restart).is_break() {
                        return self.report();
                    }
                    continue;
                }
                EventBody::ConnDrop => {
                    self.core.metrics.add_counter("fault.conn.drop", 1);
                    self.events_processed += 1;
                    continue;
                }
                EventBody::ConnRestore => {
                    self.core.metrics.add_counter("fault.conn.restore", 1);
                    self.events_processed += 1;
                    continue;
                }
                EventBody::Offline => {
                    // The node goes off the air mid-whatever: pending busy
                    // time is void and everything delivered from now on is
                    // discarded (below) until the window closes.
                    self.core.offline[event.node] = true;
                    self.core.avail[event.node] = event.time;
                    self.core.metrics.add_counter("sim.availability.offline", 1);
                    self.core
                        .metrics
                        .span_enter(event.node as u32, "node.offline", event.time);
                    self.events_processed += 1;
                    if self.fire_tap(tap, event.node, TapKind::Offline).is_break() {
                        return self.report();
                    }
                    continue;
                }
                EventBody::Online => {
                    self.core.offline[event.node] = false;
                    self.core.metrics.add_counter("sim.availability.online", 1);
                    self.core
                        .metrics
                        .span_exit(event.node as u32, "node.offline", event.time);
                    // A node that also crashed while offline stays silent
                    // until its Restart; otherwise it returns with state
                    // intact and re-announces itself via on_restart.
                    if !self.core.down[event.node] {
                        let mut env = EnvHandle {
                            core: &mut self.core,
                            me: event.node,
                            start: event.time,
                            busy: SimTime::ZERO,
                        };
                        self.nodes[event.node].on_restart(&mut env);
                        let busy = env.busy;
                        self.core.avail[event.node] = event.time + busy;
                    }
                    self.events_processed += 1;
                    if self.fire_tap(tap, event.node, TapKind::Online).is_break() {
                        return self.report();
                    }
                    continue;
                }
                _ => {}
            }
            if self.core.down[event.node] {
                // Crashed nodes silently lose their inbox: deliveries,
                // timers and even the start event evaporate.
                self.core.metrics.add_counter("fault.discarded", 1);
                self.events_processed += 1;
                if was_rep {
                    self.promote_deferred(event.node, event.time);
                }
                if self
                    .fire_tap(tap, event.node, TapKind::Discarded)
                    .is_break()
                {
                    return self.report();
                }
                continue;
            }
            if self.core.offline[event.node] {
                // Offline nodes neither train nor transmit: deliveries,
                // timers and even the start event evaporate, under the
                // availability namespace rather than the fault one.
                self.core
                    .metrics
                    .add_counter("sim.availability.discarded", 1);
                self.events_processed += 1;
                if was_rep {
                    self.promote_deferred(event.node, event.time);
                }
                if self
                    .fire_tap(tap, event.node, TapKind::OfflineDiscarded)
                    .is_break()
                {
                    return self.report();
                }
                continue;
            }
            let kind = match &event.body {
                EventBody::Start => TapKind::Start,
                EventBody::Deliver { from, msg } => {
                    if tap
                        .on_deliver(*from, event.node, msg, &self.tap_ctx())
                        .is_break()
                    {
                        return self.report();
                    }
                    TapKind::Deliver
                }
                EventBody::Timer { .. } => TapKind::Timer,
                EventBody::Crash
                | EventBody::Restart
                | EventBody::ConnDrop
                | EventBody::ConnRestore
                | EventBody::Offline
                | EventBody::Online
                | EventBody::FlowTick { .. } => unreachable!("handled above"),
            };
            let mut env = EnvHandle {
                core: &mut self.core,
                me: event.node,
                start: event.time,
                busy: SimTime::ZERO,
            };
            let node = &mut self.nodes[event.node];
            match event.body {
                EventBody::Start => node.on_start(&mut env),
                EventBody::Deliver { from, msg } => node.on_message(&mut env, from, msg),
                EventBody::Timer { tag } => node.on_timer(&mut env, tag),
                EventBody::Crash
                | EventBody::Restart
                | EventBody::ConnDrop
                | EventBody::ConnRestore
                | EventBody::Offline
                | EventBody::Online
                | EventBody::FlowTick { .. } => unreachable!("handled above"),
            }
            let busy = env.busy;
            self.core.avail[event.node] = event.time + busy;
            self.events_processed += 1;
            if was_rep {
                self.promote_deferred(event.node, event.time);
            }
            if self.fire_tap(tap, event.node, kind).is_break() {
                return self.report();
            }
        }
    }

    /// The node's representative deferred event was just consumed: move
    /// the next-lowest-seq parked event (if any) into the global queue at
    /// the node's availability time.
    fn promote_deferred(&mut self, node: NodeId, at: SimTime) {
        self.core.rep_seq[node] = None;
        if let Some(Deferred(mut nxt)) = self.core.deferred[node].pop() {
            self.core.rep_seq[node] = Some(nxt.seq);
            // `avail` for a processed predecessor, the event's original
            // deferral horizon (`at`) when the predecessor was discarded
            // while the node was down.
            nxt.time = self.core.avail[node].max(at);
            self.core.queue.push(nxt);
        }
    }

    /// Reports the just-processed event to `tap`.
    fn fire_tap(&self, tap: &mut dyn EventTap<M>, node: NodeId, kind: TapKind) -> ControlFlow<()> {
        tap.after_event(node, kind, &self.tap_ctx())
    }

    fn tap_ctx(&self) -> TapCtx<'_, M> {
        TapCtx {
            time: self.core.now,
            nodes: &self.nodes,
            inbox: &self.core.inbox,
            down: &self.core.down,
            offline: &self.core.offline,
            metrics: &self.core.metrics,
        }
    }

    fn report(&self) -> RunReport {
        RunReport {
            events_processed: self.events_processed,
            end_time: self.core.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    #[derive(Debug, Clone)]
    struct Msg {
        payload: u32,
        bytes: usize,
    }

    impl WireSize for Msg {
        fn wire_size(&self) -> usize {
            self.bytes
        }
        fn kind(&self) -> &'static str {
            "test"
        }
    }

    /// Records the delivery times of everything it receives.
    struct Recorder {
        received: Vec<(SimTime, NodeId, u32)>,
    }

    impl Node<Msg> for Recorder {
        fn on_start(&mut self, _env: &mut dyn Env<Msg>) {}
        fn on_message(&mut self, env: &mut dyn Env<Msg>, from: NodeId, msg: Msg) {
            self.received.push((env.now(), from, msg.payload));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends a burst of messages to node 1 at start.
    struct Burst {
        count: u32,
        bytes: usize,
    }

    impl Node<Msg> for Burst {
        fn on_start(&mut self, env: &mut dyn Env<Msg>) {
            for i in 0..self.count {
                env.send(
                    1,
                    Msg {
                        payload: i,
                        bytes: self.bytes,
                    },
                );
            }
        }
        fn on_message(&mut self, _env: &mut dyn Env<Msg>, _from: NodeId, _msg: Msg) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_node_sim(sender: Box<dyn Node<Msg>>) -> Simulation<Msg> {
        let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(10)), 1);
        sim.add_node(sender, Region::Paris);
        sim.add_node(
            Box::new(Recorder {
                received: Vec::new(),
            }),
            Region::Sydney,
        );
        sim
    }

    fn recorder_received(sim: &Simulation<Msg>) -> Vec<(SimTime, NodeId, u32)> {
        sim.node(1)
            .as_any()
            .downcast_ref::<Recorder>()
            .unwrap()
            .received
            .clone()
    }

    #[test]
    fn delivery_charges_latency_and_serialization() {
        // 125_000 bytes at 100 Mbps = 10 ms serialization + 10 ms latency.
        let mut sim = two_node_sim(Box::new(Burst {
            count: 1,
            bytes: 125_000,
        }));
        sim.run(SimTime::from_secs(1));
        let recv = recorder_received(&sim);
        assert_eq!(recv.len(), 1);
        assert_eq!(recv[0].0, SimTime::from_millis(20));
    }

    #[test]
    fn links_are_fifo_even_with_mixed_sizes() {
        // A big message sent first must not be overtaken by a small one.
        struct TwoSends;
        impl Node<Msg> for TwoSends {
            fn on_start(&mut self, env: &mut dyn Env<Msg>) {
                env.send(
                    1,
                    Msg {
                        payload: 0,
                        bytes: 1_250_000,
                    },
                ); // 100 ms ser
                env.send(
                    1,
                    Msg {
                        payload: 1,
                        bytes: 125,
                    },
                ); // ~0 ms ser
            }
            fn on_message(&mut self, _e: &mut dyn Env<Msg>, _f: NodeId, _m: Msg) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = two_node_sim(Box::new(TwoSends));
        sim.run(SimTime::from_secs(1));
        let recv = recorder_received(&sim);
        assert_eq!(recv.len(), 2);
        assert_eq!(recv[0].2, 0, "first-sent must arrive first");
        assert!(recv[0].0 <= recv[1].0);
    }

    #[test]
    fn busy_nodes_queue_deliveries() {
        /// A receiver that takes 50 ms to process each message.
        struct Slow {
            processed_at: Vec<SimTime>,
        }
        impl Node<Msg> for Slow {
            fn on_start(&mut self, _env: &mut dyn Env<Msg>) {}
            fn on_message(&mut self, env: &mut dyn Env<Msg>, _f: NodeId, _m: Msg) {
                self.processed_at.push(env.now());
                env.busy(SimTime::from_millis(50));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(1)), 1);
        sim.add_node(Box::new(Burst { count: 3, bytes: 0 }), Region::Paris);
        sim.add_node(
            Box::new(Slow {
                processed_at: Vec::new(),
            }),
            Region::Paris,
        );
        sim.run(SimTime::from_secs(1));
        let slow = sim.node(1).as_any().downcast_ref::<Slow>().unwrap();
        assert_eq!(slow.processed_at.len(), 3);
        // All arrive at 1 ms, but processing is serialized 50 ms apart.
        assert_eq!(slow.processed_at[0], SimTime::from_millis(1));
        assert_eq!(slow.processed_at[1], SimTime::from_millis(51));
        assert_eq!(slow.processed_at[2], SimTime::from_millis(101));
    }

    #[test]
    fn probe_observes_queue_length() {
        let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(1)), 1);
        sim.add_node(Box::new(Burst { count: 5, bytes: 0 }), Region::Paris);
        struct VerySlow;
        impl Node<Msg> for VerySlow {
            fn on_start(&mut self, _env: &mut dyn Env<Msg>) {}
            fn on_message(&mut self, env: &mut dyn Env<Msg>, _f: NodeId, _m: Msg) {
                env.busy(SimTime::from_secs(10));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        sim.add_node(Box::new(VerySlow), Region::Paris);
        let mut max_queue = 0;
        sim.run_with_probe(SimTime::from_secs(5), SimTime::from_millis(100), |ctx| {
            max_queue = max_queue.max(ctx.queue_len(1));
            ControlFlow::Continue(())
        });
        // First message grabs the node for 10 s; the other 4 queue up.
        assert_eq!(max_queue, 4);
    }

    #[test]
    fn probe_can_stop_the_run() {
        let mut sim = two_node_sim(Box::new(Burst { count: 1, bytes: 0 }));
        let report = sim.run_with_probe(SimTime::from_secs(10), SimTime::from_millis(1), |ctx| {
            if ctx.time() >= SimTime::from_millis(3) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(report.end_time, SimTime::from_millis(3));
    }

    #[test]
    fn bytes_are_accounted_by_kind() {
        let mut sim = two_node_sim(Box::new(Burst {
            count: 2,
            bytes: 100,
        }));
        sim.run(SimTime::from_secs(1));
        assert_eq!(sim.metrics().counter("net.bytes"), 200);
        assert_eq!(sim.metrics().counter("net.bytes.test"), 200);
        assert_eq!(sim.metrics().counter("net.messages"), 2);
    }

    #[test]
    fn tap_does_not_perturb_the_schedule() {
        // A run with a counting tap attached must be byte-identical to the
        // same run without one — the oracle hook is a pure observer.
        struct Counting {
            delivers: u64,
            events: u64,
        }
        impl EventTap<Msg> for Counting {
            fn on_deliver(
                &mut self,
                _from: NodeId,
                _to: NodeId,
                _msg: &Msg,
                _ctx: &TapCtx<'_, Msg>,
            ) -> ControlFlow<()> {
                self.delivers += 1;
                ControlFlow::Continue(())
            }
            fn after_event(
                &mut self,
                _node: NodeId,
                _kind: TapKind,
                _ctx: &TapCtx<'_, Msg>,
            ) -> ControlFlow<()> {
                self.events += 1;
                ControlFlow::Continue(())
            }
        }
        let run = |with_tap: bool| {
            let mut sim = Simulation::new(
                NetworkConfig::uniform_all(SimTime::from_millis(5))
                    .with_jitter(SimTime::from_millis(3)),
                7,
            )
            .with_faults(FaultPlan::none().with_loss(0.2).crash(
                0,
                SimTime::from_millis(30),
                Some(SimTime::from_millis(60)),
            ));
            sim.add_node(
                Box::new(Burst {
                    count: 10,
                    bytes: 10,
                }),
                Region::Paris,
            );
            sim.add_node(
                Box::new(Recorder {
                    received: Vec::new(),
                }),
                Region::Sydney,
            );
            let report = if with_tap {
                let mut tap = Counting {
                    delivers: 0,
                    events: 0,
                };
                let report = sim.run_with_tap(SimTime::from_secs(1), &mut tap);
                assert_eq!(tap.events, report.events_processed);
                assert!(tap.delivers > 0 && tap.delivers <= 10);
                report
            } else {
                sim.run(SimTime::from_secs(1))
            };
            (recorder_received(&sim), report.events_processed)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn tap_break_stops_the_run_at_the_event() {
        struct StopAfter {
            left: u32,
        }
        impl EventTap<Msg> for StopAfter {
            fn after_event(
                &mut self,
                _node: NodeId,
                _kind: TapKind,
                _ctx: &TapCtx<'_, Msg>,
            ) -> ControlFlow<()> {
                if self.left == 0 {
                    return ControlFlow::Break(());
                }
                self.left -= 1;
                ControlFlow::Continue(())
            }
        }
        let mut sim = two_node_sim(Box::new(Burst { count: 5, bytes: 0 }));
        let mut tap = StopAfter { left: 2 };
        let report = sim.run_with_tap(SimTime::from_secs(1), &mut tap);
        assert_eq!(report.events_processed, 3, "broke on the third event");
        // The remaining deliveries are still queued; resuming drains them.
        sim.run(SimTime::from_secs(1));
        assert_eq!(recorder_received(&sim).len(), 5);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed| {
            let mut sim = Simulation::new(
                NetworkConfig::uniform_all(SimTime::from_millis(5))
                    .with_jitter(SimTime::from_millis(3)),
                seed,
            );
            sim.add_node(
                Box::new(Burst {
                    count: 10,
                    bytes: 10,
                }),
                Region::Paris,
            );
            sim.add_node(
                Box::new(Recorder {
                    received: Vec::new(),
                }),
                Region::Sydney,
            );
            sim.run(SimTime::from_secs(1));
            recorder_received(&sim)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn timers_fire_after_busy_offset() {
        struct TimerNode {
            fired_at: Option<SimTime>,
        }
        impl Node<Msg> for TimerNode {
            fn on_start(&mut self, env: &mut dyn Env<Msg>) {
                env.busy(SimTime::from_millis(10));
                env.set_timer(SimTime::from_millis(5), 42);
            }
            fn on_message(&mut self, _e: &mut dyn Env<Msg>, _f: NodeId, _m: Msg) {}
            fn on_timer(&mut self, env: &mut dyn Env<Msg>, tag: u64) {
                assert_eq!(tag, 42);
                self.fired_at = Some(env.now());
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::ZERO), 1);
        sim.add_node(Box::new(TimerNode { fired_at: None }), Region::Paris);
        sim.run(SimTime::from_secs(1));
        let node = sim.node(0).as_any().downcast_ref::<TimerNode>().unwrap();
        assert_eq!(node.fired_at, Some(SimTime::from_millis(15)));
    }

    #[test]
    fn run_stops_at_max_time() {
        let mut sim = two_node_sim(Box::new(Burst { count: 1, bytes: 0 }));
        let report = sim.run(SimTime::from_millis(2));
        assert_eq!(report.end_time, SimTime::from_millis(2));
        // Delivery at 10 ms never happened.
        assert!(recorder_received(&sim).is_empty());
    }

    #[test]
    fn scripted_nth_drop_removes_exactly_one_message() {
        let mut sim = two_node_sim(Box::new(Burst { count: 5, bytes: 0 }))
            .with_faults(FaultPlan::none().drop_nth(0, 1, 2));
        sim.run(SimTime::from_secs(1));
        let payloads: Vec<u32> = recorder_received(&sim).iter().map(|r| r.2).collect();
        assert_eq!(payloads, vec![0, 1, 3, 4]);
        assert_eq!(sim.metrics().counter("fault.dropped"), 1);
        assert_eq!(sim.metrics().counter("fault.dropped.scripted"), 1);
    }

    #[test]
    fn link_window_drops_only_inside_the_window() {
        // Sender fires one message per 10 ms via timers.
        struct Periodic {
            left: u32,
        }
        impl Node<Msg> for Periodic {
            fn on_start(&mut self, env: &mut dyn Env<Msg>) {
                env.set_timer(SimTime::from_millis(10), 0);
            }
            fn on_message(&mut self, _e: &mut dyn Env<Msg>, _f: NodeId, _m: Msg) {}
            fn on_timer(&mut self, env: &mut dyn Env<Msg>, _tag: u64) {
                env.send(
                    1,
                    Msg {
                        payload: self.left,
                        bytes: 0,
                    },
                );
                self.left -= 1;
                if self.left > 0 {
                    env.set_timer(SimTime::from_millis(10), 0);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        // Sends at 10..=60 ms; window [25 ms, 45 ms) kills 30 and 40 ms.
        let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(1)), 1)
            .with_faults(FaultPlan::none().drop_link_window(
                0,
                1,
                SimTime::from_millis(25),
                SimTime::from_millis(45),
            ));
        sim.add_node(Box::new(Periodic { left: 6 }), Region::Paris);
        sim.add_node(
            Box::new(Recorder {
                received: Vec::new(),
            }),
            Region::Paris,
        );
        sim.run(SimTime::from_secs(1));
        assert_eq!(recorder_received(&sim).len(), 4);
        assert_eq!(sim.metrics().counter("fault.dropped"), 2);
    }

    #[test]
    fn probabilistic_loss_is_seeded_and_reproducible() {
        let run = |seed| {
            let mut sim =
                Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(1)), seed)
                    .with_faults(FaultPlan::none().with_loss(0.5));
            sim.add_node(
                Box::new(Burst {
                    count: 100,
                    bytes: 0,
                }),
                Region::Paris,
            );
            sim.add_node(
                Box::new(Recorder {
                    received: Vec::new(),
                }),
                Region::Paris,
            );
            sim.run(SimTime::from_secs(1));
            (
                recorder_received(&sim),
                sim.metrics().counter("fault.dropped"),
            )
        };
        let (recv_a, dropped_a) = run(11);
        let (recv_b, dropped_b) = run(11);
        assert_eq!(recv_a, recv_b, "same seed must drop the same messages");
        assert_eq!(dropped_a, dropped_b);
        assert!(
            dropped_a > 20 && dropped_a < 80,
            "p=0.5 of 100: {dropped_a}"
        );
        let (recv_c, _) = run(12);
        assert_ne!(recv_a, recv_c, "different seed, different drops");
    }

    #[test]
    fn partition_cuts_both_directions_and_heals() {
        // Two nodes in different regions ping-pong; a partition window
        // swallows the ball, after healing nothing moves (the protocol has
        // no retry), so delivered count freezes at the pre-partition value.
        struct PingPong;
        impl Node<Msg> for PingPong {
            fn on_start(&mut self, env: &mut dyn Env<Msg>) {
                if env.me() == 0 {
                    env.send(
                        1,
                        Msg {
                            payload: 0,
                            bytes: 0,
                        },
                    );
                }
            }
            fn on_message(&mut self, env: &mut dyn Env<Msg>, from: NodeId, msg: Msg) {
                env.send(
                    from,
                    Msg {
                        payload: msg.payload + 1,
                        bytes: 0,
                    },
                );
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let run = |plan: FaultPlan| {
            let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(10)), 1)
                .with_faults(plan);
            sim.add_node(Box::new(PingPong), Region::Paris);
            sim.add_node(Box::new(PingPong), Region::Sydney);
            sim.run(SimTime::from_secs(1));
            (
                sim.metrics().counter("net.messages"),
                sim.metrics().counter("fault.dropped.partition"),
            )
        };
        let (free_msgs, _) = run(FaultPlan::none());
        let (cut_msgs, cut_drops) = run(FaultPlan::none().partition(
            Region::Paris,
            Region::Sydney,
            SimTime::from_millis(100),
            SimTime::from_millis(200),
        ));
        assert_eq!(cut_drops, 1, "exactly the in-window send is dropped");
        assert!(cut_msgs < free_msgs, "partition must stop the ping-pong");
    }

    #[test]
    fn crashed_node_discards_inbox_and_restart_hook_runs() {
        struct Reviver {
            restarts: u32,
        }
        impl Node<Msg> for Reviver {
            fn on_start(&mut self, _env: &mut dyn Env<Msg>) {}
            fn on_message(&mut self, _e: &mut dyn Env<Msg>, _f: NodeId, _m: Msg) {}
            fn on_restart(&mut self, env: &mut dyn Env<Msg>) {
                self.restarts += 1;
                env.send(
                    0,
                    Msg {
                        payload: 99,
                        bytes: 0,
                    },
                );
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        // Node 0 sends to node 1 at t=0 (delivered ~10 ms, while node 1 is
        // down) — discarded. Node 1 restarts at 50 ms and pings back.
        let mut sim =
            Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(10)), 1).with_faults(
                FaultPlan::none().crash(1, SimTime::from_millis(1), Some(SimTime::from_millis(50))),
            );
        sim.add_node(Box::new(Burst { count: 1, bytes: 0 }), Region::Paris);
        sim.add_node(Box::new(Reviver { restarts: 0 }), Region::Paris);
        sim.run(SimTime::from_secs(1));
        assert_eq!(sim.metrics().counter("fault.crashes"), 1);
        assert_eq!(sim.metrics().counter("fault.restarts"), 1);
        assert_eq!(sim.metrics().counter("fault.discarded"), 1);
        let reviver = sim.node(1).as_any().downcast_ref::<Reviver>().unwrap();
        assert_eq!(reviver.restarts, 1);
        // The revival ping was sent after restart and delivered normally.
        assert_eq!(sim.metrics().counter("net.messages"), 2);
    }

    #[test]
    fn crash_without_restart_silences_a_node_forever() {
        let mut sim = two_node_sim(Box::new(Burst { count: 3, bytes: 0 }))
            .with_faults(FaultPlan::none().crash(1, SimTime::from_millis(5), None));
        sim.run(SimTime::from_secs(1));
        assert!(recorder_received(&sim).is_empty());
        assert_eq!(sim.metrics().counter("fault.discarded"), 3);
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_no_plan() {
        let run = |with_plan: bool| {
            let mut sim = Simulation::new(
                NetworkConfig::uniform_all(SimTime::from_millis(5))
                    .with_jitter(SimTime::from_millis(3)),
                7,
            );
            if with_plan {
                sim = sim.with_faults(FaultPlan::none());
            }
            sim.add_node(
                Box::new(Burst {
                    count: 10,
                    bytes: 10,
                }),
                Region::Paris,
            );
            sim.add_node(
                Box::new(Recorder {
                    received: Vec::new(),
                }),
                Region::Sydney,
            );
            let report = sim.run(SimTime::from_secs(1));
            (recorder_received(&sim), report.events_processed)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn offline_window_discards_inbox_and_online_hook_runs() {
        struct Reviver {
            restarts: u32,
        }
        impl Node<Msg> for Reviver {
            fn on_start(&mut self, _env: &mut dyn Env<Msg>) {}
            fn on_message(&mut self, _e: &mut dyn Env<Msg>, _f: NodeId, _m: Msg) {}
            fn on_restart(&mut self, env: &mut dyn Env<Msg>) {
                self.restarts += 1;
                env.send(
                    0,
                    Msg {
                        payload: 99,
                        bytes: 0,
                    },
                );
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        // Node 0 sends to node 1 at t=0 (delivered ~10 ms, inside node 1's
        // offline window) — discarded under the availability namespace, not
        // the fault one. At 50 ms the window closes and node 1 pings back.
        let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(10)), 1)
            .with_availability(AvailabilityPlan::none().offline_window(
                1,
                SimTime::from_millis(1),
                SimTime::from_millis(50),
            ));
        sim.add_node(Box::new(Burst { count: 1, bytes: 0 }), Region::Paris);
        sim.add_node(Box::new(Reviver { restarts: 0 }), Region::Paris);
        sim.run(SimTime::from_secs(1));
        assert_eq!(sim.metrics().counter("sim.availability.offline"), 1);
        assert_eq!(sim.metrics().counter("sim.availability.online"), 1);
        assert_eq!(sim.metrics().counter("sim.availability.discarded"), 1);
        assert_eq!(sim.metrics().counter("fault.discarded"), 0);
        assert_eq!(sim.metrics().counter("fault.crashes"), 0);
        let reviver = sim.node(1).as_any().downcast_ref::<Reviver>().unwrap();
        assert_eq!(reviver.restarts, 1);
        assert_eq!(sim.metrics().counter("net.messages"), 2);
    }

    #[test]
    fn empty_availability_plan_is_byte_identical_to_no_plan() {
        let run = |with_plan: bool| {
            let mut sim = Simulation::new(
                NetworkConfig::uniform_all(SimTime::from_millis(5))
                    .with_jitter(SimTime::from_millis(3)),
                7,
            );
            if with_plan {
                sim = sim.with_availability(AvailabilityPlan::none());
            }
            sim.add_node(
                Box::new(Burst {
                    count: 10,
                    bytes: 10,
                }),
                Region::Paris,
            );
            sim.add_node(
                Box::new(Recorder {
                    received: Vec::new(),
                }),
                Region::Sydney,
            );
            let report = sim.run(SimTime::from_secs(1));
            (recorder_received(&sim), report.events_processed)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn compute_multiplier_scales_busy_time() {
        struct Slow {
            processed_at: Vec<SimTime>,
        }
        impl Node<Msg> for Slow {
            fn on_start(&mut self, _env: &mut dyn Env<Msg>) {}
            fn on_message(&mut self, env: &mut dyn Env<Msg>, _f: NodeId, _m: Msg) {
                self.processed_at.push(env.now());
                env.busy(SimTime::from_millis(50));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let run = |mul: Option<u64>| {
            let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(1)), 1);
            if let Some(mul) = mul {
                sim = sim.with_availability(AvailabilityPlan::none().compute_speed(1, mul));
            }
            sim.add_node(Box::new(Burst { count: 3, bytes: 0 }), Region::Paris);
            sim.add_node(
                Box::new(Slow {
                    processed_at: Vec::new(),
                }),
                Region::Paris,
            );
            sim.run(SimTime::from_secs(10));
            sim.node(1)
                .as_any()
                .downcast_ref::<Slow>()
                .unwrap()
                .processed_at
                .clone()
        };
        // Half-speed tier: 50 ms of work costs 100 ms of virtual time.
        let slow = run(Some(2000));
        assert_eq!(slow[1], SimTime::from_millis(101));
        assert_eq!(slow[2], SimTime::from_millis(201));
        // Double-speed tier: 50 ms of work costs 25 ms.
        let fast = run(Some(500));
        assert_eq!(fast[1], SimTime::from_millis(26));
        // The neutral tier is bit-identical to no plan at all.
        assert_eq!(run(Some(1000)), run(None));
    }

    #[test]
    fn restart_inside_an_offline_window_defers_the_hook_to_online() {
        struct Reviver {
            restarts: Vec<SimTime>,
        }
        impl Node<Msg> for Reviver {
            fn on_start(&mut self, _env: &mut dyn Env<Msg>) {}
            fn on_message(&mut self, _e: &mut dyn Env<Msg>, _f: NodeId, _m: Msg) {}
            fn on_restart(&mut self, env: &mut dyn Env<Msg>) {
                self.restarts.push(env.now());
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        // Crash at 10 ms, restart at 20 ms — but the node is offline from
        // 5 ms to 40 ms, so the single on_restart fires at the Online
        // transition (40 ms), not at the Restart (20 ms).
        let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(1)), 1)
            .with_faults(FaultPlan::none().crash(
                0,
                SimTime::from_millis(10),
                Some(SimTime::from_millis(20)),
            ))
            .with_availability(AvailabilityPlan::none().offline_window(
                0,
                SimTime::from_millis(5),
                SimTime::from_millis(40),
            ));
        sim.add_node(
            Box::new(Reviver {
                restarts: Vec::new(),
            }),
            Region::Paris,
        );
        sim.run(SimTime::from_secs(1));
        let reviver = sim.node(0).as_any().downcast_ref::<Reviver>().unwrap();
        assert_eq!(reviver.restarts, vec![SimTime::from_millis(40)]);
    }

    #[test]
    #[should_panic(expected = "overlapping offline windows")]
    fn overlapping_windows_for_one_node_are_rejected() {
        let _ = Simulation::<Msg>::new(NetworkConfig::uniform_all(SimTime::from_millis(1)), 1)
            .with_availability(
                AvailabilityPlan::none()
                    .offline_window(0, SimTime::ZERO, SimTime::from_secs(2))
                    .offline_window(0, SimTime::from_secs(1), SimTime::from_secs(3)),
            );
    }

    /// A message carrying a model payload that opts into Byzantine
    /// corruption the same way `FlMsg::ClientUpdate` does.
    #[derive(Debug, Clone)]
    struct PoisonMsg {
        vals: Vec<f32>,
    }

    impl WireSize for PoisonMsg {
        fn wire_size(&self) -> usize {
            self.vals.len() * 4
        }
        fn corrupt(
            &mut self,
            attack: &crate::fault::ByzantineAttack,
            draw: &mut dyn FnMut() -> f64,
        ) -> bool {
            use crate::fault::ByzantineAttack as A;
            match attack {
                A::SignFlip => self.vals.iter_mut().for_each(|v| *v = -*v),
                A::Scale { factor } => self.vals.iter_mut().for_each(|v| *v *= factor),
                A::GaussianNoise { sigma } => self
                    .vals
                    .iter_mut()
                    .for_each(|v| *v += sigma * (draw() - 0.5) as f32),
                A::NanInject { prob } => {
                    let mut hit = false;
                    for v in &mut self.vals {
                        if draw() < *prob {
                            *v = f32::NAN;
                            hit = true;
                        }
                    }
                    return hit;
                }
            }
            true
        }
    }

    struct PoisonRecorder {
        received: Vec<Vec<f32>>,
    }

    impl Node<PoisonMsg> for PoisonRecorder {
        fn on_start(&mut self, _env: &mut dyn Env<PoisonMsg>) {}
        fn on_message(&mut self, _env: &mut dyn Env<PoisonMsg>, _from: NodeId, msg: PoisonMsg) {
            self.received.push(msg.vals);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    struct PoisonSender;

    impl Node<PoisonMsg> for PoisonSender {
        fn on_start(&mut self, env: &mut dyn Env<PoisonMsg>) {
            env.send(
                1,
                PoisonMsg {
                    vals: vec![1.0, -2.0, 3.0],
                },
            );
        }
        fn on_message(&mut self, _e: &mut dyn Env<PoisonMsg>, _f: NodeId, _m: PoisonMsg) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn poison_sim(plan: FaultPlan) -> Simulation<PoisonMsg> {
        let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(10)), 1)
            .with_faults(plan);
        sim.add_node(Box::new(PoisonSender), Region::Paris);
        sim.add_node(
            Box::new(PoisonRecorder {
                received: Vec::new(),
            }),
            Region::Sydney,
        );
        sim
    }

    fn poison_received(sim: &Simulation<PoisonMsg>) -> Vec<Vec<f32>> {
        sim.node(1)
            .as_any()
            .downcast_ref::<PoisonRecorder>()
            .unwrap()
            .received
            .clone()
    }

    #[test]
    fn byzantine_sender_corrupts_payload_and_is_counted() {
        use crate::fault::ByzantineAttack;
        let mut sim = poison_sim(FaultPlan::none().byzantine(0, ByzantineAttack::SignFlip));
        sim.run(SimTime::from_secs(1));
        assert_eq!(poison_received(&sim), vec![vec![-1.0, 2.0, -3.0]]);
        assert_eq!(sim.metrics().counter("fault.byzantine"), 1);
        assert_eq!(sim.metrics().counter("fault.byzantine.signflip"), 1);
    }

    #[test]
    fn honest_sender_with_byzantine_peer_in_plan_is_untouched() {
        use crate::fault::ByzantineAttack;
        // Node 1 (the recorder) is Byzantine, node 0 (the sender) is not:
        // the payload must arrive unmodified and no counter must move.
        let mut sim = poison_sim(FaultPlan::none().byzantine(1, ByzantineAttack::SignFlip));
        sim.run(SimTime::from_secs(1));
        assert_eq!(poison_received(&sim), vec![vec![1.0, -2.0, 3.0]]);
        assert_eq!(sim.metrics().counter("fault.byzantine"), 0);
    }

    #[test]
    fn messages_without_model_payload_resist_corruption() {
        use crate::fault::ByzantineAttack;
        // `Msg` keeps the default no-op `corrupt`, so marking its sender
        // Byzantine must neither alter delivery nor count an injection.
        let mut sim = two_node_sim(Box::new(Burst { count: 3, bytes: 8 }));
        sim = sim.with_faults(FaultPlan::none().byzantine(0, ByzantineAttack::SignFlip));
        sim.run(SimTime::from_secs(1));
        assert_eq!(recorder_received(&sim).len(), 3);
        assert_eq!(sim.metrics().counter("fault.byzantine"), 0);
    }

    #[test]
    fn randomized_byzantine_attacks_are_bit_reproducible() {
        use crate::fault::ByzantineAttack;
        let run = || {
            let mut sim = poison_sim(
                FaultPlan::none().byzantine(0, ByzantineAttack::GaussianNoise { sigma: 0.25 }),
            );
            sim.run(SimTime::from_secs(1));
            poison_received(&sim)
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a[0].iter().zip([1.0, -2.0, 3.0]).any(|(v, o)| *v != o));
    }

    #[test]
    fn heap_and_wheel_schedulers_run_byte_identically() {
        let run = |kind: SchedulerKind| {
            let net = NetworkConfig::uniform_all(SimTime::from_millis(1))
                .with_jitter(SimTime::from_micros(500));
            let mut sim = Simulation::new(net, 7).with_scheduler(kind);
            sim.add_node(
                Box::new(Burst {
                    count: 20,
                    bytes: 10_000,
                }),
                Region::Paris,
            );
            sim.add_node(
                Box::new(Recorder {
                    received: Vec::new(),
                }),
                Region::Sydney,
            );
            let report = sim.run(SimTime::from_secs(5));
            (report, recorder_received(&sim))
        };
        assert_eq!(run(SchedulerKind::Heap), run(SchedulerKind::Wheel));
    }

    #[test]
    fn flow_shared_links_split_trunk_bandwidth() {
        // 8 Mbps trunk, two concurrent 1 MB flows on the same region pair:
        // processor sharing finishes both at 2 s (per-message would say
        // 1 s each).
        let net = NetworkConfig::uniform_all(SimTime::ZERO)
            .with_bandwidth_bps(8_000_000)
            .with_flow_shared_links();
        let mut sim = Simulation::new(net, 1);
        sim.add_node(
            Box::new(Burst {
                count: 1,
                bytes: 1_000_000,
            }),
            Region::Paris,
        );
        sim.add_node(
            Box::new(Recorder {
                received: Vec::new(),
            }),
            Region::Paris,
        );
        sim.add_node(
            Box::new(BurstTo {
                to: 1,
                count: 1,
                bytes: 1_000_000,
            }),
            Region::Paris,
        );
        sim.run(SimTime::from_secs(10));
        let recv = recorder_received(&sim);
        assert_eq!(recv.len(), 2);
        assert_eq!(recv[0].0, SimTime::from_secs(2));
        assert_eq!(recv[1].0, SimTime::from_secs(2));
    }

    #[test]
    fn flow_shared_links_keep_per_pair_fifo() {
        // Two back-to-back 1 MB messages on one pair: the second queues
        // behind the first (one active flow per pair), so they arrive in
        // order at 1 s and 2 s.
        let net = NetworkConfig::uniform_all(SimTime::ZERO)
            .with_bandwidth_bps(8_000_000)
            .with_flow_shared_links();
        let mut sim = Simulation::new(net, 1);
        sim.add_node(
            Box::new(Burst {
                count: 2,
                bytes: 1_000_000,
            }),
            Region::Paris,
        );
        sim.add_node(
            Box::new(Recorder {
                received: Vec::new(),
            }),
            Region::Paris,
        );
        sim.run(SimTime::from_secs(10));
        let recv = recorder_received(&sim);
        assert_eq!(recv.len(), 2);
        assert_eq!(recv[0].2, 0);
        assert_eq!(recv[0].0, SimTime::from_secs(1));
        assert_eq!(recv[1].2, 1);
        assert_eq!(recv[1].0, SimTime::from_secs(2));
    }

    #[test]
    fn flow_shared_runs_are_deterministic_and_count_flows() {
        let run = || {
            let net = NetworkConfig::aws().with_flow_shared_links();
            let mut sim = Simulation::new(net, 9);
            sim.add_node(
                Box::new(Burst {
                    count: 10,
                    bytes: 250_000,
                }),
                Region::Paris,
            );
            sim.add_node(
                Box::new(Recorder {
                    received: Vec::new(),
                }),
                Region::California,
            );
            sim.add_node(
                Box::new(BurstTo {
                    to: 1,
                    count: 10,
                    bytes: 250_000,
                }),
                Region::Paris,
            );
            let report = sim.run(SimTime::from_secs(60));
            let gauge = sim.metrics().gauge("sim.flows.active");
            (report, recorder_received(&sim), gauge)
        };
        let (report, recv, gauge) = run();
        assert_eq!(recv.len(), 20);
        // All flows drained by the end of the run.
        assert_eq!(gauge, Some(0.0));
        assert_eq!((report, recv, gauge), run());
    }

    /// Like [`Burst`] but with an explicit destination.
    struct BurstTo {
        to: NodeId,
        count: u32,
        bytes: usize,
    }

    impl Node<Msg> for BurstTo {
        fn on_start(&mut self, env: &mut dyn Env<Msg>) {
            for i in 0..self.count {
                env.send(
                    self.to,
                    Msg {
                        payload: i,
                        bytes: self.bytes,
                    },
                );
            }
        }
        fn on_message(&mut self, _env: &mut dyn Env<Msg>, _from: NodeId, _msg: Msg) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
}
