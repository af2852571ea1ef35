//! Spans recorded from the benchmark's own files.
//!
//! The traced run wraps the trait objects the program already accepts from
//! callers — [`LocalTrainer`], [`Evaluator`], [`Node`] (behind a forwarding
//! [`Env`]) and [`Oracle`] — and times every call into them. Spans are
//! aggregated in place per name (calls, total time, self time) rather than
//! logged one by one: a scale run makes ~15 million oracle calls, and the
//! per-layer numbers only need the aggregates.
//!
//! Self time is a span's duration minus the part its child spans cover.
//! Nesting is tracked per thread, so the live TCP workload (one thread per
//! node) attributes each handler's children correctly.

use std::any::Any;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_core::training::{EvalReport, Evaluator, LocalTrainer};
use spyker_simnet::{Env, Node, NodeId, SimTime};
use spyker_simtest::{Oracle, OracleCtx};

/// Aggregated statistics of one span name.
#[derive(Default)]
struct Slot {
    calls: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
    /// `Env` effect calls that land in the metrics layer (counters,
    /// series, histograms, gauges, span markers) made inside this span,
    /// counted by the forwarding environment.
    emits: AtomicU64,
}

/// What a finished run reports for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    /// Number of spans recorded.
    pub calls: u64,
    /// Summed duration, children included.
    pub total_s: f64,
    /// Summed duration minus the time covered by child spans.
    pub self_s: f64,
    /// Metric emissions made inside these spans.
    pub emits: u64,
}

impl std::ops::Add for SpanStats {
    type Output = SpanStats;

    fn add(self, o: SpanStats) -> SpanStats {
        SpanStats {
            calls: self.calls + o.calls,
            total_s: self.total_s + o.total_s,
            self_s: self.self_s + o.self_s,
            emits: self.emits + o.emits,
        }
    }
}

thread_local! {
    /// Child time accumulated by each open span on this thread (innermost
    /// last).
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Shared span store. Slots are created on first use and never removed.
/// Counters are statistics only: `Relaxed` atomics publish no other data.
#[derive(Default)]
pub struct Recorder {
    names: Mutex<Vec<(String, Arc<Slot>)>>,
}

/// A handle to one named slot, cheap to clone into wrappers.
#[derive(Clone)]
pub struct SpanId(Arc<Slot>);

impl Recorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot named `name`, created on first use.
    pub fn slot(&self, name: &str) -> SpanId {
        let mut names = self.names.lock().expect("span table lock poisoned");
        if let Some((_, slot)) = names.iter().find(|(n, _)| n == name) {
            return SpanId(Arc::clone(slot));
        }
        let slot = Arc::new(Slot::default());
        names.push((name.to_string(), Arc::clone(&slot)));
        SpanId(slot)
    }

    /// Statistics of `name` (zero if it never ran).
    pub fn stats(&self, name: &str) -> SpanStats {
        let names = self.names.lock().expect("span table lock poisoned");
        names
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(SpanStats::default, |(_, s)| SpanStats {
                calls: s.calls.load(Ordering::Relaxed),
                total_s: s.total_ns.load(Ordering::Relaxed) as f64 * 1e-9,
                self_s: s.self_ns.load(Ordering::Relaxed) as f64 * 1e-9,
                emits: s.emits.load(Ordering::Relaxed),
            })
    }
}

/// Runs `f` inside a span on `slot`.
pub fn timed<R>(slot: &SpanId, f: impl FnOnce() -> R) -> R {
    OPEN.with(|open| open.borrow_mut().push(0));
    let start = Instant::now();
    let out = f();
    let dur = start.elapsed().as_nanos() as u64;
    let child = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let child = open.pop().expect("span stack underflow");
        if let Some(parent) = open.last_mut() {
            *parent += dur;
        }
        child
    });
    let s = &slot.0;
    s.calls.fetch_add(1, Ordering::Relaxed);
    s.total_ns.fetch_add(dur, Ordering::Relaxed);
    s.self_ns
        .fetch_add(dur.saturating_sub(child), Ordering::Relaxed);
    out
}

/// A [`LocalTrainer`] that records a `models.train` span per call.
pub struct TracedTrainer {
    inner: Box<dyn LocalTrainer>,
    span: SpanId,
}

impl TracedTrainer {
    pub fn wrap(inner: Box<dyn LocalTrainer>, rec: &Recorder) -> Box<dyn LocalTrainer> {
        Box::new(Self {
            inner,
            span: rec.slot("models.train"),
        })
    }
}

impl LocalTrainer for TracedTrainer {
    fn train(&mut self, params: &mut ParamVec, lr: f32, epochs: usize) {
        let inner = &mut self.inner;
        timed(&self.span, || inner.train(params, lr, epochs));
    }

    fn num_samples(&self) -> usize {
        self.inner.num_samples()
    }
}

/// An [`Evaluator`] that records a `models.eval` span per call.
pub struct TracedEvaluator {
    inner: Box<dyn Evaluator>,
    span: SpanId,
}

impl TracedEvaluator {
    pub fn wrap(inner: Box<dyn Evaluator>, rec: &Recorder) -> Box<dyn Evaluator> {
        Box::new(Self {
            inner,
            span: rec.slot("models.eval"),
        })
    }
}

impl Evaluator for TracedEvaluator {
    fn evaluate(&self, params: &ParamVec) -> EvalReport {
        timed(&self.span, || self.inner.evaluate(params))
    }
}

/// An [`Oracle`] that records one span per check under its own name.
pub struct TracedOracle {
    inner: Box<dyn Oracle>,
    span: SpanId,
}

impl TracedOracle {
    pub fn wrap_suite(suite: Vec<Box<dyn Oracle>>, rec: &Recorder) -> Vec<Box<dyn Oracle>> {
        suite
            .into_iter()
            .map(|inner| {
                let span = rec.slot(&format!("simtest.oracle.{}", inner.name()));
                Box::new(Self { inner, span }) as Box<dyn Oracle>
            })
            .collect()
    }
}

impl Oracle for TracedOracle {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        let inner = &mut self.inner;
        timed(&self.span, || inner.check(ctx))
    }

    fn at_end(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        let inner = &mut self.inner;
        timed(&self.span, || inner.at_end(ctx))
    }
}

/// Per-client round-trip clock of the live workload: the instant the
/// client handed its last update to the transport, and the samples taken
/// when the next model arrived. Shared with the harness after the run.
#[derive(Default)]
pub struct RoundTrips {
    /// Transport time and instant of the unanswered update, if any.
    pub pending: Option<(SimTime, Instant)>,
    /// Completed round trips: the instant each completed and its length
    /// in nanoseconds.
    pub samples: Vec<(Instant, u64)>,
    /// Updates this client handed to the transport.
    pub sent: u64,
    /// Time between the end of a handler and the next model's arrival.
    pub idle_ns: u64,
    last_exit: Option<Instant>,
}

/// A [`Node`] wrapper: forwards every call to the wrapped actor through a
/// forwarding [`Env`], inside a handler span when traced, optionally
/// counting handler invocations and (for live clients) stamping update
/// round trips.
pub struct TracedNode {
    inner: Box<dyn Node<FlMsg>>,
    span: Option<SpanId>,
    /// Servers time the handling of client updates under its own span,
    /// the part of a round trip the server covers.
    update_span: Option<SpanId>,
    handled: Option<Arc<AtomicU64>>,
    rtt: Option<Arc<Mutex<RoundTrips>>>,
}

impl TracedNode {
    /// A server: handler spans `core.server` and, for client updates,
    /// `core.server.update` (none when `rec` is `None`).
    pub fn server(inner: Box<dyn Node<FlMsg>>, rec: Option<&Recorder>) -> Self {
        Self {
            inner,
            span: rec.map(|r| r.slot("core.server")),
            update_span: rec.map(|r| r.slot("core.server.update")),
            handled: None,
            rtt: None,
        }
    }

    /// A client: handler span `core.client` (none when `rec` is `None`).
    pub fn client(inner: Box<dyn Node<FlMsg>>, rec: Option<&Recorder>) -> Self {
        Self {
            inner,
            span: rec.map(|r| r.slot("core.client")),
            update_span: None,
            handled: None,
            rtt: None,
        }
    }

    /// Counts every handler invocation into `handled`.
    pub fn counting(mut self, handled: &Arc<AtomicU64>) -> Self {
        self.handled = Some(Arc::clone(handled));
        self
    }

    /// Stamps update round trips into `rtt` (client nodes).
    pub fn with_round_trips(mut self, rtt: &Arc<Mutex<RoundTrips>>) -> Self {
        self.rtt = Some(Arc::clone(rtt));
        self
    }

    fn handle(
        &mut self,
        env: &mut dyn Env<FlMsg>,
        update: bool,
        f: impl FnOnce(&mut dyn Node<FlMsg>, &mut dyn Env<FlMsg>),
    ) {
        if let Some(handled) = &self.handled {
            handled.fetch_add(1, Ordering::Relaxed);
        }
        let mut fwd = ForwardEnv {
            inner: env,
            emits: 0,
            rtt: self.rtt.as_deref(),
        };
        let inner = self.inner.as_mut();
        let span = if update {
            self.update_span.as_ref().or(self.span.as_ref())
        } else {
            self.span.as_ref()
        };
        match span {
            Some(span) => {
                timed(span, || f(inner, &mut fwd));
                span.0.emits.fetch_add(fwd.emits, Ordering::Relaxed);
            }
            None => f(inner, &mut fwd),
        }
        if let Some(rtt) = &self.rtt {
            rtt.lock().expect("round-trip lock poisoned").last_exit = Some(Instant::now());
        }
    }
}

impl Node<FlMsg> for TracedNode {
    fn on_start(&mut self, env: &mut dyn Env<FlMsg>) {
        self.handle(env, false, |n, e| n.on_start(e));
    }

    fn on_message(&mut self, env: &mut dyn Env<FlMsg>, from: NodeId, msg: FlMsg) {
        if let (Some(rtt), FlMsg::ModelToClient { .. }) = (&self.rtt, &msg) {
            let now = Instant::now();
            let mut rtt = rtt.lock().expect("round-trip lock poisoned");
            if let Some((_, sent)) = rtt.pending.take() {
                rtt.samples.push((now, (now - sent).as_nanos() as u64));
            }
            if let Some(exit) = rtt.last_exit {
                rtt.idle_ns += (now - exit).as_nanos() as u64;
            }
        }
        let update = is_update(&msg);
        self.handle(env, update, |n, e| n.on_message(e, from, msg));
    }

    fn on_timer(&mut self, env: &mut dyn Env<FlMsg>, tag: u64) {
        self.handle(env, false, |n, e| n.on_timer(e, tag));
    }

    fn on_restart(&mut self, env: &mut dyn Env<FlMsg>) {
        self.handle(env, false, |n, e| n.on_restart(e));
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

fn is_update(msg: &FlMsg) -> bool {
    matches!(
        msg,
        FlMsg::EncodedUpdate { .. } | FlMsg::ClientUpdate { .. }
    )
}

/// Forwards every [`Env`] call to the real environment, counting the
/// calls that land in the metrics layer and stamping update sends.
struct ForwardEnv<'a> {
    inner: &'a mut dyn Env<FlMsg>,
    emits: u64,
    rtt: Option<&'a Mutex<RoundTrips>>,
}

impl Env<FlMsg> for ForwardEnv<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn me(&self) -> NodeId {
        self.inner.me()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn send(&mut self, to: NodeId, msg: FlMsg) {
        if let (Some(rtt), true) = (self.rtt, is_update(&msg)) {
            let mut rtt = rtt.lock().expect("round-trip lock poisoned");
            rtt.sent += 1;
            rtt.pending = Some((self.inner.now(), Instant::now()));
        }
        self.inner.send(to, msg);
    }

    fn set_timer(&mut self, delay: SimTime, tag: u64) {
        self.inner.set_timer(delay, tag);
    }

    fn busy(&mut self, duration: SimTime) {
        self.inner.busy(duration);
    }

    fn record(&mut self, series: &str, value: f64) {
        self.emits += 1;
        self.inner.record(series, value);
    }

    fn add_counter(&mut self, name: &str, delta: u64) {
        self.emits += 1;
        self.inner.add_counter(name, delta);
    }

    fn add_counter_suffixed(&mut self, prefix: &str, suffix: &str, delta: u64) {
        self.emits += 1;
        self.inner.add_counter_suffixed(prefix, suffix, delta);
    }

    fn observe(&mut self, name: &str, value: f64) {
        self.emits += 1;
        self.inner.observe(name, value);
    }

    fn gauge_set(&mut self, name: &str, value: f64) {
        self.emits += 1;
        self.inner.gauge_set(name, value);
    }

    fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.gauge(name)
    }

    fn span_enter(&mut self, name: &'static str) {
        self.emits += 1;
        self.inner.span_enter(name);
    }

    fn span_exit(&mut self, name: &'static str) {
        self.emits += 1;
        self.inner.span_exit(name);
    }
}
