//! Event taps for the simulated workloads: the virtual update round-trip
//! clock, and the per-event oracle tap of the scale run.

use std::ops::ControlFlow;

use spyker_core::client::FlClient;
use spyker_core::cohort::CohortClient;
use spyker_core::msg::FlMsg;
use spyker_core::update_codec::CodecConfig;
use spyker_simnet::{EventTap, Node, NodeId, SimTime, TapCtx, TapKind};
use spyker_simtest::oracle::EventInfo;
use spyker_simtest::{Oracle, OracleCtx, Violation};

use crate::trace::{timed, SpanId};

/// Client-observed update round trips in virtual time: from the instant
/// a client hands its update to the network (model delivery plus its
/// training delay, which `FlClient` charges before sending) to the
/// delivery of its next model.
pub struct RttClock {
    first_client: NodeId,
    delays: Vec<SimTime>,
    sent: Vec<Option<SimTime>>,
    /// Completed round trips, in microseconds.
    pub samples: Vec<u64>,
}

impl RttClock {
    /// Reads each client's training delay from the built nodes (plain
    /// [`FlClient`]s or [`CohortClient`]s from `first_client` on).
    pub fn new(nodes: &[Box<dyn Node<FlMsg>>], first_client: NodeId) -> Self {
        let delays: Vec<SimTime> = nodes[first_client..]
            .iter()
            .map(|n| {
                let any = n.as_any();
                any.downcast_ref::<FlClient>()
                    .or_else(|| any.downcast_ref::<CohortClient>().map(CohortClient::inner))
                    .map_or(SimTime::ZERO, FlClient::train_delay)
            })
            .collect();
        Self {
            first_client,
            sent: vec![None; delays.len()],
            delays,
            samples: Vec::new(),
        }
    }

    fn on_deliver(&mut self, to: NodeId, msg: &FlMsg, now: SimTime) {
        if !matches!(msg, FlMsg::ModelToClient { .. }) || to < self.first_client {
            return;
        }
        let c = to - self.first_client;
        if let Some(sent) = self.sent[c] {
            if now >= sent {
                self.samples.push((now - sent).as_micros());
            }
        }
        self.sent[c] = Some(now + self.delays[c]);
    }
}

impl EventTap<FlMsg> for RttClock {
    fn on_deliver(
        &mut self,
        _from: NodeId,
        to: NodeId,
        msg: &FlMsg,
        ctx: &TapCtx<'_, FlMsg>,
    ) -> ControlFlow<()> {
        RttClock::on_deliver(self, to, msg, ctx.time());
        ControlFlow::Continue(())
    }
}

/// The scale run's per-event oracle tap: the same checks, in the same
/// order, with the same context as `spyker_simtest::run_scale`, plus the
/// round-trip clock. `span` (traced runs) times the oracle work of every
/// event and the end-of-run pass.
pub struct ScaleTap<'a> {
    pub oracles: Vec<Box<dyn Oracle>>,
    pub events: u64,
    budget: u64,
    pub budget_exhausted: bool,
    pub violation: Option<Violation>,
    pub server_ids: Vec<NodeId>,
    pub n_clients: usize,
    pub targets: &'a [f32],
    pub codec: Option<CodecConfig>,
    pub rtt: RttClock,
    pub span: Option<SpanId>,
    pending_token_to: Option<NodeId>,
}

impl<'a> ScaleTap<'a> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        oracles: Vec<Box<dyn Oracle>>,
        budget: u64,
        server_ids: Vec<NodeId>,
        n_clients: usize,
        targets: &'a [f32],
        codec: Option<CodecConfig>,
        rtt: RttClock,
        span: Option<SpanId>,
    ) -> Self {
        Self {
            oracles,
            events: 0,
            budget,
            budget_exhausted: false,
            violation: None,
            server_ids,
            n_clients,
            targets,
            codec,
            rtt,
            span,
            pending_token_to: None,
        }
    }

    fn after_event_untimed(
        &mut self,
        node: NodeId,
        kind: TapKind,
        ctx: &TapCtx<'_, FlMsg>,
    ) -> ControlFlow<()> {
        self.events += 1;
        let token_delivered =
            kind == TapKind::Deliver && self.pending_token_to.take() == Some(node);
        let octx = OracleCtx {
            time: ctx.time(),
            nodes: ctx.nodes(),
            server_nodes: &self.server_ids,
            metrics: ctx.metrics(),
            n_clients: self.n_clients,
            event: Some(EventInfo {
                node,
                kind,
                token_delivered,
            }),
            clean: true,
            byzantine_free: true,
            targets: self.targets,
            budget_exhausted: false,
            codec: self.codec,
        };
        self.violation = check_all(&mut self.oracles, &octx, self.events, false);
        if self.violation.is_some() {
            return ControlFlow::Break(());
        }
        if self.events >= self.budget {
            self.budget_exhausted = true;
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    }

    /// The end-of-run pass (liveness, finiteness), skipped after a
    /// violation.
    pub fn finish(
        &mut self,
        time: SimTime,
        nodes: &[Box<dyn Node<FlMsg>>],
        metrics: &spyker_simnet::Metrics,
    ) {
        if self.violation.is_some() {
            return;
        }
        let octx = OracleCtx {
            time,
            nodes,
            server_nodes: &self.server_ids,
            metrics,
            n_clients: self.n_clients,
            event: None,
            clean: true,
            byzantine_free: true,
            targets: self.targets,
            budget_exhausted: self.budget_exhausted,
            codec: self.codec,
        };
        let oracles = &mut self.oracles;
        let events = self.events;
        self.violation = match &self.span {
            Some(span) => timed(span, || check_all(oracles, &octx, events, true)),
            None => check_all(oracles, &octx, events, true),
        };
    }
}

/// Runs every oracle on one snapshot; the first failure becomes the
/// violation.
fn check_all(
    oracles: &mut [Box<dyn Oracle>],
    octx: &OracleCtx<'_>,
    events: u64,
    at_end: bool,
) -> Option<Violation> {
    for oracle in oracles {
        let verdict = if at_end {
            oracle.at_end(octx)
        } else {
            oracle.check(octx)
        };
        if let Err(message) = verdict {
            return Some(Violation {
                oracle: oracle.name(),
                message,
                time: octx.time,
                events,
            });
        }
    }
    None
}

impl EventTap<FlMsg> for ScaleTap<'_> {
    fn on_deliver(
        &mut self,
        _from: NodeId,
        to: NodeId,
        msg: &FlMsg,
        ctx: &TapCtx<'_, FlMsg>,
    ) -> ControlFlow<()> {
        self.pending_token_to = matches!(msg, FlMsg::TokenPass(_)).then_some(to);
        self.rtt.on_deliver(to, msg, ctx.time());
        ControlFlow::Continue(())
    }

    fn after_event(
        &mut self,
        node: NodeId,
        kind: TapKind,
        ctx: &TapCtx<'_, FlMsg>,
    ) -> ControlFlow<()> {
        match self.span.take() {
            Some(span) => {
                let flow = timed(&span, || self.after_event_untimed(node, kind, ctx));
                self.span = Some(span);
                flow
            }
            None => self.after_event_untimed(node, kind, ctx),
        }
    }
}
