//! `scale_100k`: the 100k-logical-client smoke with the paper codec —
//! `build_scale(ScaleSpec::ci_smoke()` with `CodecConfig::paper_pipeline())`
//! run under the full `default_suite()` oracle set as `run_scale` runs it
//! (782 cohorts of 128 on 4 servers, timer wheel, flow-shared links).
//!
//! The traced run rebuilds the same deployment from the public
//! constructors, with every node behind a [`TracedNode`], every trainer
//! behind a [`TracedTrainer`] and every oracle behind a [`TracedOracle`];
//! cohort targets, delays and sizes are read back from `build_scale`'s
//! nodes, so both runs draw the same inputs.

use std::time::Instant;

use spyker_core::client::FlClient;
use spyker_core::cohort::CohortClient;
use spyker_core::config::SpykerConfig;
use spyker_core::deploy::{clients_of_servers, even_assignment, server_region};
use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_core::server::SpykerServer;
use spyker_core::training::MeanTargetTrainer;
use spyker_core::update_codec::CodecConfig;
use spyker_simnet::{NetworkConfig, NodeId, SimTime, Simulation};
use spyker_simtest::{build_scale, default_suite, ScaleSpec, Violation};

use crate::derived_seed;
use crate::des::{RttClock, ScaleTap};
use crate::paper::SEGMENT;
use crate::trace::{Recorder, TracedNode, TracedOracle, TracedTrainer};

/// The event budget the CI smoke runs with (`--budget-events 10m`).
pub const BUDGET_EVENTS: u64 = 10_000_000;

/// The workload's spec for `seed`.
pub fn spec(seed: u64) -> ScaleSpec {
    ScaleSpec {
        seed,
        codec: Some(CodecConfig::paper_pipeline()),
        ..ScaleSpec::ci_smoke()
    }
}

/// Specs an untraced run cycles through: the workload seed's and two
/// drawn from it. One deployment's median virtual round trip moves by
/// about ±10% from seed to seed; pooled over three it holds steady.
pub fn specs(seed: u64) -> Vec<ScaleSpec> {
    (0..3).map(|k| spec(derived_seed(seed, k))).collect()
}

/// One scale run's outputs.
pub struct ScaleRun {
    pub events: u64,
    pub updates: u64,
    /// `updates.sent`: one local training per sent update.
    pub updates_sent: u64,
    pub end_time: SimTime,
    pub net_bytes: u64,
    pub violation: Option<Violation>,
    pub wall_s: f64,
    /// Wall time of each [`SEGMENT`] of the run, in order.
    pub segment_s: Vec<f64>,
    /// Client-observed virtual round trips, in microseconds.
    pub rtt_us: Vec<u64>,
}

impl ScaleRun {
    pub fn same_outputs(&self, other: &ScaleRun) -> bool {
        self.events == other.events
            && self.updates == other.updates
            && self.updates_sent == other.updates_sent
            && self.end_time == other.end_time
            && self.net_bytes == other.net_bytes
    }
}

/// `build_scale`'s deployment with traced nodes and trainers.
fn traced_build(spec: &ScaleSpec, rec: &Recorder) -> (Simulation<FlMsg>, Vec<f32>) {
    let (reference, targets) = build_scale(spec);
    let n_cohorts = spec.n_cohorts();
    let mut net = NetworkConfig::aws();
    if spec.flow_links {
        net = net.with_flow_shared_links();
    }
    let mut sim = Simulation::new(net, spec.seed).with_scheduler(spec.scheduler);
    let mut config = SpykerConfig::paper_defaults(n_cohorts, spec.n_servers);
    if let Some(codec) = spec.codec {
        config = config.with_codec(codec);
    }
    let assignment = even_assignment(n_cohorts, spec.n_servers);
    let server_nodes: Vec<NodeId> = (0..spec.n_servers).collect();
    for (i, clients) in clients_of_servers(&assignment, spec.n_servers)
        .into_iter()
        .enumerate()
    {
        let server = SpykerServer::new(
            i,
            server_nodes.clone(),
            clients,
            ParamVec::zeros(spec.dim),
            config.clone(),
        );
        let node = TracedNode::server(Box::new(server), Some(rec));
        sim.add_node(Box::new(node), server_region(i));
    }
    for (i, &target) in targets.iter().enumerate() {
        let built = reference.nodes()[spec.n_servers + i]
            .as_any()
            .downcast_ref::<CohortClient>()
            .expect("build_scale places cohorts after the servers");
        let trainer = TracedTrainer::wrap(
            Box::new(MeanTargetTrainer::new(vec![target; spec.dim], 8)),
            rec,
        );
        let mut client = FlClient::new(
            assignment[i],
            trainer,
            config.client_epochs,
            built.inner().train_delay(),
        );
        if let Some(codec) = spec.codec {
            client = client.with_update_codec(codec);
        }
        let cohort = CohortClient::new(client, built.size());
        let node = TracedNode::client(Box::new(cohort), Some(rec));
        sim.add_node(Box::new(node), server_region(assignment[i]));
    }
    (sim, targets)
}

/// Builds and runs the deployment once under the oracle suite.
pub fn run_once(spec: &ScaleSpec, rec: Option<&Recorder>) -> ScaleRun {
    let (mut sim, targets) = match rec {
        None => build_scale(spec),
        Some(rec) => traced_build(spec, rec),
    };
    let oracles = match rec {
        None => default_suite(),
        Some(rec) => TracedOracle::wrap_suite(default_suite(), rec),
    };
    let mut tap = ScaleTap::new(
        oracles,
        BUDGET_EVENTS,
        (0..spec.n_servers).collect(),
        spec.n_cohorts(),
        &targets,
        spec.codec,
        RttClock::new(sim.nodes(), spec.n_servers),
        rec.map(|r| r.slot("simtest.tap")),
    );
    let start = Instant::now();
    let mut segment_s = Vec::new();
    let mut until = SimTime::ZERO;
    loop {
        until = (until + SEGMENT).min(spec.horizon);
        let segment = Instant::now();
        let report = sim.run_with_tap(until, &mut tap);
        segment_s.push(segment.elapsed().as_secs_f64());
        let stopped = tap.violation.is_some() || tap.budget_exhausted;
        if stopped || until >= spec.horizon || report.end_time < until {
            break;
        }
    }
    tap.finish(sim.now(), sim.nodes(), sim.metrics());
    let wall_s = start.elapsed().as_secs_f64();
    ScaleRun {
        events: tap.events,
        updates: sim.metrics().counter("updates.processed"),
        updates_sent: sim.metrics().counter("updates.sent"),
        end_time: sim.now(),
        net_bytes: sim.metrics().counter("net.bytes"),
        violation: tap.violation,
        wall_s,
        segment_s,
        rtt_us: tap.rtt.samples,
    }
}
