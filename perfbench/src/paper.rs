//! `paper_mnist`: the paper's Figs. 5–6 at paper scale — all five
//! algorithms on `Scenario::mnist(100, 4, seed)` for 60 virtual seconds
//! with 500 ms probes, i.e. `fig5_6_mnist` without file output — plus the
//! paper metrics every workload reports.
//!
//! [`drive`] is `spyker_experiments::run_algorithm` rebuilt from the
//! public deployment constructors, so the traced run can wrap trainers,
//! the evaluator, the probe and (for Spyker and Sync-Spyker, whose servers
//! have public constructors) the nodes; it also returns the event count
//! `run_algorithm` keeps to itself. Every run checks the rebuild against
//! `run_algorithm` on Spyker.

use std::ops::ControlFlow;
use std::time::Instant;

use spyker_baselines::deploy::{fedasync_deployment, fedavg_deployment, hierfavg_deployment};
use spyker_baselines::fedasync::{FedAsyncConfig, FedAsyncServer};
use spyker_baselines::fedavg::{FedAvgConfig, FedAvgServer};
use spyker_baselines::hierfavg::{EdgeServer, HierFavgConfig};
use spyker_core::client::FlClient;
use spyker_core::config::SpykerConfig;
use spyker_core::deploy::{
    clients_of_servers, even_assignment, server_region, spyker_deployment_assigned,
    sync_spyker_deployment, SpykerDeploymentSpec,
};
use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_core::server::SpykerServer;
use spyker_core::sync_spyker::SyncSpykerServer;
use spyker_core::training::{Evaluator, LocalTrainer};
use spyker_experiments::{
    default_spyker_config, run_algorithm, Algorithm, RunOptions, SamplePoint, Scale, Scenario,
};
use spyker_simnet::{Node, NodeId, ProbeCtx, SimTime, Simulation};

use crate::derived_seed;
use crate::des::RttClock;
use crate::trace::{timed, Recorder, TracedEvaluator, TracedNode, TracedTrainer};

/// The accuracy target of the paper-scale time-to-accuracy tables.
pub fn target() -> f64 {
    Scale::paper().target_accuracy
}

/// `fig5_6_mnist`'s run options: AWS network, 60 virtual seconds, 500 ms
/// probes.
pub fn options() -> RunOptions {
    RunOptions::standard().with_max_time(Scale::paper().horizon)
}

/// The workload's scenario for `seed`.
pub fn scenario(seed: u64) -> Scenario {
    let scale = Scale::paper();
    Scenario::mnist(scale.clients, scale.servers, seed)
}

/// One algorithm run.
pub struct AlgRun {
    pub alg: Algorithm,
    pub samples: Vec<SamplePoint>,
    pub events: u64,
    pub updates: u64,
    /// `updates.sent`: one local training per sent update.
    pub updates_sent: u64,
    /// Running the deployment (probes included, building excluded).
    pub run_s: f64,
    /// Wall time of each [`SEGMENT`] of the run, in order.
    pub segment_s: Vec<f64>,
    /// Client-observed virtual round trips, in microseconds.
    pub rtt_us: Vec<u64>,
}

impl AlgRun {
    /// Whether the run behaved: it recorded samples, the model learned,
    /// and (Spyker) it reached the paper's target.
    pub fn sane(&self) -> bool {
        let (Some(first), Some(best)) = (
            self.samples.first(),
            self.samples.iter().map(|s| s.metric).reduce(f64::max),
        ) else {
            return false;
        };
        let learned = best > first.metric + 0.2;
        let reached = self.alg != Algorithm::Spyker || best >= target();
        learned && reached && self.updates > 0
    }

    /// Whether `other` reproduced this run's deterministic outputs.
    pub fn same_outputs(&self, other: &AlgRun) -> bool {
        self.samples == other.samples
            && self.events == other.events
            && self.updates == other.updates
            && self.updates_sent == other.updates_sent
    }
}

fn server_node_ids(alg: Algorithm, n_servers: usize) -> Vec<NodeId> {
    match alg {
        Algorithm::FedAvg | Algorithm::FedAsync => vec![0],
        Algorithm::HierFavg => (1..=n_servers).collect(),
        Algorithm::Spyker | Algorithm::SyncSpyker => (0..n_servers).collect(),
    }
}

fn first_client_node(alg: Algorithm, n_servers: usize) -> NodeId {
    match alg {
        Algorithm::FedAvg | Algorithm::FedAsync => 1,
        Algorithm::HierFavg => 1 + n_servers,
        Algorithm::Spyker | Algorithm::SyncSpyker => n_servers,
    }
}

fn server_params(alg: Algorithm, node: &dyn Node<FlMsg>) -> ParamVec {
    let any = node.as_any();
    let params = match alg {
        Algorithm::FedAvg => any.downcast_ref::<FedAvgServer>().map(FedAvgServer::params),
        Algorithm::FedAsync => any
            .downcast_ref::<FedAsyncServer>()
            .map(FedAsyncServer::params),
        Algorithm::HierFavg => any.downcast_ref::<EdgeServer>().map(EdgeServer::params),
        Algorithm::Spyker => any.downcast_ref::<SpykerServer>().map(SpykerServer::params),
        Algorithm::SyncSpyker => any
            .downcast_ref::<SyncSpykerServer>()
            .map(SyncSpykerServer::params),
    };
    params.expect("server node of the algorithm's type").clone()
}

/// Spyker or Sync-Spyker with every node behind a [`TracedNode`], laid out
/// exactly as `spyker_deployment_assigned` / `sync_spyker_deployment` lay
/// them out.
fn traced_ring(
    scenario: &Scenario,
    opts: &RunOptions,
    servers: Vec<Box<dyn Node<FlMsg>>>,
    config: &SpykerConfig,
    trainers: Vec<Box<dyn LocalTrainer>>,
    rec: &Recorder,
) -> Simulation<FlMsg> {
    let assignment = even_assignment(scenario.n_clients, scenario.n_servers);
    let mut sim = Simulation::new(opts.net.clone(), scenario.seed);
    for (i, server) in servers.into_iter().enumerate() {
        let node = TracedNode::server(server, Some(rec));
        sim.add_node(Box::new(node), server_region(i));
    }
    for (i, trainer) in trainers.into_iter().enumerate() {
        let server = assignment[i];
        let mut client = FlClient::new(server, trainer, config.client_epochs, scenario.delays()[i]);
        if let Some(codec) = config.codec {
            client = client.with_update_codec(codec);
        }
        let node = TracedNode::client(Box::new(client), Some(rec));
        sim.add_node(Box::new(node), server_region(server));
    }
    sim
}

/// Builds the deployment `run_algorithm` builds for `alg`; with `rec`,
/// trainers are traced, and Spyker / Sync-Spyker nodes too.
pub fn build(
    alg: Algorithm,
    scenario: &Scenario,
    opts: &RunOptions,
    rec: Option<&Recorder>,
) -> Simulation<FlMsg> {
    let mut trainers = scenario.trainers();
    if let Some(rec) = rec {
        trainers = trainers
            .into_iter()
            .map(|t| TracedTrainer::wrap(t, rec))
            .collect();
    }
    let delays = scenario.delays().to_vec();
    let init = scenario.init_params();
    let seed = scenario.seed;
    let n_servers = scenario.n_servers;
    let sim = match alg {
        Algorithm::FedAvg => fedavg_deployment(
            opts.net.clone(),
            seed,
            FedAvgConfig::paper_defaults().with_client_lr(scenario.client_lr),
            trainers,
            init,
            delays,
            scenario.client_epochs,
        ),
        Algorithm::FedAsync => fedasync_deployment(
            opts.net.clone(),
            seed,
            FedAsyncConfig::paper_defaults().with_client_lr(scenario.client_lr),
            trainers,
            init,
            delays,
            scenario.client_epochs,
        ),
        Algorithm::HierFavg => hierfavg_deployment(
            opts.net.clone(),
            seed,
            HierFavgConfig::paper_defaults().with_client_lr(scenario.client_lr),
            n_servers,
            trainers,
            init,
            delays,
            scenario.client_epochs,
        ),
        Algorithm::Spyker | Algorithm::SyncSpyker => {
            let config = default_spyker_config(scenario);
            let server_nodes: Vec<NodeId> = (0..n_servers).collect();
            let assignment = even_assignment(scenario.n_clients, n_servers);
            match rec {
                None => {
                    let spec = SpykerDeploymentSpec {
                        config,
                        trainers,
                        num_servers: n_servers,
                        init_params: init,
                        train_delay: delays,
                    };
                    if alg == Algorithm::Spyker {
                        spyker_deployment_assigned(opts.net.clone(), seed, assignment, spec)
                    } else {
                        sync_spyker_deployment(opts.net.clone(), seed, opts.sync_period, spec)
                    }
                }
                Some(rec) => {
                    let servers: Vec<Box<dyn Node<FlMsg>>> =
                        clients_of_servers(&assignment, n_servers)
                            .into_iter()
                            .enumerate()
                            .map(|(i, clients)| -> Box<dyn Node<FlMsg>> {
                                if alg == Algorithm::Spyker {
                                    Box::new(SpykerServer::new(
                                        i,
                                        server_nodes.clone(),
                                        clients,
                                        init.clone(),
                                        config.clone(),
                                    ))
                                } else {
                                    Box::new(SyncSpykerServer::new(
                                        i,
                                        server_nodes.clone(),
                                        clients,
                                        init.clone(),
                                        config.clone(),
                                        opts.sync_period,
                                    ))
                                }
                            })
                            .collect();
                    traced_ring(scenario, opts, servers, &config, trainers, rec)
                }
            }
        }
    };
    sim.with_faults(opts.faults.clone())
}

/// Virtual time between the points where a run pauses to time itself.
/// A multiple of the probe interval, so the probe schedule, and with it
/// every sample, is the one an unpaused run records.
pub const SEGMENT: SimTime = SimTime::from_secs(1);

/// Runs `alg` as `run_algorithm` does (same deployment, same probe, same
/// samples), pausing every [`SEGMENT`] of virtual time to time the
/// segment.
pub fn drive(
    alg: Algorithm,
    scenario: &Scenario,
    opts: &RunOptions,
    rec: Option<&Recorder>,
) -> AlgRun {
    let mut sim = build(alg, scenario, opts, rec);
    let start = Instant::now();
    let mut evaluator: Box<dyn Evaluator> = scenario.evaluator(opts.eval_max);
    if let Some(rec) = rec {
        evaluator = TracedEvaluator::wrap(evaluator, rec);
    }
    let probe_span = rec.map(|r| r.slot("experiments.probe"));
    let server_ids = server_node_ids(alg, scenario.n_servers);
    let mut rtt = RttClock::new(sim.nodes(), first_client_node(alg, scenario.n_servers));
    let mut samples: Vec<SamplePoint> = Vec::new();
    let mut segment_s = Vec::new();
    let mut until = SimTime::ZERO;
    let report = loop {
        until = (until + SEGMENT).min(opts.max_time);
        let segment = Instant::now();
        let report = sim.run_with_probe_and_tap(
            until,
            opts.probe_interval,
            |ctx| {
                let mut sample = || samples.push(probe(alg, &server_ids, evaluator.as_ref(), ctx));
                match &probe_span {
                    Some(span) => timed(span, sample),
                    None => sample(),
                }
                if reached(opts, &samples) {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
            &mut rtt,
        );
        segment_s.push(segment.elapsed().as_secs_f64());
        if until >= opts.max_time || report.end_time < until || reached(opts, &samples) {
            break report;
        }
    };
    let metrics = sim.metrics();
    AlgRun {
        alg,
        events: report.events_processed,
        updates: metrics.counter("updates.processed"),
        updates_sent: metrics.counter("updates.sent"),
        samples,
        run_s: start.elapsed().as_secs_f64(),
        segment_s,
        rtt_us: rtt.samples,
    }
}

/// `run_algorithm`'s early stop (accuracy: higher is better).
fn reached(opts: &RunOptions, samples: &[SamplePoint]) -> bool {
    matches!((opts.stop_at_metric, samples.last()), (Some(t), Some(l)) if l.metric >= t)
}

/// `run_algorithm`'s probe: scores the uniform average of the server
/// models and records the queue and bandwidth series.
fn probe(
    alg: Algorithm,
    server_ids: &[NodeId],
    evaluator: &dyn Evaluator,
    ctx: &mut ProbeCtx<'_, FlMsg>,
) -> SamplePoint {
    let params: Vec<ParamVec> = server_ids
        .iter()
        .map(|&id| server_params(alg, ctx.nodes()[id].as_ref()))
        .collect();
    let weighted: Vec<(&ParamVec, f64)> = params.iter().map(|p| (p, 1.0)).collect();
    let r = evaluator.evaluate(&ParamVec::weighted_mean(&weighted));
    let time = ctx.time();
    let mut max_q = 0usize;
    for (i, &id) in server_ids.iter().enumerate() {
        let q = ctx.queue_len(id);
        max_q = max_q.max(q);
        ctx.metrics().record(&format!("queue.s{i}"), time, q as f64);
    }
    let total = ctx.metrics().counter("net.bytes") as f64;
    let cs = ctx.metrics().counter("net.bytes.client-server") as f64;
    let ss = ctx.metrics().counter("net.bytes.server-server") as f64;
    let updates = ctx.metrics().counter("updates.processed");
    ctx.metrics().record("queue.max", time, max_q as f64);
    ctx.metrics().record("bytes.total", time, total);
    ctx.metrics().record("bytes.client-server", time, cs);
    ctx.metrics().record("bytes.server-server", time, ss);
    ctx.metrics().record("metric", time, r.metric);
    SamplePoint {
        time,
        updates,
        metric: r.metric,
        loss: r.loss,
    }
}

/// One figure pass: every algorithm once, in the paper's order.
pub fn pass(scenario: &Scenario, rec: Option<&Recorder>) -> Vec<AlgRun> {
    let opts = options();
    Algorithm::ALL
        .iter()
        .map(|&alg| drive(alg, scenario, &opts, rec))
        .collect()
}

/// Scenarios per run behind the paper metrics and the virtual round
/// trips of `paper_mnist`.
pub const QUALITY_SCENARIOS: u64 = 32;

/// The paper metrics: Spyker's virtual time and updates to the target
/// accuracy, averaged over [`QUALITY_SCENARIOS`] scenarios drawn from the
/// seed (one scenario's time-to-target moves by about ±20% from seed to
/// seed; the mean over the set is steady), and the final accuracy on the
/// workload seed's scenario.
pub struct Quality {
    pub time_to_target_s: f64,
    pub updates_to_target: f64,
    pub final_accuracy: f64,
    /// Client-observed virtual round trips of every scenario's run up to
    /// the target, in microseconds.
    pub rtt_us: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Computes [`Quality`]. Each scenario's Spyker run stops at the target
/// (the crossing sample is the one a full run records). The workload
/// seed's stopped run is checked against `run_algorithm`, so every run
/// also verifies that [`drive`] reproduces it. `full` is the workload
/// seed's full Spyker run when the caller already has one; otherwise one
/// is made for the final accuracy.
pub fn quality(seed: u64, full: Option<&AlgRun>) -> Quality {
    let opts = options();
    let target = target();
    let stop = options().with_stop_at(target);
    let (mut ttt, mut utt, mut rtt_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0;
    for k in 0..QUALITY_SCENARIOS {
        let sc = scenario(derived_seed(seed, k));
        let run = drive(Algorithm::Spyker, &sc, &stop, None);
        if k == 0 && run_algorithm(Algorithm::Spyker, &sc, &stop).samples != run.samples {
            eprintln!("paper: the rebuilt Spyker run diverged from run_algorithm");
            failed += 1;
        }
        match run.samples.last().filter(|s| s.metric >= target) {
            Some(cross) => {
                ttt.push(cross.time.as_secs_f64());
                utt.push(cross.updates as f64);
            }
            None => {
                eprintln!("paper: Spyker missed the target on scenario {k}");
                failed += 1;
            }
        }
        rtt_us.extend(run.rtt_us);
    }
    let final_accuracy = match full {
        Some(run) => run.samples.last().map_or(0.0, |s| s.metric),
        None => {
            let sc = scenario(derived_seed(seed, 0));
            let run = drive(Algorithm::Spyker, &sc, &opts, None);
            run.samples.last().map_or(0.0, |s| s.metric)
        }
    };
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    Quality {
        time_to_target_s: mean(&ttt),
        updates_to_target: mean(&utt),
        final_accuracy,
        rtt_us,
        attempted: QUALITY_SCENARIOS,
        failed,
    }
}
