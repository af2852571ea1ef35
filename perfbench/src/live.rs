//! `tcp_live`: the protocol actors over real localhost sockets via
//! `run_node` — 2 Spyker servers and 2 `FlClient`s, one thread each.
//!
//! The load is a closed loop: a client sends its next update only after
//! its model returns. `train_delay = 0` and `agg_cost = 0`, so nothing
//! sleeps; clients train a dim-8192 `MeanTargetTrainer` (at a learning
//! rate the codec's error feedback keeps stable, see [`LR_PER_TOPK_RATIO`])
//! and upload through the paper codec pipeline, servers answer with the
//! dense ~32 KiB model.
//! Every node runs behind a [`TracedNode`] (the untraced run only counts
//! handler calls and stamps round trips); clients stop first, so each
//! server outlives the last update its client can send.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use spyker_core::client::FlClient;
use spyker_core::config::SpykerConfig;
use spyker_core::decay::DecayConfig;
use spyker_core::params::ParamVec;
use spyker_core::server::SpykerServer;
use spyker_core::training::{LocalTrainer, MeanTargetTrainer};
use spyker_core::update_codec::CodecConfig;
use spyker_simnet::SimTime;
use spyker_transport::tcp::{run_node, TcpNodeConfig, TcpReport};

use crate::trace::{Recorder, RoundTrips, TracedNode, TracedTrainer};

/// Model dimension: a dense model is ~32 KiB on the wire.
pub const DIM: usize = 8192;
const SERVERS: usize = 2;
pub const CLIENTS: usize = 2;
/// How much longer servers run than clients.
const SERVER_MARGIN: Duration = Duration::from_millis(300);
/// An update still unanswered when its client stops counts as in flight,
/// not failed, if it was sent this close to the client's end.
const IN_FLIGHT: SimTime = SimTime::from_millis(100);

/// The generated inputs: one target per client (client `c` pulls its
/// model toward `targets[c]` in every coordinate) and the codec's
/// rounding seed.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveSpec {
    pub targets: [f32; CLIENTS],
    pub codec: CodecConfig,
}

/// splitmix64 step as a uniform draw in `[0, 1)`.
fn unit(state: &mut u64) -> f32 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 40) as f32 / (1u64 << 24) as f32
}

/// The workload's inputs for `seed`: one target in `[-1, -0.25)` and one
/// in `[0.25, 1)`, so the hull the server models must stay in is at least
/// half a unit wide.
pub fn spec(seed: u64) -> LiveSpec {
    let mut state = seed;
    LiveSpec {
        targets: [
            -0.25 - 0.75 * unit(&mut state),
            0.25 + 0.75 * unit(&mut state),
        ],
        codec: CodecConfig::paper_pipeline().with_seed(seed),
    }
}

/// What one deployment produced.
pub struct Deployment {
    /// Start until the first completed round trip.
    pub setup_s: f64,
    /// The clients' run window.
    pub window_s: f64,
    /// Wall time of the client threads' `run_node` calls, summed.
    pub client_wall_s: f64,
    pub updates: u64,
    /// Handler invocations over all four nodes.
    pub handled: u64,
    /// Completed round trips of both clients: seconds since the first
    /// completion, and length in nanoseconds, in completion order.
    pub rtts: Vec<(f64, u64)>,
    /// Client time between handlers, waiting for models.
    pub idle_s: f64,
    pub sent: u64,
    /// Updates never answered, excluding those in flight at the end.
    pub unanswered: u64,
    pub shed: u64,
    /// Messages clients could not hand to a connection.
    pub client_drops: u64,
    pub conn_drops: u64,
    pub net_bytes: u64,
    pub decode_errors: u64,
    pub models: Vec<ParamVec>,
}

impl Deployment {
    /// Round-trip lengths in nanoseconds.
    pub fn rtt_ns(&self) -> impl Iterator<Item = u64> + '_ {
        self.rtts.iter().map(|&(_, ns)| ns)
    }

    /// Consecutive whole windows of `len` seconds from the first completed
    /// round trip: each window's round-trip lengths (the partial last
    /// window is dropped).
    pub fn windows(&self, len: f64) -> Vec<Vec<u64>> {
        let last = self.rtts.last().map_or(0.0, |&(t, _)| t);
        let n = (last / len) as usize;
        let mut out = vec![Vec::new(); n];
        for &(t, ns) in &self.rtts {
            if let Some(w) = out.get_mut((t / len) as usize) {
                w.push(ns);
            }
        }
        out
    }

    /// How far the server models left the hull of the client targets:
    /// the largest distance of any coordinate outside `[min, max]` of the
    /// targets (0 inside).
    pub fn hull_escape(&self, spec: &LiveSpec) -> f32 {
        let lo = spec.targets.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = spec
            .targets
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max);
        self.models
            .iter()
            .flat_map(|m| m.as_slice().iter())
            .map(|&v| {
                if v.is_nan() {
                    f32::INFINITY
                } else {
                    (lo - v).max(v - hi).max(0.0)
                }
            })
            .fold(0.0, f32::max)
    }
}

/// An ephemeral localhost address that was free a moment ago.
fn free_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("bind an ephemeral localhost port")
}

/// The client learning rate, as a share of the codec's top-k ratio.
///
/// Top-k with error feedback sends a coordinate about once per
/// `1 / ratio` rounds, carrying everything its residual gathered since.
/// `MeanTargetTrainer` moves a coordinate `lr` of the way to its target
/// per round, so a coordinate arrives with about `lr / ratio` times its
/// remaining distance. At the paper's `eta_init = 0.5` and top-1% that is
/// ~50x: every send overshoots and the models grow without bound (1e8 and
/// more within a second). Below 1x no send overshoots, so the server
/// models stay in the hull of the targets; half the ratio leaves a margin.
const LR_PER_TOPK_RATIO: f32 = 0.5;

fn config(spec: &LiveSpec) -> SpykerConfig {
    let mut cfg = SpykerConfig::paper_defaults(CLIENTS, SERVERS).with_codec(spec.codec);
    cfg.agg_cost = SimTime::ZERO;
    let ratio = spec.codec.topk.unwrap_or(1.0);
    cfg.decay = DecayConfig::scaled(LR_PER_TOPK_RATIO * ratio);
    cfg
}

/// Runs one deployment for `window` of client time.
pub fn deploy(spec: &LiveSpec, window: Duration, rec: Option<&Recorder>) -> Deployment {
    let addrs: Vec<SocketAddr> = (0..SERVERS).map(|_| free_addr()).collect();
    let num_nodes = SERVERS + CLIENTS;
    let cfg = config(spec);
    let handled = Arc::new(AtomicU64::new(0));
    let rtts: Vec<Arc<Mutex<RoundTrips>>> = (0..CLIENTS).map(|_| Arc::default()).collect();
    let client_wall = Mutex::new([0.0; CLIENTS]);
    let start = Instant::now();
    let reports: Vec<TcpReport> = thread::scope(|scope| {
        let mut handles = Vec::new();
        for (s, &addr) in addrs.iter().enumerate() {
            let server = SpykerServer::new(
                s,
                (0..SERVERS).collect(),
                vec![SERVERS + s],
                ParamVec::zeros(DIM),
                cfg.clone(),
            );
            let node = TracedNode::server(Box::new(server), rec).counting(&handled);
            let mut ncfg = TcpNodeConfig::new(s, num_nodes);
            ncfg.listen = Some(addr);
            ncfg.peers = (0..s).map(|j| (j, addrs[j])).collect();
            handles
                .push(scope.spawn(move || run_node(Box::new(node), &ncfg, window + SERVER_MARGIN)));
        }
        for (c, rtt) in rtts.iter().enumerate() {
            let mut trainer: Box<dyn LocalTrainer> =
                Box::new(MeanTargetTrainer::new(vec![spec.targets[c]; DIM], 8));
            if let Some(rec) = rec {
                trainer = TracedTrainer::wrap(trainer, rec);
            }
            let client = FlClient::new(c, trainer, cfg.client_epochs, SimTime::ZERO)
                .with_update_codec(spec.codec);
            let node = TracedNode::client(Box::new(client), rec)
                .counting(&handled)
                .with_round_trips(rtt);
            let mut ncfg = TcpNodeConfig::new(SERVERS + c, num_nodes);
            ncfg.peers = vec![(c, addrs[c])];
            let client_wall = &client_wall;
            handles.push(scope.spawn(move || {
                let start = Instant::now();
                let report = run_node(Box::new(node), &ncfg, window);
                client_wall.lock().expect("client wall lock poisoned")[c] =
                    start.elapsed().as_secs_f64();
                report
            }));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("node thread panicked")
                    .expect("server binds its listener")
            })
            .collect()
    });
    let client_wall_s = client_wall
        .into_inner()
        .expect("client wall lock poisoned")
        .iter()
        .sum();

    let (servers, clients) = reports.split_at(SERVERS);
    let sum =
        |rs: &[TcpReport], name: &str| rs.iter().map(|r| r.metrics.counter(name)).sum::<u64>();
    let mut completions: Vec<(Instant, u64)> = Vec::new();
    let (mut sent, mut unanswered, mut idle_ns) = (0, 0, 0);
    for (rtt, report) in rtts.iter().zip(clients) {
        let rtt = rtt.lock().expect("round-trip lock poisoned");
        completions.extend_from_slice(&rtt.samples);
        sent += rtt.sent;
        idle_ns += rtt.idle_ns;
        if let Some((at, _)) = rtt.pending {
            if report.end.saturating_sub(at) > IN_FLIGHT {
                unanswered += 1;
            }
        }
    }
    completions.sort_unstable_by_key(|&(at, _)| at);
    let first = completions.first().map(|&(at, _)| at);
    Deployment {
        setup_s: first.map_or(f64::INFINITY, |f| (f - start).as_secs_f64()),
        rtts: completions
            .iter()
            .map(|&(at, ns)| ((at - first.unwrap_or(at)).as_secs_f64(), ns))
            .collect(),
        window_s: window.as_secs_f64(),
        client_wall_s,
        updates: sum(servers, "updates.processed"),
        handled: handled.load(Ordering::Relaxed),
        idle_s: idle_ns as f64 * 1e-9,
        sent,
        unanswered,
        shed: sum(&reports, "net.queue.shed"),
        client_drops: sum(clients, "fault.dropped"),
        conn_drops: sum(&reports, "net.conn.dropped"),
        net_bytes: sum(&reports, "net.bytes"),
        decode_errors: sum(servers, "codec.decode_error"),
        models: servers
            .iter()
            .map(|r| {
                r.node
                    .as_any()
                    .downcast_ref::<SpykerServer>()
                    .expect("server report holds a SpykerServer")
                    .params()
                    .clone()
            })
            .collect(),
    }
}
