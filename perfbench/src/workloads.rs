//! Per-workload orchestration: the untraced measurement (end-to-end
//! metrics) and the traced breakdown (per-layer metrics).
//!
//! Both modes repeat the workload's unit of work — a figure pass, a scale
//! run, a live deployment — until `--seconds` have passed. The untraced
//! mode reports the slow phase of its unit times (see [`unit_time`]).
//! The traced mode alternates untraced and traced units, checks that the
//! traced ones reproduce the untraced deterministic outputs, and reports
//! layer figures per traced unit.

use std::time::{Duration, Instant};

use spyker_experiments::Algorithm;
use spyker_simtest::build_scale;

use crate::live::{self, Deployment};
use crate::paper::{self, AlgRun};
use crate::report::{median, quantile, quartile, Metrics};
use crate::scale::{self, ScaleRun};
use crate::trace::{Recorder, SpanStats};
use crate::{replay, Args, Outcome, ORACLES};

/// Set-ups timed before each unit of work of a simulated workload.
const SETUPS_PER_UNIT: usize = 3;
/// Live deployments per run.
const DEPLOYMENTS: u32 = 4;
/// Live round trips are cut into windows of this many seconds (several
/// thousand round trips each); the rate and percentiles are taken per
/// window.
const LIVE_WINDOW_S: f64 = 1.0;
/// `run_s` of `tcp_live`: the wall time of this many updates at the
/// measured rate.
const LIVE_UNIT_UPDATES: f64 = 10_000.0;
/// Rounding slack of the live hull check (the model-hull oracle's).
const HULL_EPS: f32 = 1e-3;

pub fn run(args: &Args, clock_ns: f64) -> Outcome {
    let mut outcome = match (args.workload.as_str(), args.trace) {
        ("paper_mnist", false) => paper_untraced(args),
        ("paper_mnist", true) => paper_traced(args),
        ("scale_100k", false) => scale_untraced(args),
        ("scale_100k", true) => scale_traced(args),
        ("tcp_live", false) => live_untraced(args),
        ("tcp_live", true) => live_traced(args),
        (w, _) => unreachable!("workload {w} passed argument validation"),
    };
    if args.trace {
        replay::all(&mut outcome.metrics);
        outcome.metrics.ns("host.clock_read_ns", clock_ns);
    } else {
        outcome.metrics.put("peak_rss_mib", peak_rss_mib(), "MiB");
    }
    outcome
}

fn peak_rss_mib() -> f64 {
    spyker_simnet::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

fn timed_s<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Puts `update_rtt_p50_ms` / `update_rtt_p99_ms` from samples in units
/// of `unit_ns` nanoseconds; `false` when there are none.
fn put_rtt(m: &mut Metrics, samples: &mut [u64], unit_ns: f64, clock: &str) -> bool {
    if samples.is_empty() {
        eprintln!("no update round trips completed");
        return false;
    }
    samples.sort_unstable();
    let (p50, _) = quantile(samples, 0.5);
    let (p99, above) = quantile(samples, 0.99);
    m.put("update_rtt_p50_ms", p50 as f64 * unit_ns * 1e-6, "ms");
    m.put("update_rtt_p99_ms", p99 as f64 * unit_ns * 1e-6, "ms");
    println!(
        "update round trips ({clock}): {} samples, {above} above the p99",
        samples.len()
    );
    true
}

fn put_quality(m: &mut Metrics, q: &paper::Quality) {
    m.s("spyker_virt_time_to_target_s", q.time_to_target_s);
    m.count("spyker_updates_to_target", q.updates_to_target);
    m.put("spyker_final_accuracy", q.final_accuracy, "ratio");
}

/// The slow-phase time of a repeated unit of work, from each
/// repetition's wall time and per-segment wall times: per segment, the
/// slowest repetition, summed, plus the slowest time outside the
/// segments.
///
/// The shared host this benchmark runs on goes through bursts, lasting
/// seconds, in which the workloads run ~30% faster while a pure ALU or
/// DRAM loop does not speed up at all (a neighbour leaving the shared
/// cache). Medians of whole runs swing with the share of burst time in
/// the run. Segments are short (one virtual second), so a burst that
/// covers some of a repetition leaves the other repetitions' times for the
/// same segments. The slow phase has a steady ceiling while the fast one
/// varies: over consecutive 25 s stretches of one long run, this sum
/// spread by 5-11% (IQR / median) where the per-segment upper quartile
/// spread by 16-18%.
fn unit_time(units: &[(f64, Vec<f64>)]) -> f64 {
    let n = units[0].1.len();
    assert!(
        units.iter().all(|(_, segments)| segments.len() == n),
        "repetitions of a deterministic unit have the same segments"
    );
    let outside: Vec<f64> = units
        .iter()
        .map(|(wall, segments)| wall - segments.iter().sum::<f64>())
        .collect();
    let segments: f64 = (0..n)
        .map(|j| units.iter().map(|(_, s)| s[j]).fold(0.0, f64::max))
        .sum();
    segments + outside.iter().copied().fold(0.0, f64::max)
}

/// The units' wall times, for the run's log.
fn walls(units: &[(f64, Vec<f64>)]) -> String {
    let walls: Vec<String> = units.iter().map(|(w, _)| format!("{w:.3}")).collect();
    walls.join(", ")
}

/// Times `SETUPS_PER_UNIT` set-ups into `times`; returns the last one's
/// product.
fn setups<R>(times: &mut Vec<f64>, mut f: impl FnMut() -> R) -> R {
    let mut last = None;
    for _ in 0..SETUPS_PER_UNIT {
        let (out, s) = timed_s(&mut f);
        times.push(s);
        last = Some(out);
    }
    last.expect("at least one set-up")
}

/// Handler self time net of the metric emissions made inside it.
fn net_of_obs(s: &SpanStats, emit_ns: f64) -> f64 {
    s.self_s - s.emits as f64 * emit_ns * 1e-9
}

/// The layer figures every traced workload shares: trainer, handlers,
/// metric emission, from the span statistics `stats` gives per name.
/// Returns the seconds they account for.
fn put_actor_layers(
    m: &mut Metrics,
    stats: impl Fn(&str) -> SpanStats,
    n: f64,
    emit_ns: f64,
) -> f64 {
    let train = stats("models.train");
    let eval = stats("models.eval");
    let server = stats("core.server") + stats("core.server.update");
    let client = stats("core.client");
    let emits = server.emits + client.emits;
    m.s("models.train_s", train.total_s / n);
    m.count("models.train_calls", train.calls as f64 / n);
    if train.calls > 0 {
        m.put(
            "models.train_us_per_call",
            train.total_s / train.calls as f64 * 1e6,
            "us",
        );
    }
    m.s("models.eval_s", eval.total_s / n);
    m.s("core.server_handler_s", net_of_obs(&server, emit_ns) / n);
    m.count("core.server_handler_calls", server.calls as f64 / n);
    m.s("core.client_handler_s", net_of_obs(&client, emit_ns) / n);
    m.count("core.client_handler_calls", client.calls as f64 / n);
    m.count("obs.emit_calls", emits as f64 / n);
    m.s("obs.emit_s", emits as f64 * emit_ns * 1e-9 / n);
    (train.total_s + eval.total_s + server.self_s + client.self_s) / n
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

// ----- paper_mnist ---------------------------------------------------------

fn alg_metric(alg: Algorithm) -> &'static str {
    match alg {
        Algorithm::FedAvg => "experiments.run_s.fedavg",
        Algorithm::FedAsync => "experiments.run_s.fedasync",
        Algorithm::HierFavg => "experiments.run_s.hierfavg",
        Algorithm::Spyker => "experiments.run_s.spyker",
        Algorithm::SyncSpyker => "experiments.run_s.sync-spyker",
    }
}

/// Checks a pass against the sanity rules and the first pass; returns the
/// number of failed algorithm runs.
fn check_pass(pass: &[AlgRun], reference: Option<&[AlgRun]>, what: &str) -> u64 {
    let mut failed = 0;
    for (i, run) in pass.iter().enumerate() {
        let same = reference.is_none_or(|r| r[i].same_outputs(run));
        if !(run.sane() && same) {
            eprintln!(
                "paper_mnist: {} ({what}) failed its checks (sane {}, identical {same})",
                run.alg,
                run.sane()
            );
            failed += 1;
        }
    }
    failed
}

fn paper_untraced(args: &Args) -> Outcome {
    let mut m = Metrics::default();
    let opts = paper::options();
    let start = Instant::now();
    let mut first: Option<Vec<AlgRun>> = None;
    let (mut setup_times, mut units) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    while units.len() < 2 || start.elapsed() < args.seconds {
        // Set-ups are spread over the run, between its passes.
        let sc = setups(&mut setup_times, || {
            let sc = paper::scenario(args.seed);
            for alg in Algorithm::ALL {
                drop(paper::build(alg, &sc, &opts, None));
            }
            sc
        });
        let (pass, wall) = timed_s(|| paper::pass(&sc, None));
        units.push((
            wall,
            pass.iter().flat_map(|r| r.segment_s.clone()).collect(),
        ));
        attempted += pass.len() as u64;
        failed += check_pass(&pass, first.as_deref(), "timed pass");
        first.get_or_insert(pass);
    }
    let first = first.expect("at least one pass");
    println!(
        "paper_mnist: {} figure passes of {} s",
        units.len(),
        walls(&units)
    );
    let events: u64 = first.iter().map(|r| r.events).sum();
    let updates: u64 = first.iter().map(|r| r.updates).sum();
    let run_s = unit_time(&units);
    m.s("setup_s", median(&mut setup_times));
    m.s("run_s", run_s);
    m.put("events_per_s", events as f64 / run_s, "1/s");
    m.put("updates_per_s", updates as f64 / run_s, "1/s");
    let spyker = first
        .iter()
        .find(|r| r.alg == Algorithm::Spyker)
        .expect("the pass runs Spyker");
    let mut q = paper::quality(args.seed, Some(spyker));
    if !put_rtt(
        &mut m,
        &mut q.rtt_us,
        1e3,
        "virtual clock, Spyker up to the target",
    ) {
        failed += 1;
    }
    attempted += q.attempted;
    failed += q.failed;
    put_quality(&mut m, &q);
    Outcome {
        metrics: m,
        attempted,
        correct: failed == 0,
        failed,
    }
}

fn paper_traced(args: &Args) -> Outcome {
    let mut m = Metrics::default();
    let opts = paper::options();
    let sc = paper::scenario(args.seed);
    let recs: Vec<Recorder> = Algorithm::ALL.iter().map(|_| Recorder::new()).collect();
    let start = Instant::now();
    let mut reference: Option<Vec<AlgRun>> = None;
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut run_s = [0.0f64; 5];
    let (mut attempted, mut failed, mut n) = (0, 0, 0u32);
    while n == 0 || start.elapsed() < args.seconds {
        let (plain, wall) = timed_s(|| paper::pass(&sc, None));
        plain_walls.push(wall);
        attempted += plain.len() as u64;
        failed += check_pass(&plain, reference.as_deref(), "untraced pass");
        let reference = reference.get_or_insert(plain);
        let (traced, wall) = timed_s(|| {
            Algorithm::ALL
                .iter()
                .zip(&recs)
                .map(|(&alg, rec)| paper::drive(alg, &sc, &opts, Some(rec)))
                .collect::<Vec<_>>()
        });
        traced_walls.push(wall);
        attempted += traced.len() as u64;
        failed += check_pass(&traced, Some(reference), "traced pass");
        for (acc, run) in run_s.iter_mut().zip(&traced) {
            *acc += run.run_s;
        }
        n += 1;
    }
    let reference = reference.expect("at least one pass");
    let nf = f64::from(n);
    let emit_ns = replay::counter_add_ns().0;
    let (mut probe_self, mut dispatch, mut residual_baselines) = (0.0, 0.0, 0.0);
    let (mut wrapped_events, mut all_events) = (0u64, 0u64);
    for (i, (&alg, rec)) in Algorithm::ALL.iter().zip(&recs).enumerate() {
        let train = rec.stats("models.train");
        let probe = rec.stats("experiments.probe");
        let server = rec.stats("core.server") + rec.stats("core.server.update");
        let client = rec.stats("core.client");
        if train.calls != u64::from(n) * reference[i].updates_sent {
            eprintln!("paper_mnist: {alg} traced train calls differ from updates sent");
            failed += 1;
        }
        probe_self += probe.self_s;
        all_events += reference[i].events;
        m.s(alg_metric(alg), run_s[i] / nf);
        if matches!(alg, Algorithm::Spyker | Algorithm::SyncSpyker) {
            dispatch += run_s[i] - server.total_s - client.total_s - probe.total_s;
            wrapped_events += reference[i].events;
        } else {
            residual_baselines += run_s[i] - train.total_s - probe.total_s;
        }
    }
    let all_algorithms = |name: &str| {
        recs.iter()
            .map(|r| r.stats(name))
            .fold(SpanStats::default(), |a, b| a + b)
    };
    let mut accounted = put_actor_layers(&mut m, all_algorithms, nf, emit_ns);
    m.s("experiments.probe_s", probe_self / nf);
    m.s("simnet.dispatch_s", dispatch / nf);
    m.count("simnet.events", all_events as f64);
    m.ns(
        "simnet.ns_per_event",
        dispatch / nf / wrapped_events as f64 * 1e9,
    );
    m.s("core.baseline_residual_s", residual_baselines / nf);
    let emits = m.get("obs.emit_calls").unwrap_or(0.0);
    m.count("obs.emits_per_event", emits / wrapped_events as f64);
    accounted += (probe_self + dispatch + residual_baselines) / nf;
    let wall = mean(&traced_walls);
    m.s("trace.wall_s", wall);
    m.s("trace.residual_s", wall - accounted);
    m.s(
        "trace.overhead_s",
        median(&mut traced_walls) - median(&mut plain_walls),
    );
    println!("paper_mnist: {n} traced and {n} untraced figure passes; spans per traced pass");
    Outcome {
        metrics: m,
        attempted,
        correct: failed == 0,
        failed,
    }
}

// ----- scale_100k ----------------------------------------------------------

fn check_scale(run: &ScaleRun, reference: Option<&ScaleRun>, what: &str) -> u64 {
    let same = reference.is_none_or(|r| r.same_outputs(run));
    if let Some(v) = &run.violation {
        eprintln!(
            "scale_100k ({what}): oracle {} fired: {}",
            v.oracle, v.message
        );
    }
    let ok = run.violation.is_none() && same && run.updates > 0;
    if !ok {
        eprintln!("scale_100k ({what}) failed its checks (identical {same})");
    }
    u64::from(!ok)
}

fn scale_untraced(args: &Args) -> Outcome {
    let mut m = Metrics::default();
    let specs = scale::specs(args.seed);
    let start = Instant::now();
    // The first run of each spec: later runs of the spec must match it.
    let mut firsts: Vec<ScaleRun> = Vec::new();
    let (mut setup_times, mut units) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    while units.len() < specs.len().max(2) || start.elapsed() < args.seconds {
        let k = units.len() % specs.len();
        setups(&mut setup_times, || drop(build_scale(&specs[k])));
        let run = scale::run_once(&specs[k], None);
        units.push((run.wall_s, run.segment_s.clone()));
        attempted += 1;
        failed += check_scale(&run, firsts.get(k), "timed run");
        if firsts.len() == k {
            firsts.push(run);
        }
    }
    let n = firsts.len() as f64;
    let events = firsts.iter().map(|r| r.events as f64).sum::<f64>() / n;
    let updates = firsts.iter().map(|r| r.updates as f64).sum::<f64>() / n;
    println!(
        "scale_100k: {} runs cycling over {} specs, {events:.0} events and {updates:.0} \
         updates per run on average, of {} s",
        units.len(),
        specs.len(),
        walls(&units)
    );
    let run_s = unit_time(&units);
    m.s("setup_s", median(&mut setup_times));
    m.s("run_s", run_s);
    m.put("events_per_s", events / run_s, "1/s");
    m.put("updates_per_s", updates / run_s, "1/s");
    let mut rtt_us: Vec<u64> = firsts
        .iter()
        .flat_map(|r| r.rtt_us.iter().copied())
        .collect();
    if !put_rtt(
        &mut m,
        &mut rtt_us,
        1e3,
        "virtual clock, pooled over the specs",
    ) {
        failed += 1;
    }
    let q = paper::quality(args.seed, None);
    attempted += q.attempted;
    failed += q.failed;
    put_quality(&mut m, &q);
    Outcome {
        metrics: m,
        attempted,
        correct: failed == 0,
        failed,
    }
}

fn scale_traced(args: &Args) -> Outcome {
    let mut m = Metrics::default();
    let spec = scale::spec(args.seed);
    let rec = Recorder::new();
    let start = Instant::now();
    let mut reference: Option<ScaleRun> = None;
    let (mut plain_walls, mut traced_walls, mut traced_units) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut n) = (0, 0, 0u32);
    while n == 0 || start.elapsed() < args.seconds {
        let plain = scale::run_once(&spec, None);
        plain_walls.push(plain.wall_s);
        attempted += 1;
        failed += check_scale(&plain, reference.as_ref(), "untraced run");
        let reference = reference.get_or_insert(plain);
        let (traced, unit) = timed_s(|| scale::run_once(&spec, Some(&rec)));
        traced_walls.push(traced.wall_s);
        traced_units.push(unit);
        attempted += 1;
        failed += check_scale(&traced, Some(reference), "traced run");
        n += 1;
    }
    let reference = reference.expect("at least one run");
    let nf = f64::from(n);
    let emit_ns = replay::counter_add_ns().0;
    if rec.stats("models.train").calls != u64::from(n) * reference.updates_sent {
        eprintln!("scale_100k: traced train calls differ from updates sent");
        failed += 1;
    }
    let mut accounted = put_actor_layers(&mut m, |name| rec.stats(name), nf, emit_ns);
    let tap = rec.stats("simtest.tap");
    let server = rec.stats("core.server") + rec.stats("core.server.update");
    let client = rec.stats("core.client");
    let mut checks = 0;
    for o in ORACLES {
        let s = rec.stats(&format!("simtest.oracle.{o}"));
        checks += s.calls;
        m.s(format!("simtest.oracle.{o}_s"), s.total_s / nf);
    }
    m.s("simtest.oracle_s", tap.total_s / nf);
    m.count("simtest.oracle_checks", checks as f64 / nf);
    let dispatch = traced_walls.iter().sum::<f64>() - server.total_s - client.total_s - tap.total_s;
    m.s("simnet.dispatch_s", dispatch / nf);
    m.count("simnet.events", reference.events as f64);
    m.ns(
        "simnet.ns_per_event",
        dispatch / nf / reference.events as f64 * 1e9,
    );
    let emits = m.get("obs.emit_calls").unwrap_or(0.0);
    m.count("obs.emits_per_event", emits / reference.events as f64);
    accounted += (tap.total_s + dispatch) / nf;
    let wall = mean(&traced_units);
    m.s("trace.wall_s", wall);
    m.s("trace.residual_s", wall - accounted);
    m.s(
        "trace.overhead_s",
        median(&mut traced_walls) - median(&mut plain_walls),
    );
    println!("scale_100k: {n} traced and {n} untraced runs; spans per traced run");
    Outcome {
        metrics: m,
        attempted,
        correct: failed == 0,
        failed,
    }
}

// ----- tcp_live ------------------------------------------------------------

/// The clients' run window of one deployment when a run of `seconds`
/// holds `deployments` of them (each also pays the transport's 300 ms
/// connect grace and the servers' margin).
fn live_window(seconds: Duration, deployments: u32) -> Duration {
    (seconds / deployments)
        .saturating_sub(Duration::from_millis(700))
        .max(Duration::from_millis(500))
}

/// Failed updates of one deployment — unanswered, shed, or dropped on the
/// client side — and whether its outputs are right: every server model
/// inside the hull of the client targets, every upload decoded.
fn live_check(d: &Deployment, spec: &live::LiveSpec) -> (u64, bool) {
    let failed = d.unanswered + d.shed + d.client_drops;
    if failed > 0 {
        eprintln!(
            "tcp_live: {} unanswered, {} shed, {} dropped by clients",
            d.unanswered, d.shed, d.client_drops
        );
    }
    let escape = d.hull_escape(spec);
    let correct = escape <= HULL_EPS && d.decode_errors == 0 && d.updates > 0;
    if !correct {
        println!(
            "tcp_live: outputs wrong: server models {} the client targets' hull {:?} \
             by up to {escape:e}; {} decode errors",
            if escape > HULL_EPS {
                "left"
            } else {
                "stayed in"
            },
            spec.targets,
            d.decode_errors
        );
    }
    (failed, correct)
}

fn live_untraced(args: &Args) -> Outcome {
    let mut m = Metrics::default();
    let spec = live::spec(args.seed);
    let window = live_window(args.seconds, DEPLOYMENTS);
    let mut setup_times = Vec::new();
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut completed, mut handled, mut fewest_above) = (0, 0, usize::MAX);
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    for _ in 0..DEPLOYMENTS {
        let d = live::deploy(&spec, window, None);
        setup_times.push(d.setup_s);
        for mut w in d.windows(LIVE_WINDOW_S) {
            rates.push(w.len() as f64 / LIVE_WINDOW_S);
            if w.is_empty() {
                continue;
            }
            w.sort_unstable();
            let (p99, above) = quantile(&w, 0.99);
            p50s.push(quantile(&w, 0.5).0 as f64 * 1e-6);
            p99s.push(p99 as f64 * 1e-6);
            fewest_above = fewest_above.min(above);
        }
        completed += d.rtts.len() as u64;
        handled += d.handled;
        attempted += d.sent;
        let (f, ok) = live_check(&d, &spec);
        failed += f;
        correct &= ok;
    }
    println!(
        "tcp_live: {DEPLOYMENTS} deployments of {:.2} s client time; {completed} round trips \
         (wall clock) in {} windows of {LIVE_WINDOW_S} s, each with at least \
         {fewest_above} above its p99",
        window.as_secs_f64(),
        rates.len(),
    );
    if p50s.is_empty() {
        eprintln!("tcp_live: no window completed a round trip");
        failed += 1;
        p50s.push(0.0);
        p99s.push(0.0);
        rates.push(0.0);
    }
    // Rates take the slow (lower) quartile of the 1 s windows; latency
    // percentiles take the median window, because a window's p99 is
    // already a tail figure and its upper quartile over windows swings
    // with single scheduling stalls.
    let rate = quartile(&mut rates, 0.25);
    m.s("setup_s", median(&mut setup_times));
    m.s("run_s", LIVE_UNIT_UPDATES / rate);
    m.put("updates_per_s", rate, "1/s");
    m.put(
        "events_per_s",
        rate * handled as f64 / completed.max(1) as f64,
        "1/s",
    );
    m.put("update_rtt_p50_ms", median(&mut p50s), "ms");
    m.put("update_rtt_p99_ms", median(&mut p99s), "ms");
    let q = paper::quality(args.seed, None);
    attempted += q.attempted;
    failed += q.failed;
    put_quality(&mut m, &q);
    Outcome {
        metrics: m,
        attempted,
        correct: correct && failed == 0,
        failed,
    }
}

fn live_traced(args: &Args) -> Outcome {
    let mut m = Metrics::default();
    let spec = live::spec(args.seed);
    let window = live_window(args.seconds, DEPLOYMENTS);
    let rec = Recorder::new();
    let (mut plain_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let (mut sent, mut updates, mut bytes, mut shed, mut conn_drops) = (0, 0, 0, 0, 0);
    let (mut rtt_total_s, mut idle_s, mut wall) = (0.0, 0.0, 0.0);
    for _ in 0..DEPLOYMENTS / 2 {
        let plain = live::deploy(&spec, window, None);
        plain_rates.push(plain.rtts.len() as f64 / plain.window_s);
        attempted += plain.sent;
        let (f, ok) = live_check(&plain, &spec);
        failed += f;
        correct &= ok;
        let d = live::deploy(&spec, window, Some(&rec));
        traced_rates.push(d.rtts.len() as f64 / d.window_s);
        attempted += d.sent;
        let (f, ok) = live_check(&d, &spec);
        failed += f;
        correct &= ok;
        sent += d.sent;
        updates += d.updates;
        bytes += d.net_bytes;
        shed += d.shed;
        conn_drops += d.conn_drops;
        rtt_total_s += d.rtt_ns().sum::<u64>() as f64 * 1e-9;
        idle_s += d.idle_s;
        wall += d.client_wall_s;
    }
    let n = DEPLOYMENTS / 2;
    let nf = f64::from(n);
    let emit_ns = replay::counter_add_ns().0;
    if rec.stats("models.train").calls != sent {
        eprintln!("tcp_live: traced train calls differ from updates sent");
        failed += 1;
    }
    put_actor_layers(&mut m, |name| rec.stats(name), nf, emit_ns);
    let server_updates = rec.stats("core.server.update");
    let handled =
        (rec.stats("core.server") + server_updates + rec.stats("core.client")).calls as f64;
    let client = rec.stats("core.client");
    m.put(
        "transport.net_bytes_per_update",
        bytes as f64 / updates.max(1) as f64,
        "B",
    );
    m.count("transport.queue_shed", shed as f64 / nf);
    m.count("transport.conn_drops", conn_drops as f64 / nf);
    // The server handler that takes the update and sends the model back
    // lies inside the round trip; the rest is sockets, framing threads and
    // scheduling (including the sending client's own handler being
    // descheduled after the send).
    m.put(
        "transport.wait_share",
        1.0 - server_updates.total_s / rtt_total_s.max(1e-9),
        "ratio",
    );
    let emits = m.get("obs.emit_calls").unwrap_or(0.0) * nf;
    m.count("obs.emits_per_event", emits / handled.max(1.0));
    // Client-thread time: each client's run is its handlers plus the
    // waits for models between them; the residual is the time before the
    // first model and after the last handler.
    m.s("trace.wall_s", wall / nf);
    m.s("trace.residual_s", (wall - client.total_s - idle_s) / nf);
    let unit = |rates: &mut Vec<f64>| LIVE_UNIT_UPDATES / median(rates);
    m.s(
        "trace.overhead_s",
        unit(&mut traced_rates) - unit(&mut plain_rates),
    );
    println!("tcp_live: {n} traced and {n} untraced deployments; spans per traced deployment");
    Outcome {
        metrics: m,
        attempted,
        correct: correct && failed == 0,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each workload's generated inputs are a function of the seed alone:
    /// the same seed rebuilds them identically, another seed changes them.
    #[test]
    fn generated_inputs_depend_only_on_the_seed() {
        let paper_inputs = |seed| {
            let sc = paper::scenario(seed);
            (
                sc.delays().to_vec(),
                sc.init_params(),
                sc.shard_label_sets(),
            )
        };
        assert_eq!(paper_inputs(5), paper_inputs(5));
        assert_ne!(paper_inputs(5), paper_inputs(6));

        let scale_inputs = |seed| {
            let spec = scale::spec(seed);
            let (sim, targets) = build_scale(&spec);
            let delays: Vec<_> = sim.nodes()[spec.n_servers..]
                .iter()
                .map(|n| {
                    n.as_any()
                        .downcast_ref::<spyker_core::cohort::CohortClient>()
                        .expect("cohort")
                        .inner()
                        .train_delay()
                })
                .collect();
            (targets, delays)
        };
        assert_eq!(scale_inputs(5), scale_inputs(5));
        assert_ne!(scale_inputs(5), scale_inputs(6));

        assert_eq!(live::spec(5), live::spec(5));
        assert_ne!(live::spec(5), live::spec(6));
    }

    #[test]
    fn live_window_fits_the_run() {
        let w = live_window(Duration::from_secs(25), DEPLOYMENTS);
        assert_eq!(w, Duration::from_millis(5_550));
        assert_eq!(
            live_window(Duration::from_secs(1), DEPLOYMENTS),
            Duration::from_millis(500)
        );
    }
}
