//! The repository benchmark: three workloads driven through the public
//! API, end-to-end metrics from untraced runs and a per-layer breakdown
//! from a separate traced run. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_mnist|scale_100k|tcp_live --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`. A run whose outputs
//! fail their checks says so with `"correct": false`; the exit status is
//! non-zero only when no result could be produced.

mod des;
mod live;
mod paper;
mod replay;
mod report;
mod scale;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use report::Metrics;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("events_per_s", "1/s"),
    ("updates_per_s", "1/s"),
    ("update_rtt_p50_ms", "ms"),
    ("update_rtt_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("spyker_virt_time_to_target_s", "s"),
    ("spyker_updates_to_target", "count"),
    ("spyker_final_accuracy", "ratio"),
];

/// Oracles of `default_suite()`, in suite order.
pub const ORACLES: &[&str] = &[
    "virtual-clock",
    "token-conservation",
    "token-uniqueness",
    "bid-monotonicity",
    "age-monotonicity",
    "age-conservation",
    "counter-consistency",
    "metrics-consistency",
    "exchange-ledger",
    "membership",
    "model-hull",
    "codec-bytes",
    "availability",
    "liveness",
];

/// Per-layer metrics, printed by every traced run (`--trace 1`); a layer
/// a workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("models.train_s", "s"),
        ("models.train_calls", "count"),
        ("models.train_us_per_call", "us"),
        ("models.eval_s", "s"),
        ("tensor.matmul_ns.nn_10x64x10", "ns"),
        ("tensor.matmul_ns.tn_64x10x10", "ns"),
        ("tensor.matmul_ns.nt_10x10x64", "ns"),
        ("simnet.events", "count"),
        ("simnet.dispatch_s", "s"),
        ("simnet.ns_per_event", "ns"),
        ("simtest.oracle_s", "s"),
        ("simtest.oracle_checks", "count"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.extend(
        ORACLES
            .iter()
            .map(|o| (format!("simtest.oracle.{o}_s"), "s")),
    );
    let more: &[(&str, &str)] = &[
        ("core.server_handler_s", "s"),
        ("core.server_handler_calls", "count"),
        ("core.client_handler_s", "s"),
        ("core.client_handler_calls", "count"),
        ("core.baseline_residual_s", "s"),
        ("core.codec.encode_ns.8", "ns"),
        ("core.codec.encode_ns.8192", "ns"),
        ("core.codec.decode_ns.8", "ns"),
        ("core.codec.decode_ns.8192", "ns"),
        ("core.agg.validate_flush_ns.8", "ns"),
        ("core.agg.validate_flush_ns.650", "ns"),
        ("core.agg.validate_flush_ns.8192", "ns"),
        ("core.wire.frame_ns.encoded_update", "ns"),
        ("core.wire.frame_ns.model_to_client", "ns"),
        ("core.wire.decode_ns.encoded_update", "ns"),
        ("core.wire.decode_ns.model_to_client", "ns"),
        ("transport.net_bytes_per_update", "B"),
        ("transport.queue_shed", "count"),
        ("transport.conn_drops", "count"),
        ("transport.wait_share", "ratio"),
        ("obs.emit_calls", "count"),
        ("obs.emits_per_event", "count"),
        ("obs.emit_s", "s"),
        ("obs.counter_add_ns.by_name", "ns"),
        ("obs.counter_add_ns.by_id", "ns"),
        ("experiments.run_s.fedavg", "s"),
        ("experiments.run_s.fedasync", "s"),
        ("experiments.run_s.hierfavg", "s"),
        ("experiments.run_s.spyker", "s"),
        ("experiments.run_s.sync-spyker", "s"),
        ("experiments.probe_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.residual_s", "s"),
        ("trace.overhead_s", "s"),
        ("host.clock_read_ns", "ns"),
    ];
    out.extend(more.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Workload names, with the held-out seed later changes confirm their
/// claims on (a seed not used while tuning the benchmark).
pub const WORKLOADS: &[(&str, u64)] = &[
    ("paper_mnist", 90_001),
    ("scale_100k", 90_002),
    ("tcp_live", 90_003),
];

/// The `k`-th seed drawn from a workload seed (`k = 0` is the seed
/// itself), for workloads that pool several generated inputs.
pub fn derived_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const USAGE: &str = "usage: spyker-perfbench --workload paper_mnist|scale_100k|tcp_live \
                     --seed N --seconds S --trace 0|1";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|&(w, _)| w == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a workload run hands back.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed (failed operations included).
    pub correct: bool,
}

/// Orders `m` by `list`; a listed metric the run did not produce is an
/// error for end-to-end metrics (`zero_fill = false`) and reads 0 for
/// per-layer ones.
fn canonical(m: &Metrics, list: &[(String, &'static str)], zero_fill: bool) -> Metrics {
    let mut out = Metrics::default();
    for (name, unit) in list {
        let value = match m.get(name) {
            Some(v) => v,
            None if zero_fill => 0.0,
            None => panic!("workload did not produce end-to-end metric {name}"),
        };
        out.put(name.clone(), value, unit);
    }
    for name in m.names() {
        assert!(
            list.iter().any(|(n, _)| n == name),
            "metric {name} is not declared"
        );
    }
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let clock_ns = replay::clock_read_ns();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let held_out = WORKLOADS
        .iter()
        .find(|&&(w, _)| w == args.workload)
        .map_or(0, |&(_, s)| s);
    println!(
        "workload {} seed {} (held-out seed {held_out}) seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace)
    );
    println!(
        "host: nproc {nproc}, cpu \"{}\", clock read {clock_ns:.1} ns",
        cpu_model()
    );
    let outcome = workloads::run(&args, clock_ns);
    let (list, zero_fill): (Vec<(String, &'static str)>, bool) = if args.trace {
        println!(
            "replayed (not spans): {}; obs.emit_s prices each counted emit at \
             obs.counter_add_ns.by_name",
            replay::REPLAYED.join(", ")
        );
        (per_layer(), true)
    } else {
        (
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect(),
            false,
        )
    };
    let metrics = canonical(&outcome.metrics, &list, zero_fill);
    metrics.print_table();
    println!(
        "{}",
        metrics.result_json(outcome.correct, outcome.attempted.max(1), outcome.failed)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload tcp_live --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "tcp_live");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(10));
        assert!(a.trace);
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 0").is_err());
        assert!(args("--workload tcp_live --seed 7 --seconds 10").is_err());
        assert!(args("--workload tcp_live --seed x --seconds 10 --trace 0").is_err());
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// and workloads this runner prints.
    #[test]
    fn benchmark_json_declares_what_the_runner_prints() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = |name: &str, unit: &str| {
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for &(name, unit) in END_TO_END {
            assert!(
                declared(name, unit),
                "end-to-end {name} ({unit}) undeclared"
            );
        }
        for (name, unit) in per_layer() {
            assert!(
                declared(&name, unit),
                "per-layer {name} ({unit}) undeclared"
            );
        }
        for &(w, _) in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        let entries = json.matches("\"unit\":").count();
        assert_eq!(entries, END_TO_END.len() + per_layer().len());
    }
}
