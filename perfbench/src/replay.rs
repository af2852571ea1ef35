//! Replayed calls into layers that have no run-time seam.
//!
//! The codec, the validation gate and robust buffer, wire framing, GEMM
//! and the metrics registry all run nested inside an actor or a model, so
//! the traced run cannot wrap them. Instead it times direct calls into
//! their public functions at the shapes the workloads use. Each figure is
//! the median over batches of the per-call time.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use spyker_core::agg::{validate_update, AggregationStrategy, RobustBuffer, ValidationConfig};
use spyker_core::codec::{self, FrameAccumulator};
use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_core::update_codec::{param_hash, CodecConfig, UpdateDecoder, UpdateEncoder};
use spyker_obs::Registry;
use spyker_tensor::Matrix;

use crate::report::{median, Metrics};

const BATCHES: usize = 11;

/// Median nanoseconds per call of `f`, over [`BATCHES`] batches of
/// `iters` calls after one warm-up batch.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters {
        f();
    }
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&mut per_call)
}

/// Cost of one `Instant::now()` read, the price of every span edge.
pub fn clock_read_ns() -> f64 {
    ns_per_call(200_000, || {
        black_box(Instant::now());
    })
}

/// A deterministic pseudo-random vector (xorshift; values in `[-1, 1)`).
fn vector(dim: usize, seed: u64) -> Vec<f32> {
    let mut x = seed | 1;
    (0..dim)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_vec(rows, cols, vector(rows * cols, seed))
}

/// GEMM at the softmax-regression (64 features × 10 classes, batch 10)
/// shapes `paper_mnist` trains: the forward `x·W`, the weight gradient
/// `xᵀ·dY`, and the input gradient `dY·Wᵀ`.
fn tensor(out: &mut Metrics) {
    let x = matrix(10, 64, 1);
    let w = matrix(64, 10, 2);
    let dy = matrix(10, 10, 3);
    let mut o = Matrix::zeros(10, 10);
    out.ns(
        "tensor.matmul_ns.nn_10x64x10",
        ns_per_call(20_000, || x.matmul_into(black_box(&w), &mut o)),
    );
    let mut o = Matrix::zeros(64, 10);
    out.ns(
        "tensor.matmul_ns.tn_64x10x10",
        ns_per_call(20_000, || x.matmul_tn_into(black_box(&dy), &mut o)),
    );
    let mut o = Matrix::zeros(10, 64);
    out.ns(
        "tensor.matmul_ns.nt_10x10x64",
        ns_per_call(20_000, || dy.matmul_nt_into(black_box(&w), &mut o)),
    );
}

/// The paper pipeline (delta → top-1% → q8) at the scale workload's dim 8
/// and the live workload's dim 8192. Encode keeps one encoder across calls
/// (its error-feedback residual evolves as in a client); decode replays
/// one payload.
fn update_codec(out: &mut Metrics) {
    for (dim, iters) in [(8usize, 50_000usize), (8192, 500)] {
        let reference = vector(dim, 11);
        let update: Vec<f32> = reference
            .iter()
            .zip(vector(dim, 12))
            .map(|(r, d)| r + 0.05 * d)
            .collect();
        let ref_hash = param_hash(&reference);
        let mut enc = UpdateEncoder::new(CodecConfig::paper_pipeline());
        let mut payload = Vec::new();
        let encode_ns = ns_per_call(iters, || {
            payload.clear();
            enc.encode(7, black_box(&update), &reference, ref_hash, &mut payload);
        });
        let mut dec = UpdateDecoder::new();
        let mut decoded = Vec::new();
        let decode_ns = ns_per_call(iters, || {
            dec.decode(black_box(&payload), Some(&reference), &mut decoded)
                .expect("replayed payload decodes");
        });
        out.ns(dim_name("core.codec.encode_ns", dim), encode_ns);
        out.ns(dim_name("core.codec.decode_ns", dim), decode_ns);
    }
}

/// The validation gate on one update plus a robust-buffer flush
/// (trimmed mean over a batch of 5), at the dims the workloads aggregate:
/// 8 (scale), 650 (the softmax model of paper_mnist) and 8192 (live).
fn agg(out: &mut Metrics) {
    let cfg = ValidationConfig::default();
    let strategy = AggregationStrategy::TrimmedMean {
        batch: 5,
        trim_ratio: 0.2,
    };
    for (dim, iters) in [(8usize, 20_000usize), (650, 2_000), (8192, 200)] {
        let current = ParamVec::from_vec(vector(dim, 21));
        let updates: Vec<ParamVec> = (0..5)
            .map(|k| ParamVec::from_vec(vector(dim, 30 + k)))
            .collect();
        let mut buf = RobustBuffer::from_strategy(strategy).expect("trimmed mean buffers");
        let mut flushed = ParamVec::zeros(dim);
        let per_batch = ns_per_call(iters, || {
            for u in &updates {
                validate_update(&cfg, &current, black_box(u), 10.0, 9.0)
                    .expect("replayed update is valid");
                let mut delta = buf.take_delta(dim);
                delta.as_mut_slice().copy_from_slice(u.as_slice());
                buf.push(delta, 1.0);
            }
            buf.flush_into(&mut flushed);
        });
        out.ns(dim_name("core.agg.validate_flush_ns", dim), per_batch / 5.0);
    }
}

/// Wire framing at the live workload's frame sizes: the encoded upload
/// (dim 8192, top-1% q8) and the dense ~32 KiB model download.
fn wire(out: &mut Metrics) {
    let dim = 8192;
    let reference = vector(dim, 41);
    let update: Vec<f32> = reference.iter().map(|r| r * 1.01).collect();
    let mut payload = Vec::new();
    UpdateEncoder::new(CodecConfig::paper_pipeline()).encode(
        3,
        &update,
        &reference,
        param_hash(&reference),
        &mut payload,
    );
    let kinds = [
        (
            "encoded_update",
            FlMsg::EncodedUpdate {
                payload,
                age: 12.5,
                num_samples: 8,
            },
        ),
        (
            "model_to_client",
            FlMsg::ModelToClient {
                params: ParamVec::from_vec(reference),
                age: 12.5,
                lr: 0.05,
            },
        ),
    ];
    for (kind, msg) in kinds {
        let mut framed = Vec::new();
        let frame_ns = ns_per_call(2_000, || {
            framed.clear();
            codec::frame_into(black_box(&msg), &mut framed);
        });
        let mut acc = FrameAccumulator::new(codec::MAX_FRAME_LEN);
        let decode_ns = ns_per_call(2_000, || {
            acc.feed(black_box(&framed));
            let frame = acc
                .next_frame()
                .expect("well-formed frame")
                .expect("complete frame");
            black_box(codec::decode(&Bytes::from(frame)).expect("frame decodes"));
        });
        out.ns(format!("core.wire.frame_ns.{kind}"), frame_ns);
        out.ns(format!("core.wire.decode_ns.{kind}"), decode_ns);
    }
}

/// One counter increment through the registry, by name (the string-keyed
/// path every `Env::add_counter` takes) and by a cached id.
pub fn counter_add_ns() -> (f64, f64) {
    let mut reg = Registry::new();
    let by_name = ns_per_call(200_000, || reg.counter_add(black_box("updates.sent"), 1));
    let id = reg.counter_id("updates.sent").expect("catalog counter");
    let by_id = ns_per_call(200_000, || reg.counter_add_id(black_box(id), 1));
    (by_name, by_id)
}

fn dim_name(prefix: &str, dim: usize) -> String {
    format!("{prefix}.{dim}")
}

/// Every replayed layer figure.
pub fn all(out: &mut Metrics) {
    tensor(out);
    update_codec(out);
    agg(out);
    wire(out);
    let (by_name, by_id) = counter_add_ns();
    out.ns("obs.counter_add_ns.by_name", by_name);
    out.ns("obs.counter_add_ns.by_id", by_id);
}

/// Names of the metrics [`all`] produces from replayed calls rather than
/// spans.
pub const REPLAYED: &[&str] = &[
    "tensor.matmul_ns.*",
    "core.codec.encode_ns.*",
    "core.codec.decode_ns.*",
    "core.agg.validate_flush_ns.*",
    "core.wire.frame_ns.*",
    "core.wire.decode_ns.*",
    "obs.counter_add_ns.*",
];
