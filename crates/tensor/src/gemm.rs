//! Cache-blocked, register-tiled GEMM — the compute core of the crate.
//!
//! All three matrix products the model zoo needs (`A·B`, `Aᵀ·B`, `A·Bᵀ`)
//! funnel into one kernel, `gemm_into`, parameterised by strided operand
//! views so no transpose is ever materialised. The kernel follows the
//! classic GotoBLAS/BLIS decomposition:
//!
//! * the output is swept in `NC`-wide column blocks and `KC`-deep panels;
//! * each `KC × NC` block of B is packed once into contiguous `NR`-wide
//!   micro-panels, each `MC × KC` block of A into `MR`-tall micro-panels;
//! * an `MR × NR` register-tile micro-kernel walks a packed A panel against
//!   a packed B panel with a branch-free, fully unrollable inner loop the
//!   compiler auto-vectorises.
//!
//! # Determinism
//!
//! For every output element, partial products are accumulated in a fixed
//! order: `KC`-panels in ascending `k`, ascending `k` inside each panel.
//! That order depends only on the problem shape — not on how many threads
//! run the kernel, because parallelism only splits the *rows* of the output
//! into bands and every row is computed start-to-finish by exactly one
//! task. Parallel results are therefore bit-identical to the serial kernel
//! at any thread count (enforced by `tests/gemm_props.rs`).
//!
//! Packing buffers are thread-local and grown once, so steady-state calls
//! perform no heap allocation on the serial path.

use std::cell::RefCell;

use crate::pool;

/// Rows of the register tile (micro-panel height of packed A).
pub const MR: usize = 8;
/// Columns of the register tile (micro-panel width of packed B).
pub const NR: usize = 32;
/// Rows of A packed per L2-resident block (multiple of `MR`).
const MC: usize = 64;
/// Depth of one packed panel pair.
const KC: usize = 128;
/// Columns of B packed per outer block (multiple of `NR`).
const NC: usize = 128;

/// Minimum multiply-add count before the row-band parallel driver engages;
/// below this the dispatch overhead outweighs the win (64³ stays serial,
/// 128³ parallelises).
const PAR_MIN_MULADDS: usize = 1 << 20;

/// A strided read-only operand view: element `(i, j)` lives at
/// `data[i * rs + j * cs]`. Plain row-major is `rs = cols, cs = 1`; a
/// transposed operand swaps the strides instead of moving data.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> View<'a> {
    /// Row-major `rows x cols` view.
    pub(crate) fn normal(data: &'a [f32], cols: usize) -> Self {
        Self {
            data,
            rs: cols,
            cs: 1,
        }
    }

    /// Transposed view of row-major data that is `rows x cols` in storage:
    /// logical element `(i, j)` reads `data[j][i]`.
    pub(crate) fn transposed(data: &'a [f32], cols: usize) -> Self {
        Self {
            data,
            rs: 1,
            cs: cols,
        }
    }

    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }
}

thread_local! {
    /// Per-thread packing scratch: (A panels, B panels). Sized for the
    /// largest block the loops can request, allocated on first use.
    static PACK: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// `out = A · B` over strided views; `out` is row-major `m x n` and is
/// fully overwritten. `threads` is the *requested* band count; the driver
/// may use fewer when the problem is small.
pub(crate) fn gemm_into(
    out: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    a: View<'_>,
    b: View<'_>,
    threads: usize,
) {
    assert_eq!(out.len(), m * n, "output buffer shape mismatch");
    out.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let threads = effective_bands(m, n, k, threads);
    if threads <= 1 {
        gemm_band(out, 0, m, n, k, a, b);
        return;
    }
    // Split rows into `threads` contiguous bands on MR boundaries. Band
    // geometry is a pure function of (m, threads); which OS thread runs
    // which band never affects the arithmetic.
    let rows_per = (m.div_ceil(threads)).div_ceil(MR) * MR;
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = out
        .chunks_mut(rows_per * n)
        .enumerate()
        .map(|(band_idx, band)| {
            let row0 = band_idx * rows_per;
            let band_rows = band.len() / n;
            Box::new(move || gemm_band(band, row0, band_rows, n, k, a, b))
                as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool::global().run_scoped(jobs);
}

/// How many row bands to actually use for an `m x n x k` problem.
fn effective_bands(m: usize, n: usize, k: usize, requested: usize) -> usize {
    if requested <= 1 || m < 2 * MR || m.saturating_mul(n).saturating_mul(k) < PAR_MIN_MULADDS {
        1
    } else {
        requested.min(m.div_ceil(MR))
    }
}

/// Computes rows `[row0, row0 + rows)` of the product into `band` (the
/// row-major slice for exactly those rows, already zeroed).
fn gemm_band(
    band: &mut [f32],
    row0: usize,
    rows: usize,
    n: usize,
    k: usize,
    a: View<'_>,
    b: View<'_>,
) {
    PACK.with(|pack| {
        let mut pack = pack.borrow_mut();
        let (apack, bpack) = &mut *pack;
        apack.resize(MC * KC, 0.0);
        bpack.resize(KC * NC, 0.0);
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack_b(bpack, b, pc, kc, jc, nc);
                for ic in (0..rows).step_by(MC) {
                    let mc = MC.min(rows - ic);
                    pack_a(apack, a, row0 + ic, mc, pc, kc);
                    block_kernel(band, ic, mc, jc, nc, n, kc, apack, bpack);
                }
            }
        }
    });
}

/// Packs the `mc x kc` block of A starting at `(row0, k0)` into `MR`-tall
/// micro-panels: panel `p` holds rows `p*MR..p*MR+MR`, stored k-major so
/// the micro-kernel streams it contiguously. Rows past `mc` are zero.
fn pack_a(apack: &mut [f32], a: View<'_>, row0: usize, mc: usize, k0: usize, kc: usize) {
    let panels = mc.div_ceil(MR);
    for p in 0..panels {
        let dst = &mut apack[p * kc * MR..(p + 1) * kc * MR];
        let live = MR.min(mc - p * MR);
        for kk in 0..kc {
            let at = &mut dst[kk * MR..kk * MR + MR];
            for (r, slot) in at.iter_mut().enumerate() {
                *slot = if r < live {
                    a.at(row0 + p * MR + r, k0 + kk)
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs the `kc x nc` block of B starting at `(k0, col0)` into `NR`-wide
/// micro-panels, k-major. Columns past `nc` are zero.
fn pack_b(bpack: &mut [f32], b: View<'_>, k0: usize, kc: usize, col0: usize, nc: usize) {
    let panels = nc.div_ceil(NR);
    for q in 0..panels {
        let dst = &mut bpack[q * kc * NR..(q + 1) * kc * NR];
        let live = NR.min(nc - q * NR);
        for kk in 0..kc {
            let at = &mut dst[kk * NR..kk * NR + NR];
            for (c, slot) in at.iter_mut().enumerate() {
                *slot = if c < live {
                    b.at(k0 + kk, col0 + q * NR + c)
                } else {
                    0.0
                };
            }
        }
    }
}

/// All micro-kernel invocations for one packed (A block, B block) pair.
#[allow(clippy::too_many_arguments)]
fn block_kernel(
    band: &mut [f32],
    ic: usize,
    mc: usize,
    jc: usize,
    nc: usize,
    ldc: usize,
    kc: usize,
    apack: &[f32],
    bpack: &[f32],
) {
    for q in 0..nc.div_ceil(NR) {
        let bp = &bpack[q * kc * NR..(q + 1) * kc * NR];
        let n_live = NR.min(nc - q * NR);
        for p in 0..mc.div_ceil(MR) {
            let ap = &apack[p * kc * MR..(p + 1) * kc * MR];
            let m_live = MR.min(mc - p * MR);
            let mut acc = [[0.0f32; NR]; MR];
            micro_kernel(kc, ap, bp, &mut acc);
            // Accumulate the live part of the register tile into C.
            for (r, acc_row) in acc.iter().enumerate().take(m_live) {
                let row = ic + p * MR + r;
                let dst = &mut band[row * ldc + jc + q * NR..][..n_live];
                for (d, &v) in dst.iter_mut().zip(acc_row) {
                    *d += v;
                }
            }
        }
    }
}

/// One register-tile row: `acc += ar * b`, element-wise over `NR` lanes.
///
/// Rust never contracts `a * b + c` into a fused multiply-add (there is no
/// `-ffast-math`), which caps a mul+add kernel at half the FMA ports'
/// throughput. `f32::mul_add` emits the fused instruction directly — but
/// only pays off when the target actually has FMA; without it, `mul_add`
/// lowers to a (correctly-rounded, ~100× slower) libm call, so the
/// portable build keeps the separate mul+add form. The two forms round
/// differently; determinism is guaranteed *per build*, which is all the
/// bit-exactness tests (serial vs parallel within one binary) require.
#[inline(always)]
fn fma_row(acc: &mut [f32; NR], ar: f32, b: &[f32; NR]) {
    if cfg!(target_feature = "fma") {
        for c in 0..NR {
            acc[c] = ar.mul_add(b[c], acc[c]);
        }
    } else {
        for c in 0..NR {
            acc[c] += ar * b[c];
        }
    }
}

/// The `MR x NR` register tile: `acc += Ap · Bp` over one packed panel
/// pair. Branch-free, and each accumulator row is an independent named
/// local: a 2D `acc[r][c]` indexed inside a loop over `r` defeats LLVM's
/// scalar replacement once the tile outgrows ~64 floats, spilling every
/// accumulator to the stack per iteration. Named rows keep the whole tile
/// in vector registers at any `NR`.
#[inline(always)]
fn micro_kernel(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    const { assert!(MR == 8, "micro_kernel hand-unrolls exactly MR = 8 rows") };
    let mut acc0 = [0.0f32; NR];
    let mut acc1 = [0.0f32; NR];
    let mut acc2 = [0.0f32; NR];
    let mut acc3 = [0.0f32; NR];
    let mut acc4 = [0.0f32; NR];
    let mut acc5 = [0.0f32; NR];
    let mut acc6 = [0.0f32; NR];
    let mut acc7 = [0.0f32; NR];
    // `chunks_exact` instead of manual slicing: the iterator proves the
    // chunk length to LLVM once, keeping bounds checks out of the loop.
    // Eight rows × one k-step per iteration gives 16 independent FMA
    // chains — enough to cover the FMA units' latency×throughput product
    // with slack, which a 4-row tile (8 chains) only just saturates.
    let a_chunks = ap[..kc * MR].chunks_exact(MR);
    let b_chunks = bp[..kc * NR].chunks_exact(NR);
    for (ak, bk) in a_chunks.zip(b_chunks) {
        let a: &[f32; MR] = ak.try_into().expect("MR chunk");
        let b: &[f32; NR] = bk.try_into().expect("NR chunk");
        fma_row(&mut acc0, a[0], b);
        fma_row(&mut acc1, a[1], b);
        fma_row(&mut acc2, a[2], b);
        fma_row(&mut acc3, a[3], b);
        fma_row(&mut acc4, a[4], b);
        fma_row(&mut acc5, a[5], b);
        fma_row(&mut acc6, a[6], b);
        fma_row(&mut acc7, a[7], b);
    }
    acc[0] = acc0;
    acc[1] = acc1;
    acc[2] = acc2;
    acc[3] = acc3;
    acc[4] = acc4;
    acc[5] = acc5;
    acc[6] = acc6;
    acc[7] = acc7;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(m: usize, n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        (0..m * n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1 << 24) as f32) - 0.5
            })
            .collect()
    }

    fn reference(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let aik = a[i * k + kk];
                for j in 0..n {
                    out[i * n + j] += aik * b[kk * n + j];
                }
            }
        }
        out
    }

    #[test]
    fn blocked_matches_reference_on_awkward_shapes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (1, 17, 5),
            (17, 1, 3),
            (5, 9, 1),
            (3, 8, 4),
            (13, 21, 34),
            (65, 33, 70),
            (4, 260, 2),
        ] {
            let a = dense(m, k, 1);
            let b = dense(k, n, 2);
            let mut out = vec![0.0f32; m * n];
            gemm_into(
                &mut out,
                m,
                n,
                k,
                View::normal(&a, k),
                View::normal(&b, n),
                1,
            );
            let want = reference(m, n, k, &a, &b);
            for (got, want) in out.iter().zip(&want) {
                assert!((got - want).abs() <= 1e-4, "{m}x{n}x{k}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn transposed_views_read_the_right_elements() {
        // A is stored 3x2; its transpose is the logical 2x3 operand.
        let a_store = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // rows (1,2),(3,4),(5,6)
        let b = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0]; // 3x2
        let mut out = vec![0.0f32; 4];
        gemm_into(
            &mut out,
            2,
            2,
            3,
            View::transposed(&a_store, 2),
            View::normal(&b, 2),
            1,
        );
        // Aᵀ = [[1,3,5],[2,4,6]]; Aᵀ·B = [[1+5, 3+5],[2+6, 4+6]]
        assert_eq!(out, vec![6.0, 8.0, 8.0, 10.0]);
    }

    #[test]
    fn zero_depth_product_is_all_zeros() {
        let a: [f32; 0] = [];
        let b: [f32; 0] = [];
        let mut out = vec![7.0f32; 6];
        gemm_into(
            &mut out,
            2,
            3,
            0,
            View::normal(&a, 0),
            View::normal(&b, 3),
            4,
        );
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn band_split_is_shape_only() {
        assert_eq!(effective_bands(4, 4, 4, 8), 1, "tiny stays serial");
        assert_eq!(effective_bands(128, 128, 128, 2), 2);
        assert_eq!(effective_bands(128, 128, 128, 999), 16, "capped by rows/MR");
    }
}
