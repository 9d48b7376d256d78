//! Minimal dense linear algebra, including the batched GEMM kernels behind
//! the training engine.
//!
//! The model in this reproduction is a multi-layer perceptron (logistic
//! regression being its zero-hidden-layer case). Training it one sample at a
//! time (matvec + rank-one update per sample) wastes both cache locality and
//! allocation: the hot path of every run is the mini-batch training step, so
//! this module provides the two **matrix–matrix kernels** that process a whole
//! `B × d` batch per layer — the only two any run calls:
//!
//! * [`gemm_nn`] — `C = A · B` with `B` in k-major (contraction-major)
//!   layout. This is the workhorse: the backward data pass (`δ_prev = δ · W`)
//!   uses it directly, and the forward pass uses it after a weight
//!   `transpose` (`Z = X · Wᵀ = X · transpose(W)`): a training step
//!   transposes each layer just before its GEMM, an evaluation every layer
//!   once per call. That is O(parameters) next to the GEMM's
//!   O(batch · parameters), but not cheap at the modal 16-row batch:
//!   12–17 % of a 64→64→64→10 SGD step.
//! * [`gemm_tn_acc`] — `C += α · Aᵀ · B`, the weight-gradient pass
//!   (`δᵀ · X`). At `α = −γ` it accumulates straight into the weights, which
//!   lets a whole SGD step run without materialising the gradient; at `α = 1`
//!   over a zero fill it is the plain product `∇W = δᵀ · X` the gradient
//!   oracle asks for (`1.0 * x` is exact, so no separate kernel is needed).
//!   `col_sums_acc` is its bias-gradient companion, likewise.
//!
//! ## Micro-kernel design
//!
//! `gemm_nn` / `gemm_tn_acc` share one micro-kernel family (`axpy4_into`
//! and its 2×/4×-row variants): a 4-row × 4-k register tile whose inner loop
//! is a run of element-wise `mul_add`s over `LANES`-wide `[f64; 8]` blocks.
//! Three ingredients matter, each worth an integer factor (measured on the
//! local training step, the repo benchmark's `fedml.local_step_us`):
//!
//! 1. **k-major traversal** — every access walks contiguous rows, so the
//!    inner loop is element-wise (no reduction) and auto-vectorises.
//! 2. **Fixed-size blocks + explicit `mul_add`** — Rust never contracts
//!    `a * b + c`; the `[f64; LANES]` blocks and fused form reach the FMA
//!    units and stay exactly rounded (bit-identical on every FMA target).
//! 3. **Register tiling** — each loaded `B` vector feeds 16 FMAs (4 rows ×
//!    4 k-steps), amortising the `C`-row traffic.
//!
//! Note: **thin LTO defeats the SLP vectorisation** of these kernels
//! (~4× slower local step); the workspace profile pins `lto = false`.
//! Relatedly, on Skylake-X-class AVX-512 hosts LLVM's tuning prefers
//! 256-bit vectors and halves the kernels' FMA width. The one supported
//! build accepts that: the LLVM feature that restores 512-bit ops is
//! unstable (every compile would warn), and vector width never changes
//! results — they are bit-identical at any width.
//!
//! All kernels write into caller-provided output slices so the training loop
//! can run with **zero steady-state heap allocations** (see
//! `fedml::workspace`). Keeping this in-tree (rather than pulling in a BLAS
//! wrapper) keeps the workspace dependency-free and the numerics fully
//! deterministic.
//!
//! The per-sample primitives (matvec and its transpose, rank-one update,
//! masking ReLU, softmax) live beside their only user, the per-sample
//! reference trainer in `tests/reference/` that validates the batched engine
//! (property tests, 1e-10).

use serde::{Deserialize, Serialize};

/// A dense, row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a zero-initialised matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix from an existing row-major buffer.
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// A borrowed, row-major `rows × cols` matrix: how a model lends out one
/// layer's weights, which live inside its flat parameter vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixView<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f64],
}

impl<'a> MatrixView<'a> {
    /// View `data` as a row-major `rows × cols` matrix.
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: &'a [f64]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }
}

/// In-place `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy dimension mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Squared L2 norm of a slice.
#[inline]
pub fn norm_sq(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum()
}

/// L2 norm of a slice.
#[inline]
pub fn norm(x: &[f64]) -> f64 {
    norm_sq(x).sqrt()
}

/// Count one GEMM call of volume `m·n·k` against `counter` (telemetry's
/// logical plane; a single load + branch when telemetry is off).
#[inline(always)]
fn tally_gemm(counter: &'static telemetry::metrics::Counter, m: usize, n: usize, k: usize) {
    if telemetry::enabled() {
        counter.add(1);
        telemetry::metrics::GEMM_MNK.record((m as u64) * (n as u64) * (k as u64));
    }
}

/// `C = A · B` where `a` is `m × k`, `b` is `k × n` and `c` is `m × n`, all
/// row-major. This is the workhorse kernel: the backward data pass
/// (`δ_prev = δ · W`) uses it directly, and the forward pass uses it after a
/// weight `transpose` (`Z = X · Wᵀ = X · transpose(W)`).
///
/// Each output row is accumulated from four `B` rows at a time
/// (`axpy4_into`), so the inner loop is a run of independent element-wise
/// FMAs over contiguous memory — exactly the shape the auto-vectoriser turns
/// into packed SIMD — and each `C` row is streamed once per four `k` steps
/// instead of once per step.
pub fn gemm_nn(a: &[f64], b: &[f64], c: &mut [f64], m: usize, n: usize, k: usize) {
    assert_eq!(a.len(), m * k, "gemm_nn: A must be {m}x{k}");
    assert_eq!(b.len(), k * n, "gemm_nn: B must be {k}x{n}");
    assert_eq!(c.len(), m * n, "gemm_nn: C must be {m}x{n}");
    tally_gemm(&telemetry::metrics::GEMM_NN, m, n, k);
    let k4 = k - (k % 4);
    let mut i = 0;
    // 4 output rows per pass share the four B rows in registers (a 4×4
    // register tile: 16 FMA vectors per 4 loaded B vectors).
    while i + 4 <= m {
        let y4 = &mut c[i * n..(i + 4) * n];
        y4.fill(0.0);
        let mut l = 0;
        while l < k4 {
            let alpha = [
                [
                    a[i * k + l],
                    a[i * k + l + 1],
                    a[i * k + l + 2],
                    a[i * k + l + 3],
                ],
                [
                    a[(i + 1) * k + l],
                    a[(i + 1) * k + l + 1],
                    a[(i + 1) * k + l + 2],
                    a[(i + 1) * k + l + 3],
                ],
                [
                    a[(i + 2) * k + l],
                    a[(i + 2) * k + l + 1],
                    a[(i + 2) * k + l + 2],
                    a[(i + 2) * k + l + 3],
                ],
                [
                    a[(i + 3) * k + l],
                    a[(i + 3) * k + l + 1],
                    a[(i + 3) * k + l + 2],
                    a[(i + 3) * k + l + 3],
                ],
            ];
            axpy4x4_into(alpha, &b[l * n..(l + 4) * n], y4, n);
            l += 4;
        }
        while l < k {
            let brow = &b[l * n..(l + 1) * n];
            for r in 0..4 {
                axpy(a[(i + r) * k + l], brow, &mut y4[r * n..(r + 1) * n]);
            }
            l += 1;
        }
        i += 4;
    }
    // 2 output rows per pass share the four B rows in registers.
    while i + 2 <= m {
        let (head, tail) = c.split_at_mut((i + 1) * n);
        let crow0 = &mut head[i * n..];
        let crow1 = &mut tail[..n];
        crow0.fill(0.0);
        crow1.fill(0.0);
        let arow0 = &a[i * k..(i + 1) * k];
        let arow1 = &a[(i + 1) * k..(i + 2) * k];
        let mut l = 0;
        while l < k4 {
            axpy4x2_into(
                [arow0[l], arow0[l + 1], arow0[l + 2], arow0[l + 3]],
                [arow1[l], arow1[l + 1], arow1[l + 2], arow1[l + 3]],
                &b[l * n..(l + 4) * n],
                crow0,
                crow1,
                n,
            );
            l += 4;
        }
        while l < k {
            let brow = &b[l * n..(l + 1) * n];
            axpy(arow0[l], brow, crow0);
            axpy(arow1[l], brow, crow1);
            l += 1;
        }
        i += 2;
    }
    if i < m {
        let crow = &mut c[i * n..(i + 1) * n];
        crow.fill(0.0);
        let arow = &a[i * k..(i + 1) * k];
        let mut l = 0;
        while l < k4 {
            axpy4_into(
                [arow[l], arow[l + 1], arow[l + 2], arow[l + 3]],
                &b[l * n..(l + 4) * n],
                crow,
                n,
            );
            l += 4;
        }
        while l < k {
            axpy(arow[l], &b[l * n..(l + 1) * n], crow);
            l += 1;
        }
    }
}

/// `y += alpha[0]·b₀ + alpha[1]·b₁ + alpha[2]·b₂ + alpha[3]·b₃` where `b4`
/// holds the four rows `b₀..b₃` contiguously (each of length `n`). The
/// four-term FMA per output element is what lets one pass over `y` retire
/// four GEMM `k`-steps.
#[inline]
fn axpy4_into(alpha: [f64; 4], b4: &[f64], y: &mut [f64], n: usize) {
    debug_assert_eq!(b4.len(), 4 * n);
    debug_assert_eq!(y.len(), n);
    let (b0, rest) = b4.split_at(n);
    let (b1, rest) = rest.split_at(n);
    let (b2, b3) = rest.split_at(n);
    let y = &mut y[..n];
    let [x0, x1, x2, x3] = alpha;
    // Fixed-width 8-lane blocks: the `[f64; LANES]` arrays give the SLP
    // vectoriser a statically-sized, provably non-aliasing unit it reliably
    // packs into 512/256-bit FMA ops (the plain `for j in 0..n` form stays
    // scalar). Explicit mul_add because Rust never contracts `a * b + c` on
    // its own; the fused form is exactly rounded, so results remain
    // bit-identical on every FMA-capable target.
    let blocks = n / LANES;
    for blk in 0..blocks {
        let o = blk * LANES;
        let y8: &mut [f64; LANES] = (&mut y[o..o + LANES]).try_into().unwrap();
        let v0: &[f64; LANES] = b0[o..o + LANES].try_into().unwrap();
        let v1: &[f64; LANES] = b1[o..o + LANES].try_into().unwrap();
        let v2: &[f64; LANES] = b2[o..o + LANES].try_into().unwrap();
        let v3: &[f64; LANES] = b3[o..o + LANES].try_into().unwrap();
        for t in 0..LANES {
            y8[t] = v0[t].mul_add(
                x0,
                v1[t].mul_add(x1, v2[t].mul_add(x2, v3[t].mul_add(x3, y8[t]))),
            );
        }
    }
    for j in blocks * LANES..n {
        y[j] = b0[j].mul_add(
            x0,
            b1[j].mul_add(x1, b2[j].mul_add(x2, b3[j].mul_add(x3, y[j]))),
        );
    }
}

/// SIMD block width of the GEMM micro-kernels (f64 lanes of one AVX-512
/// register; on narrower targets LLVM splits each block into several ops).
pub(crate) const LANES: usize = 8;

/// `C += alpha · Aᵀ · B` where `a` is `k × m`, `b` is `k × n` and `c` is
/// `m × n`, all row-major. This is the weight-gradient kernel (`δᵀ · X`):
/// rank-one accumulations over the `k` batch rows, four at a time so every
/// `C` row is streamed once per four batch samples. As the **fused
/// weight-update** (`W += (−γ) · δᵀ · X`) the scale factor folds into the
/// per-tile alpha scalars, so a training step updates the weights in place
/// without ever materialising the gradient matrix.
pub fn gemm_tn_acc(a: &[f64], b: &[f64], c: &mut [f64], m: usize, n: usize, k: usize, alpha: f64) {
    assert_eq!(a.len(), k * m, "gemm_tn_acc: A must be {k}x{m}");
    assert_eq!(b.len(), k * n, "gemm_tn_acc: B must be {k}x{n}");
    assert_eq!(c.len(), m * n, "gemm_tn_acc: C must be {m}x{n}");
    tally_gemm(&telemetry::metrics::GEMM_TN_ACC, m, n, k);
    let k4 = k - (k % 4);
    let mut l = 0;
    while l < k4 {
        let b4 = &b[l * n..(l + 4) * n];
        let (a0, a1, a2, a3) = (
            &a[l * m..(l + 1) * m],
            &a[(l + 1) * m..(l + 2) * m],
            &a[(l + 2) * m..(l + 3) * m],
            &a[(l + 3) * m..(l + 4) * m],
        );
        let mut i = 0;
        while i + 4 <= m {
            let tile = [
                [alpha * a0[i], alpha * a1[i], alpha * a2[i], alpha * a3[i]],
                [
                    alpha * a0[i + 1],
                    alpha * a1[i + 1],
                    alpha * a2[i + 1],
                    alpha * a3[i + 1],
                ],
                [
                    alpha * a0[i + 2],
                    alpha * a1[i + 2],
                    alpha * a2[i + 2],
                    alpha * a3[i + 2],
                ],
                [
                    alpha * a0[i + 3],
                    alpha * a1[i + 3],
                    alpha * a2[i + 3],
                    alpha * a3[i + 3],
                ],
            ];
            axpy4x4_into(tile, b4, &mut c[i * n..(i + 4) * n], n);
            i += 4;
        }
        while i + 2 <= m {
            let (head, tail) = c.split_at_mut((i + 1) * n);
            axpy4x2_into(
                [alpha * a0[i], alpha * a1[i], alpha * a2[i], alpha * a3[i]],
                [
                    alpha * a0[i + 1],
                    alpha * a1[i + 1],
                    alpha * a2[i + 1],
                    alpha * a3[i + 1],
                ],
                b4,
                &mut head[i * n..],
                &mut tail[..n],
                n,
            );
            i += 2;
        }
        if i < m {
            axpy4_into(
                [alpha * a0[i], alpha * a1[i], alpha * a2[i], alpha * a3[i]],
                b4,
                &mut c[i * n..(i + 1) * n],
                n,
            );
        }
        l += 4;
    }
    while l < k {
        let arow = &a[l * m..(l + 1) * m];
        let brow = &b[l * n..(l + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            let s = alpha * av;
            if s == 0.0 {
                continue;
            }
            axpy(s, brow, &mut c[i * n..(i + 1) * n]);
        }
        l += 1;
    }
}

/// `out += alpha ·` column sums of the `rows × n` row-major matrix `a`: the
/// bias-gradient reduction over a batch, as the fused bias update
/// (`b += (−γ) · Σ_s δ_s`).
pub(crate) fn col_sums_acc(a: &[f64], rows: usize, out: &mut [f64], alpha: f64) {
    let n = out.len();
    assert_eq!(a.len(), rows * n, "col_sums_acc dimension mismatch");
    for r in 0..rows {
        for (o, v) in out.iter_mut().zip(a[r * n..(r + 1) * n].iter()) {
            *o = v.mul_add(alpha, *o);
        }
    }
}

/// Four-output-row variant: `y4` holds four contiguous `C` rows, all
/// accumulating from the same four `B` rows — a 4×4 register tile (16 alpha
/// broadcasts + 4 `B` vectors + 1 accumulator live at a time, well under the
/// 32 AVX-512 registers). Each loaded `B` vector feeds 16 FMAs.
#[inline]
fn axpy4x4_into(alpha: [[f64; 4]; 4], b4: &[f64], y4: &mut [f64], n: usize) {
    debug_assert_eq!(b4.len(), 4 * n);
    debug_assert_eq!(y4.len(), 4 * n);
    let (b0, rest) = b4.split_at(n);
    let (b1, rest) = rest.split_at(n);
    let (b2, b3) = rest.split_at(n);
    let (y0, rest) = y4.split_at_mut(n);
    let (y1, rest) = rest.split_at_mut(n);
    let (y2, y3) = rest.split_at_mut(n);
    let blocks = n / LANES;
    for blk in 0..blocks {
        let o = blk * LANES;
        let v0: &[f64; LANES] = b0[o..o + LANES].try_into().unwrap();
        let v1: &[f64; LANES] = b1[o..o + LANES].try_into().unwrap();
        let v2: &[f64; LANES] = b2[o..o + LANES].try_into().unwrap();
        let v3: &[f64; LANES] = b3[o..o + LANES].try_into().unwrap();
        let y0b: &mut [f64; LANES] = (&mut y0[o..o + LANES]).try_into().unwrap();
        for t in 0..LANES {
            y0b[t] = v0[t].mul_add(
                alpha[0][0],
                v1[t].mul_add(
                    alpha[0][1],
                    v2[t].mul_add(alpha[0][2], v3[t].mul_add(alpha[0][3], y0b[t])),
                ),
            );
        }
        let y1b: &mut [f64; LANES] = (&mut y1[o..o + LANES]).try_into().unwrap();
        for t in 0..LANES {
            y1b[t] = v0[t].mul_add(
                alpha[1][0],
                v1[t].mul_add(
                    alpha[1][1],
                    v2[t].mul_add(alpha[1][2], v3[t].mul_add(alpha[1][3], y1b[t])),
                ),
            );
        }
        let y2b: &mut [f64; LANES] = (&mut y2[o..o + LANES]).try_into().unwrap();
        for t in 0..LANES {
            y2b[t] = v0[t].mul_add(
                alpha[2][0],
                v1[t].mul_add(
                    alpha[2][1],
                    v2[t].mul_add(alpha[2][2], v3[t].mul_add(alpha[2][3], y2b[t])),
                ),
            );
        }
        let y3b: &mut [f64; LANES] = (&mut y3[o..o + LANES]).try_into().unwrap();
        for t in 0..LANES {
            y3b[t] = v0[t].mul_add(
                alpha[3][0],
                v1[t].mul_add(
                    alpha[3][1],
                    v2[t].mul_add(alpha[3][2], v3[t].mul_add(alpha[3][3], y3b[t])),
                ),
            );
        }
    }
    for j in blocks * LANES..n {
        let (v0, v1, v2, v3) = (b0[j], b1[j], b2[j], b3[j]);
        y0[j] = v0.mul_add(
            alpha[0][0],
            v1.mul_add(
                alpha[0][1],
                v2.mul_add(alpha[0][2], v3.mul_add(alpha[0][3], y0[j])),
            ),
        );
        y1[j] = v0.mul_add(
            alpha[1][0],
            v1.mul_add(
                alpha[1][1],
                v2.mul_add(alpha[1][2], v3.mul_add(alpha[1][3], y1[j])),
            ),
        );
        y2[j] = v0.mul_add(
            alpha[2][0],
            v1.mul_add(
                alpha[2][1],
                v2.mul_add(alpha[2][2], v3.mul_add(alpha[2][3], y2[j])),
            ),
        );
        y3[j] = v0.mul_add(
            alpha[3][0],
            v1.mul_add(
                alpha[3][1],
                v2.mul_add(alpha[3][2], v3.mul_add(alpha[3][3], y3[j])),
            ),
        );
    }
}

/// Two-output-row variant of [`axpy4_into`]: both `y0` and `y1` accumulate
/// from the same four `B` rows, so each loaded `B` vector feeds eight FMAs —
/// the kernel's 2×4 register tile.
#[inline]
fn axpy4x2_into(
    alpha0: [f64; 4],
    alpha1: [f64; 4],
    b4: &[f64],
    y0: &mut [f64],
    y1: &mut [f64],
    n: usize,
) {
    debug_assert_eq!(b4.len(), 4 * n);
    debug_assert_eq!(y0.len(), n);
    debug_assert_eq!(y1.len(), n);
    let (b0, rest) = b4.split_at(n);
    let (b1, rest) = rest.split_at(n);
    let (b2, b3) = rest.split_at(n);
    let y0 = &mut y0[..n];
    let y1 = &mut y1[..n];
    let [p0, p1, p2, p3] = alpha0;
    let [q0, q1, q2, q3] = alpha1;
    let blocks = n / LANES;
    for blk in 0..blocks {
        let o = blk * LANES;
        let y0b: &mut [f64; LANES] = (&mut y0[o..o + LANES]).try_into().unwrap();
        let y1b: &mut [f64; LANES] = (&mut y1[o..o + LANES]).try_into().unwrap();
        let v0: &[f64; LANES] = b0[o..o + LANES].try_into().unwrap();
        let v1: &[f64; LANES] = b1[o..o + LANES].try_into().unwrap();
        let v2: &[f64; LANES] = b2[o..o + LANES].try_into().unwrap();
        let v3: &[f64; LANES] = b3[o..o + LANES].try_into().unwrap();
        for t in 0..LANES {
            y0b[t] = v0[t].mul_add(
                p0,
                v1[t].mul_add(p1, v2[t].mul_add(p2, v3[t].mul_add(p3, y0b[t]))),
            );
            y1b[t] = v0[t].mul_add(
                q0,
                v1[t].mul_add(q1, v2[t].mul_add(q2, v3[t].mul_add(q3, y1b[t]))),
            );
        }
    }
    for j in blocks * LANES..n {
        let (v0, v1, v2, v3) = (b0[j], b1[j], b2[j], b3[j]);
        y0[j] = v0.mul_add(p0, v1.mul_add(p1, v2.mul_add(p2, v3.mul_add(p3, y0[j]))));
        y1[j] = v0.mul_add(q0, v1.mul_add(q1, v2.mul_add(q2, v3.mul_add(q3, y1[j]))));
    }
}

/// Source rows per band of [`transpose`].
const TRANSPOSE_BAND: usize = 16;

/// Transpose the row-major `rows × cols` matrix `src` into `dst`
/// (`cols × rows`), so that a layer's `Z = X · Wᵀ` can run through the
/// vectorised [`gemm_nn`] kernel. A training step transposes each layer
/// once, just before that layer's forward GEMM; an evaluation transposes
/// every layer once per call. The three layers of a 64→64→64→10 `Mlp` take
/// 3.8–5.2 µs (the same loop in two builds) of a 31 µs 16-row SGD step
/// (12–17 %).
///
/// A plain row loop keeps a destination line per column in flight, and at
/// a power-of-two `rows` they crowd into a few L1 sets (3–8× slower per
/// element at 128×64 … 128×256 than at 64×64). So from `TRANSPOSE_BAND` rows
/// on, bands of that many source rows each give a destination row a run of
/// consecutive entries; below, the plain loop is faster. Same data move.
pub(crate) fn transpose(src: &[f64], dst: &mut [f64], rows: usize, cols: usize) {
    assert_eq!(
        src.len(),
        rows * cols,
        "transpose: src must be {rows}x{cols}"
    );
    assert_eq!(
        dst.len(),
        rows * cols,
        "transpose: dst must be {cols}x{rows}"
    );
    if rows < TRANSPOSE_BAND {
        for r in 0..rows {
            let srow = &src[r * cols..(r + 1) * cols];
            for (c, &v) in srow.iter().enumerate() {
                dst[c * rows + r] = v;
            }
        }
        return;
    }
    for r0 in (0..rows).step_by(TRANSPOSE_BAND) {
        let r1 = (r0 + TRANSPOSE_BAND).min(rows);
        for (c, drow) in dst.chunks_exact_mut(rows).enumerate() {
            for (r, v) in (r0..r1).zip(&mut drow[r0..r1]) {
                *v = src[r * cols + c];
            }
        }
    }
}

/// Add `bias` (length `n`) to every row of the `rows × n` row-major matrix
/// `z`. Used to apply a layer's bias to a whole batch of pre-activations.
pub(crate) fn add_row_bias(z: &mut [f64], bias: &[f64], rows: usize) {
    let n = bias.len();
    assert_eq!(z.len(), rows * n, "add_row_bias dimension mismatch");
    for r in 0..rows {
        for (zv, bv) in z[r * n..(r + 1) * n].iter_mut().zip(bias.iter()) {
            *zv += bv;
        }
    }
}

/// Element-wise ReLU over a whole batch, in place. The backward pass does not
/// need a separate mask: an entry is propagated iff its activation stayed
/// positive, which [`relu_backward_batch`] reads off the activations.
pub(crate) fn relu_batch_in_place(z: &mut [f64]) {
    for v in z.iter_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Zero every entry of `delta` whose corresponding post-ReLU `activation` is
/// not positive (the batched backward ReLU).
pub(crate) fn relu_backward_batch(delta: &mut [f64], activations: &[f64]) {
    assert_eq!(
        delta.len(),
        activations.len(),
        "relu_backward_batch dimension mismatch"
    );
    for (d, &a) in delta.iter_mut().zip(activations.iter()) {
        if a <= 0.0 {
            *d = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_adds_the_scaled_input() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![1.0, 1.0, 1.0];
        axpy(0.5, &x, &mut y);
        assert_eq!(y, vec![1.5, 2.0, 2.5]);
    }

    fn pseudo_random_buf(len: usize, salt: u64) -> Vec<f64> {
        // Deterministic "random" fill without dragging the rng module in.
        (0..len)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
                ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect()
    }

    #[test]
    fn transpose_roundtrips_and_matches_layout() {
        let (rows, cols) = (3, 5);
        let src = pseudo_random_buf(rows * cols, 11);
        let mut dst = vec![0.0; rows * cols];
        transpose(&src, &mut dst, rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(dst[c * rows + r], src[r * cols + c]);
            }
        }
        let mut back = vec![0.0; rows * cols];
        transpose(&dst, &mut back, cols, rows);
        assert_eq!(back, src);
    }

    /// The banded loop against the plain one, bit for bit, on ragged and
    /// power-of-two shapes on both sides of the band height.
    #[test]
    fn transpose_equals_the_plain_loop_on_every_shape() {
        for (rows, cols) in [
            (1, 7),
            (10, 64),
            (15, 16),
            (16, 1),
            (17, 33),
            (3, 0),
            (64, 64),
        ]
        .into_iter()
        .chain([(100, 64), (128, 64), (64, 128), (160, 96), (256, 128)])
        {
            let src = pseudo_random_buf(rows * cols, (rows * cols) as u64);
            let mut dst = vec![f64::NAN; rows * cols];
            transpose(&src, &mut dst, rows, cols);
            let mut plain = vec![0.0; rows * cols];
            for r in 0..rows {
                for c in 0..cols {
                    plain[c * rows + r] = src[r * cols + c];
                }
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&dst), bits(&plain), "{rows}x{cols}");
        }
    }

    /// The forward pass's route to `Z = X · Wᵀ` (the "NT" product, which has
    /// no kernel of its own): transpose `W` once, then `gemm_nn`.
    #[test]
    fn gemm_nn_after_transpose_matches_gemm_nt() {
        let (m, n, k) = (9, 6, 14);
        let a = pseudo_random_buf(m * k, 12);
        let b_nk = pseudo_random_buf(n * k, 13);
        let mut bt = vec![0.0; n * k];
        transpose(&b_nk, &mut bt, n, k);
        let mut via_nn = vec![f64::NAN; m * n];
        gemm_nn(&a, &bt, &mut via_nn, m, n, k);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for l in 0..k {
                    s += a[i * k + l] * b_nk[j * k + l];
                }
                assert!((via_nn[i * n + j] - s).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gemm_nn_matches_naive() {
        let (m, n, k) = (6, 5, 7);
        let a = pseudo_random_buf(m * k, 3);
        let b = pseudo_random_buf(k * n, 4);
        let mut c = vec![f64::NAN; m * n];
        gemm_nn(&a, &b, &mut c, m, n, k);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for l in 0..k {
                    s += a[i * k + l] * b[l * n + j];
                }
                assert!((c[i * n + j] - s).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gemm_tn_matches_naive() {
        let (m, n, k) = (4, 6, 9);
        let a = pseudo_random_buf(k * m, 5);
        let b = pseudo_random_buf(k * n, 6);
        // The plain product, as the gradient oracle asks for it: the
        // accumulating kernel at α = 1 over a zero fill.
        let mut c = vec![0.0; m * n];
        gemm_tn_acc(&a, &b, &mut c, m, n, k, 1.0);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for l in 0..k {
                    s += a[l * m + i] * b[l * n + j];
                }
                assert!((c[i * n + j] - s).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gemm_tn_acc_matches_scaled_gemm_tn() {
        let (m, n, k) = (7, 6, 11);
        let a = pseudo_random_buf(k * m, 21);
        let b = pseudo_random_buf(k * n, 22);
        let mut base = pseudo_random_buf(m * n, 23);
        let mut fused = base.clone();
        let mut g = vec![0.0; m * n];
        gemm_tn_acc(&a, &b, &mut g, m, n, k, 1.0);
        for (c, gv) in base.iter_mut().zip(g.iter()) {
            *c += -0.3 * gv;
        }
        gemm_tn_acc(&a, &b, &mut fused, m, n, k, -0.3);
        for (x, y) in fused.iter().zip(base.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn col_sums_acc_matches_scaled_col_sums() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let mut out = vec![10.0, 20.0];
        col_sums_acc(&a, 2, &mut out, 0.5);
        assert_eq!(out, vec![10.0 + 0.5 * 4.0, 20.0 + 0.5 * 6.0]);
    }

    #[test]
    fn batched_helpers_behave() {
        let mut z = vec![1.0, -2.0, 3.0, -4.0];
        relu_batch_in_place(&mut z);
        assert_eq!(z, vec![1.0, 0.0, 3.0, 0.0]);

        let mut delta = vec![5.0, 5.0, 5.0, 5.0];
        relu_backward_batch(&mut delta, &z);
        assert_eq!(delta, vec![5.0, 0.0, 5.0, 0.0]);

        let mut m = vec![0.0; 4];
        add_row_bias(&mut m, &[1.0, 2.0], 2);
        assert_eq!(m, vec![1.0, 2.0, 1.0, 2.0]);

        let mut sums = vec![0.0; 2];
        col_sums_acc(&[1.0, 2.0, 3.0, 4.0], 2, &mut sums, 1.0);
        assert_eq!(sums, vec![4.0, 6.0]);
    }
}
