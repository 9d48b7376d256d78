//! Differentiable classification models (batched engine).
//!
//! The paper trains three architectures (logistic regression, plain CNNs and
//! VGG-16). The mechanisms under study never look inside the architecture —
//! they only exchange the flattened parameter vector — so this module provides
//! one pure-Rust model family that reproduces the relevant training dynamics:
//! [`Mlp`], a fully-connected ReLU network of arbitrary depth with a softmax
//! cross-entropy head and optional L2 regularisation.
//!
//! * The paper's "LR" on MNIST is itself a 2×512-unit MLP; the CNN and VGG-16
//!   workloads are represented by deeper/wider MLP surrogates (constructors
//!   [`Mlp::paper_lr`], [`Mlp::cnn_mnist_surrogate`],
//!   [`Mlp::cnn_cifar_surrogate`], [`Mlp::vgg16_surrogate`]).
//! * With no hidden layer the network *is* multinomial logistic regression
//!   ([`Mlp::logistic_regression`]). Its loss is smooth and (with `l2 > 0`)
//!   strongly convex, i.e. it satisfies Assumptions 1–2 of the paper exactly,
//!   which makes it the right model for validating Theorem 1 numerically.
//!
//! # Batched execution
//!
//! A mini-batch is one `B × d` matrix per layer: the forward pass is a
//! [`gemm_nn`] over the once-transposed weights (`Z = X · Wᵀ`), the backward
//! data pass another (`δ_prev = δ · W`), and the weight gradient a
//! [`gemm_tn_acc`] (`δᵀ · X`, accumulated at `−γ` straight into the weights by
//! the training step) — instead of the per-sample matvec + rank-one-update
//! loop the first version of this crate used (kept as the reference
//! implementation in `tests/reference/`). The layer-forward walk and the
//! backward walk are each written once: training and evaluation share the
//! first, the fused SGD step ([`Model::sgd_batch_ws`]) and the gradient
//! oracle ([`Model::loss_and_gradient_ws`]) the second. All scratch memory
//! comes from a caller-provided [`Workspace`], so the steady-state training
//! loop ([`crate::optimizer::local_update_ws`]) performs **zero heap
//! allocations**.

use crate::dataset::Dataset;
use crate::linalg::{
    add_row_bias, axpy, col_sums_acc, gemm_nn, gemm_tn_acc, relu_backward_batch,
    relu_batch_in_place, transpose, Matrix,
};
use crate::loss::{eval_logits_batch, softmax_cross_entropy_batch};
use crate::params::FlatParams;
use crate::rng::Rng64;
use crate::workspace::Workspace;
use std::ops::Deref;

/// Number of evaluation rows processed per GEMM in [`Model::evaluate_ws`].
/// Large enough to amortise the kernel, small enough that the logits buffer
/// of the 100-class workload stays comfortably in L2.
const EVAL_CHUNK: usize = 256;

/// Loss and accuracy of one model over one dataset, computed in a single
/// batched forward pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalStats {
    /// Mean loss over the dataset (including any regularisation term).
    pub loss: f64,
    /// Fraction of samples whose argmax prediction matches the label.
    pub accuracy: f64,
}

/// A differentiable multi-class classifier whose parameters can be flattened
/// into a [`FlatParams`] vector for over-the-air transmission.
///
/// `Send + Sync` is part of the contract: mechanism engines hand shared
/// references to the system (which holds a boxed template model) across the
/// persistent worker pool while each training lane mutates only its own model
/// instance.
pub trait Model: Send + Sync {
    /// Total number of scalar parameters `q` (the transmitted dimension).
    fn num_params(&self) -> usize;

    /// Write the current parameters into a pre-sized flat vector. Panics on
    /// dimension mismatch. This is the zero-alloc counterpart of
    /// [`Model::params`].
    fn params_into(&self, out: &mut FlatParams);

    /// Overwrite the parameters from a flat vector. Panics on dimension
    /// mismatch.
    fn set_params(&mut self, params: &FlatParams);

    /// Average loss and average gradient over the given sample indices of
    /// `data`, written into `grad` (which must already have dimension
    /// [`Model::num_params`]). All scratch memory is drawn from `ws`;
    /// steady-state calls allocate nothing. Panics if `indices` is empty.
    fn loss_and_gradient_ws(
        &self,
        data: &Dataset,
        indices: &[usize],
        ws: &mut Workspace,
        grad: &mut FlatParams,
    ) -> f64;

    /// One fused mini-batch SGD step `w ← w − γ · ∇f(w)`: the forward pass,
    /// the backward pass and the parameter update in a single pass that
    /// accumulates `−γ · δᵀ · X` directly into the weights ([`gemm_tn_acc`]),
    /// never touching a gradient buffer. Returns the batch loss at the
    /// parameters the step started from. Panics if `indices` is empty.
    fn sgd_batch_ws(
        &mut self,
        data: &Dataset,
        indices: &[usize],
        learning_rate: f64,
        ws: &mut Workspace,
    ) -> f64;

    /// Mean loss and accuracy over an entire dataset in one batched forward
    /// pass over the dataset's contiguous feature matrix (no per-sample
    /// gather, no gradient work). Both are 0 for an empty dataset.
    fn evaluate_ws(&self, data: &Dataset, ws: &mut Workspace) -> EvalStats;

    /// Clone into a boxed trait object (mechanisms keep one model instance
    /// per training lane).
    fn clone_model(&self) -> Box<dyn Model>;

    /// Flatten the current parameters (provided method; allocates).
    fn params(&self) -> FlatParams {
        let mut out = FlatParams::zeros(self.num_params());
        self.params_into(&mut out);
        out
    }

    /// Average loss and average gradient over the given sample indices
    /// (provided method; allocates a fresh workspace and gradient).
    fn loss_and_gradient(&self, data: &Dataset, indices: &[usize]) -> (f64, FlatParams) {
        let mut ws = Workspace::new();
        let mut grad = FlatParams::zeros(self.num_params());
        let loss = self.loss_and_gradient_ws(data, indices, &mut ws, &mut grad);
        (loss, grad)
    }
}

impl Clone for Box<dyn Model> {
    fn clone(&self) -> Self {
        self.clone_model()
    }
}

/// One dense layer of an [`Mlp`].
#[derive(Debug, Clone)]
struct DenseLayer {
    weights: Matrix, // out x in
    bias: Vec<f64>,
}

impl DenseLayer {
    /// He initialisation, appropriate for ReLU activations.
    fn he(input: usize, output: usize, rng: &mut Rng64) -> Self {
        let std = (2.0 / input as f64).sqrt();
        Self {
            weights: Matrix::from_fn(output, input, |_, _| rng.gaussian_with(0.0, std)),
            bias: vec![0.0; output],
        }
    }

    fn num_params(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    fn in_width(&self) -> usize {
        self.weights.cols()
    }

    fn out_width(&self) -> usize {
        self.weights.rows()
    }
}

/// A fully-connected ReLU network with a softmax cross-entropy head and an
/// optional L2 (ridge) term `½ · l2 · Σ_l ‖W_l‖²` on the weight matrices (not
/// the biases).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
    l2: f64,
}

impl Mlp {
    /// Create a He-initialised MLP with the given hidden-layer widths and no
    /// regularisation. `hidden` may be empty, in which case the model is
    /// multinomial logistic regression from a random start.
    pub fn new(num_features: usize, hidden: &[usize], num_classes: usize, rng: &mut Rng64) -> Self {
        assert!(
            num_features > 0 && num_classes > 1,
            "degenerate model shape"
        );
        let mut sizes = Vec::with_capacity(hidden.len() + 2);
        sizes.push(num_features);
        sizes.extend_from_slice(hidden);
        sizes.push(num_classes);
        let layers = sizes
            .windows(2)
            .map(|w| DenseLayer::he(w[0], w[1], rng))
            .collect();
        Self { layers, l2: 0.0 }
    }

    /// Multinomial logistic regression: no hidden layer, zero-initialised
    /// (the global optimum basin for convex losses, and the paper's `w_0`).
    /// Draws nothing from any RNG, so building one leaves the caller's seed
    /// stream where it was. With [`Mlp::with_l2`] `> 0` the loss is
    /// `l2`-strongly convex and `(L_max + l2)`-smooth, satisfying
    /// Assumptions 1–2 of the paper, so Theorem 1 applies exactly.
    pub fn logistic_regression(num_features: usize, num_classes: usize) -> Self {
        let layer = DenseLayer {
            weights: Matrix::zeros(num_classes, num_features),
            bias: vec![0.0; num_classes],
        };
        Self {
            layers: vec![layer],
            l2: 0.0,
        }
    }

    /// Set the L2 regularisation strength (builder-style).
    pub fn with_l2(mut self, l2: f64) -> Self {
        assert!(l2 >= 0.0, "l2 must be non-negative");
        self.l2 = l2;
        self
    }

    /// The paper's "LR" workload for MNIST: a fully-connected network with
    /// two hidden layers (scaled down from 512 to keep the simulation
    /// laptop-sized; the width is configurable through [`Mlp::new`]).
    pub fn paper_lr(num_features: usize, num_classes: usize, rng: &mut Rng64) -> Self {
        Self::new(num_features, &[64, 64], num_classes, rng)
    }

    /// Surrogate for the paper's MNIST CNN (two conv + two dense layers).
    pub fn cnn_mnist_surrogate(num_features: usize, num_classes: usize, rng: &mut Rng64) -> Self {
        Self::new(num_features, &[128, 64], num_classes, rng)
    }

    /// Surrogate for the paper's CIFAR-10 CNN.
    pub fn cnn_cifar_surrogate(num_features: usize, num_classes: usize, rng: &mut Rng64) -> Self {
        Self::new(num_features, &[160, 96], num_classes, rng)
    }

    /// Surrogate for VGG-16 on ImageNet-100: the deepest and widest MLP.
    pub fn vgg16_surrogate(num_features: usize, num_classes: usize, rng: &mut Rng64) -> Self {
        Self::new(num_features, &[256, 128, 64], num_classes, rng)
    }

    /// Number of layers (hidden + output).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The L2 regularisation strength.
    pub fn l2(&self) -> f64 {
        self.l2
    }

    /// The `out × in` weight matrix of layer `l` (read-only; used by the
    /// per-sample reference implementation in `tests/reference/`).
    pub fn layer_weights(&self, l: usize) -> &Matrix {
        &self.layers[l].weights
    }

    /// The bias vector of layer `l` (read-only).
    pub fn layer_bias(&self, l: usize) -> &[f64] {
        &self.layers[l].bias
    }

    /// Widest activation any batch row produces (sizes the ping-pong buffers
    /// of the backward walk and of evaluation).
    fn max_width(layers: &[DenseLayer]) -> usize {
        layers
            .iter()
            .map(|l| l.out_width())
            .max()
            .expect("an Mlp always has at least one layer")
    }

    /// The regularisation term of the loss, `½ · l2 · Σ_l ‖W_l‖²`. Without
    /// regularisation it is 0 and costs no O(q) pass.
    fn l2_penalty(layers: &[DenseLayer], l2: f64) -> f64 {
        if l2 > 0.0 {
            0.5 * l2 * layers.iter().map(|l| l.weights.frobenius_sq()).sum::<f64>()
        } else {
            0.0
        }
    }

    /// Transpose every layer's weights into one workspace buffer (O(q)) so
    /// the forward GEMMs run through the vectorised k-major kernel. Layer
    /// `l`'s block starts at the running sum of the preceding
    /// `in_width · out_width` lengths — the same walk [`Mlp::forward`] does.
    fn transpose_weights(layers: &[DenseLayer], ws: &mut Workspace) -> Vec<f64> {
        let wlen_total: usize = layers.iter().map(|l| l.in_width() * l.out_width()).sum();
        let mut wts = ws.take(wlen_total);
        let mut off = 0;
        for layer in layers {
            let len = layer.in_width() * layer.out_width();
            transpose(
                layer.weights.as_slice(),
                &mut wts[off..off + len],
                layer.out_width(),
                layer.in_width(),
            );
            off += len;
        }
        wts
    }

    /// The layer-forward walk: `rows` samples, read in place from `x`,
    /// through every layer, one GEMM per layer over the transposed weights
    /// `wts` ([`Mlp::transpose_weights`]). Layer `l` leaves its
    /// `rows × out_width` output (post-ReLU for a hidden layer, the logits
    /// for the last) at `acts[starts[l]..]` and reads layer `l − 1`'s from
    /// where that left it, so the caller picks the storage: consecutive
    /// segments keep every activation for a backward walk, two alternating
    /// ones ping-pong an evaluation chunk.
    fn forward(
        layers: &[DenseLayer],
        wts: &[f64],
        x: &[f64],
        rows: usize,
        acts: &mut [f64],
        starts: &[usize],
    ) {
        let mut woff = 0;
        for (l, layer) in layers.iter().enumerate() {
            let (in_w, out_w) = (layer.in_width(), layer.out_width());
            let (input, out) = if l == 0 {
                (x, &mut acts[starts[0]..starts[0] + rows * out_w])
            } else {
                // Two disjoint regions of `acts`, in either order.
                let (read, write) = (starts[l - 1], starts[l]);
                if read < write {
                    let (head, tail) = acts.split_at_mut(write);
                    (&head[read..read + rows * in_w], &mut tail[..rows * out_w])
                } else {
                    let (head, tail) = acts.split_at_mut(read);
                    (&tail[..rows * in_w], &mut head[write..write + rows * out_w])
                }
            };
            gemm_nn(
                input,
                &wts[woff..woff + in_w * out_w],
                out,
                rows,
                out_w,
                in_w,
            );
            woff += in_w * out_w;
            add_row_bias(out, &layer.bias, rows);
            if l + 1 < layers.len() {
                relu_batch_in_place(out);
            }
        }
    }

    /// The training pass over one mini-batch, shared by the gradient oracle
    /// and the fused SGD step: gather, [`Mlp::forward`] keeping every
    /// activation, the softmax cross-entropy head, then the backward walk.
    ///
    /// Per layer, last to first, the walk sends `δ` through the layer's
    /// weights *as they were on entry* (`δ_prev = δ · W`, masked by the
    /// previous layer's ReLU) and only then calls `land(layers, l, δ, input)`,
    /// which puts the layer's `δᵀ · input` and `Σ δ` wherever its caller
    /// wants them — a gradient block, or the layer's own parameters. The two
    /// callers differ in nothing else; `L` is `&[DenseLayer]` for the one
    /// that only reads the model and `&mut [DenseLayer]` for the one that
    /// steps it, handed back to `land` between the walk's own reads.
    ///
    /// Returns the mean batch loss, [`Mlp::l2_penalty`] of the entry weights
    /// included. Every buffer comes from `ws` and is back in it on return.
    fn batch_pass<L: Deref<Target = [DenseLayer]>>(
        mut layers: L,
        l2: f64,
        data: &Dataset,
        indices: &[usize],
        ws: &mut Workspace,
        mut land: impl FnMut(&mut L, usize, &[f64], &[f64]),
    ) -> f64 {
        assert!(!indices.is_empty(), "gradient over an empty batch");
        let d = layers[0].in_width();
        assert_eq!(data.num_features(), d, "dataset feature dimension mismatch");
        let bsz = indices.len();
        let inv_n = 1.0 / bsz as f64;
        let depth = layers.len();
        let k = layers[depth - 1].out_width();

        let mut x = ws.take(bsz * d);
        let mut labels = ws.take_indices(bsz);
        for (row, &i) in indices.iter().enumerate() {
            x[row * d..(row + 1) * d].copy_from_slice(data.sample(i));
            labels.push(data.label(i));
        }
        let mut starts = ws.take_indices(depth);
        let mut total = 0;
        for layer in layers.iter() {
            starts.push(total);
            total += bsz * layer.out_width();
        }
        let mut acts = ws.take(total);
        let wts = Self::transpose_weights(&layers, ws);
        Self::forward(&layers, &wts, &x, bsz, &mut acts, &starts);

        // Head: logits → δ = (softmax − onehot) / B, in place.
        let logits = &mut acts[starts[depth - 1]..];
        let loss_sum = softmax_cross_entropy_batch(logits, &labels, k, inv_n);
        let loss = loss_sum * inv_n + Self::l2_penalty(&layers, l2);

        // Backward walk with two ping-pong delta buffers.
        let maxw = Self::max_width(&layers);
        let mut cur = ws.take(bsz * maxw);
        let mut nxt = ws.take(bsz * maxw);
        cur[..bsz * k].copy_from_slice(&acts[starts[depth - 1]..]);
        for l in (0..depth).rev() {
            let (in_w, out_w) = (layers[l].in_width(), layers[l].out_width());
            let input = if l == 0 {
                &x[..]
            } else {
                &acts[starts[l - 1]..starts[l]]
            };
            let delta = &cur[..bsz * out_w];
            if l > 0 {
                gemm_nn(
                    delta,
                    layers[l].weights.as_slice(),
                    &mut nxt[..bsz * in_w],
                    bsz,
                    in_w,
                    out_w,
                );
                relu_backward_batch(&mut nxt[..bsz * in_w], input);
            }
            land(&mut layers, l, delta, input);
            if l > 0 {
                std::mem::swap(&mut cur, &mut nxt);
            }
        }

        ws.give(x);
        ws.give(acts);
        ws.give(wts);
        ws.give(cur);
        ws.give(nxt);
        ws.give_indices(labels);
        ws.give_indices(starts);
        loss
    }
}

impl Model for Mlp {
    fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum()
    }

    fn params_into(&self, out: &mut FlatParams) {
        assert_eq!(out.dim(), self.num_params(), "parameter size mismatch");
        let mut offset = 0;
        for l in &self.layers {
            let wlen = l.weights.rows() * l.weights.cols();
            out.0[offset..offset + wlen].copy_from_slice(l.weights.as_slice());
            offset += wlen;
            out.0[offset..offset + l.bias.len()].copy_from_slice(&l.bias);
            offset += l.bias.len();
        }
        debug_assert_eq!(offset, out.dim());
    }

    fn set_params(&mut self, params: &FlatParams) {
        assert_eq!(params.dim(), self.num_params(), "parameter size mismatch");
        let mut offset = 0;
        for l in &mut self.layers {
            let wlen = l.weights.rows() * l.weights.cols();
            l.weights
                .as_mut_slice()
                .copy_from_slice(&params.0[offset..offset + wlen]);
            offset += wlen;
            let blen = l.bias.len();
            l.bias.copy_from_slice(&params.0[offset..offset + blen]);
            offset += blen;
        }
        debug_assert_eq!(offset, params.dim());
    }

    fn loss_and_gradient_ws(
        &self,
        data: &Dataset,
        indices: &[usize],
        ws: &mut Workspace,
        grad: &mut FlatParams,
    ) -> f64 {
        assert_eq!(grad.dim(), self.num_params(), "gradient size mismatch");
        let (l2, bsz) = (self.l2, indices.len());
        let land = |layers: &mut &[DenseLayer], l: usize, delta: &[f64], input: &[f64]| {
            // ∇W = δᵀ · X + l2 · W and ∇b = Σ δ into the layer's block of
            // the flat gradient: the accumulating kernels at α = 1 over a
            // zero fill (`1.0 * x` is exact, so this is the plain product).
            let layer = &layers[l];
            let offset: usize = layers[..l].iter().map(|x| x.num_params()).sum();
            let block = &mut grad.0[offset..offset + layer.num_params()];
            block.fill(0.0);
            let (gw, gb) = block.split_at_mut(layer.out_width() * layer.in_width());
            gemm_tn_acc(
                delta,
                input,
                gw,
                layer.out_width(),
                layer.in_width(),
                bsz,
                1.0,
            );
            col_sums_acc(delta, bsz, gb, 1.0);
            if l2 > 0.0 {
                axpy(l2, layer.weights.as_slice(), gw);
            }
        };
        Self::batch_pass(&self.layers[..], l2, data, indices, ws, land)
    }

    fn sgd_batch_ws(
        &mut self,
        data: &Dataset,
        indices: &[usize],
        learning_rate: f64,
        ws: &mut Workspace,
    ) -> f64 {
        let (l2, bsz) = (self.l2, indices.len());
        let land = |layers: &mut &mut [DenseLayer], l: usize, delta: &[f64], input: &[f64]| {
            let layer = &mut layers[l];
            let (in_w, out_w) = (layer.in_width(), layer.out_width());
            // The −γ · l2 · W part of the step, applied to the old weights.
            if l2 > 0.0 {
                layer.weights.scale(1.0 - learning_rate * l2);
            }
            // Fused update: W += −γ · δᵀ · X, b += −γ · Σ δ.
            gemm_tn_acc(
                delta,
                input,
                layer.weights.as_mut_slice(),
                out_w,
                in_w,
                bsz,
                -learning_rate,
            );
            col_sums_acc(delta, bsz, &mut layer.bias, -learning_rate);
        };
        Self::batch_pass(&mut self.layers[..], l2, data, indices, ws, land)
    }

    fn evaluate_ws(&self, data: &Dataset, ws: &mut Workspace) -> EvalStats {
        if data.is_empty() {
            return EvalStats {
                loss: 0.0,
                accuracy: 0.0,
            };
        }
        let d = self.layers[0].in_width();
        assert_eq!(data.num_features(), d, "dataset feature dimension mismatch");
        let n = data.len();
        let depth = self.layers.len();
        let k = self.layers[depth - 1].out_width();
        // Two alternating segments: layer `l` overwrites layer `l − 2`'s
        // output, which nothing reads any more.
        let half = EVAL_CHUNK.min(n) * Self::max_width(&self.layers);
        let mut starts = ws.take_indices(depth);
        starts.extend((0..depth).map(|l| (l % 2) * half));
        let mut acts = ws.take(2 * half);
        // Transpose every layer's weights once for the whole evaluation.
        let wts = Self::transpose_weights(&self.layers, ws);
        // Every chunk reads the dataset's feature matrix in place.
        let features = data.features();
        let mut loss_sum = 0.0;
        let mut correct = 0usize;
        let mut r0 = 0;
        while r0 < n {
            let rows = (n - r0).min(EVAL_CHUNK);
            let x = &features[r0 * d..(r0 + rows) * d];
            Self::forward(&self.layers, &wts, x, rows, &mut acts, &starts);
            let logits = &acts[starts[depth - 1]..starts[depth - 1] + rows * k];
            let (l, c) = eval_logits_batch(logits, &data.labels()[r0..r0 + rows], k);
            loss_sum += l;
            correct += c;
            r0 += rows;
        }
        ws.give(acts);
        ws.give(wts);
        ws.give_indices(starts);
        EvalStats {
            loss: loss_sum / n as f64 + Self::l2_penalty(&self.layers, self.l2),
            accuracy: correct as f64 / n as f64,
        }
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

/// Which model family an experiment uses. This mirrors the paper's
/// model/dataset pairs and lets the experiment harness construct the right
/// surrogate from a single enum value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The paper's "LR" (2-hidden-layer fully-connected network) on MNIST.
    PaperLr,
    /// CNN surrogate for MNIST.
    CnnMnist,
    /// CNN surrogate for CIFAR-10.
    CnnCifar,
    /// VGG-16 surrogate for ImageNet-100.
    Vgg16,
    /// Plain convex multinomial logistic regression (used for Theorem-1
    /// validation, not a paper workload).
    ConvexLr,
}

impl ModelKind {
    /// Build the model for a dataset of the given shape.
    pub fn build(self, num_features: usize, num_classes: usize, rng: &mut Rng64) -> Box<dyn Model> {
        match self {
            ModelKind::PaperLr => Box::new(Mlp::paper_lr(num_features, num_classes, rng)),
            ModelKind::CnnMnist => {
                Box::new(Mlp::cnn_mnist_surrogate(num_features, num_classes, rng))
            }
            ModelKind::CnnCifar => {
                Box::new(Mlp::cnn_cifar_surrogate(num_features, num_classes, rng))
            }
            ModelKind::Vgg16 => Box::new(Mlp::vgg16_surrogate(num_features, num_classes, rng)),
            ModelKind::ConvexLr => {
                Box::new(Mlp::logistic_regression(num_features, num_classes).with_l2(1e-3))
            }
        }
    }

    /// Human-readable label used in experiment reports.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::PaperLr => "LR (2x hidden FC)",
            ModelKind::CnnMnist => "CNN (MNIST surrogate)",
            ModelKind::CnnCifar => "CNN (CIFAR-10 surrogate)",
            ModelKind::Vgg16 => "VGG-16 surrogate",
            ModelKind::ConvexLr => "convex logistic regression",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SyntheticSpec;

    fn toy_data() -> Dataset {
        let mut rng = Rng64::seed_from(99);
        SyntheticSpec::mnist_like()
            .with_samples_per_class(8)
            .generate(&mut rng)
    }

    /// Overwrite every parameter with a small Gaussian draw, so that a
    /// zero-initialised model has non-trivial gradients and a non-zero L2 term.
    fn randomise(m: &mut Mlp, std: f64, rng: &mut Rng64) {
        let mut p = m.params();
        for v in p.0.iter_mut() {
            *v = rng.gaussian_with(0.0, std);
        }
        m.set_params(&p);
    }

    /// `w ← w − γ · g` through the allocating params/axpy/set_params
    /// round-trip: the unfused step the fused one is compared with.
    fn step(m: &mut Mlp, learning_rate: f64, grad: &FlatParams) {
        let mut p = m.params();
        p.axpy(-learning_rate, grad);
        m.set_params(&p);
    }

    fn evaluate(m: &Mlp, data: &Dataset) -> EvalStats {
        m.evaluate_ws(data, &mut Workspace::new())
    }

    #[test]
    fn logreg_param_roundtrip() {
        let data = toy_data();
        let mut m = Mlp::logistic_regression(data.num_features(), data.num_classes());
        let mut p = m.params();
        assert_eq!(p.dim(), m.num_params());
        assert_eq!(p.dim(), (data.num_features() + 1) * data.num_classes());
        let last = p.dim() - 1;
        p.0[0] = 3.5;
        p.0[last] = -1.25;
        m.set_params(&p);
        assert_eq!(m.params(), p);
    }

    #[test]
    fn mlp_param_roundtrip() {
        let mut rng = Rng64::seed_from(1);
        let mut m = Mlp::new(8, &[5, 4], 3, &mut rng);
        let p = m.params();
        assert_eq!(p.dim(), m.num_params());
        assert_eq!(p.dim(), (8 * 5 + 5) + (5 * 4 + 4) + (4 * 3 + 3));
        let mut q = p.clone();
        q.scale(0.5);
        m.set_params(&q);
        assert_eq!(m.params(), q);
    }

    /// Central differences of the batch loss (through `loss_and_gradient`:
    /// evaluation would average the whole dataset) against the analytic
    /// gradient, at a handful of coordinates.
    fn assert_gradient_matches_finite_difference(
        m: &Mlp,
        data: &Dataset,
        indices: &[usize],
        coords: &[usize],
        tol: f64,
    ) {
        let p = m.params();
        let (_, g) = m.loss_and_gradient(data, indices);
        let eps = 1e-5;
        let batch_loss = |shift: f64, coord: usize| {
            let mut q = p.clone();
            q.0[coord] += shift;
            let mut moved = m.clone();
            moved.set_params(&q);
            moved.loss_and_gradient(data, indices).0
        };
        for &coord in coords {
            let fd = (batch_loss(eps, coord) - batch_loss(-eps, coord)) / (2.0 * eps);
            assert!(
                (fd - g.0[coord]).abs() < tol,
                "coord {coord}: fd {fd} vs analytic {}",
                g.0[coord]
            );
        }
    }

    #[test]
    fn logreg_gradient_matches_finite_difference() {
        let data = toy_data();
        let mut rng = Rng64::seed_from(2);
        let mut m = Mlp::logistic_regression(data.num_features(), data.num_classes()).with_l2(0.01);
        // Random starting point so gradients are non-trivial.
        randomise(&mut m, 0.1, &mut rng);
        let indices: Vec<usize> = (0..10).collect();
        let last = m.num_params() - 1;
        assert_gradient_matches_finite_difference(
            &m,
            &data,
            &indices,
            &[0, 7, 63, 100, last],
            1e-5,
        );
    }

    #[test]
    fn mlp_gradient_matches_finite_difference() {
        let data = toy_data();
        let mut rng = Rng64::seed_from(3);
        let m = Mlp::new(data.num_features(), &[6], data.num_classes(), &mut rng);
        let indices: Vec<usize> = (0..6).collect();
        let coords = [0, 11, 101, m.num_params() - 1];
        assert_gradient_matches_finite_difference(&m, &data, &indices, &coords, 1e-4);
        // L2 reaches every layer's weights (coords 0, 11, 101 are first-layer
        // weights; the last coordinate is a bias, which it must not touch).
        let m = m.with_l2(0.3);
        assert_gradient_matches_finite_difference(&m, &data, &indices, &coords, 1e-4);
        let second_layer_weight = 6 * data.num_features() + 6 + 2;
        assert_gradient_matches_finite_difference(
            &m,
            &data,
            &indices,
            &[second_layer_weight],
            1e-4,
        );
    }

    #[test]
    fn gradient_descent_reduces_loss_and_beats_chance() {
        let data = toy_data();
        let mut m = Mlp::logistic_regression(data.num_features(), data.num_classes());
        let initial_loss = evaluate(&m, &data).loss;
        let indices: Vec<usize> = (0..data.len()).collect();
        let mut ws = Workspace::new();
        for _ in 0..60 {
            m.sgd_batch_ws(&data, &indices, 0.5, &mut ws);
        }
        let stats = evaluate(&m, &data);
        assert!(stats.loss < initial_loss * 0.5);
        assert!(stats.accuracy > 0.5, "accuracy {}", stats.accuracy);
    }

    #[test]
    fn mlp_trains_above_chance() {
        let data = toy_data();
        let mut rng = Rng64::seed_from(4);
        let mut m = Mlp::new(data.num_features(), &[32], data.num_classes(), &mut rng);
        let indices: Vec<usize> = (0..data.len()).collect();
        let mut ws = Workspace::new();
        for _ in 0..80 {
            m.sgd_batch_ws(&data, &indices, 0.2, &mut ws);
        }
        let accuracy = evaluate(&m, &data).accuracy;
        assert!(accuracy > 0.5, "accuracy {accuracy}");
    }

    #[test]
    fn fused_sgd_batch_matches_gradient_then_step() {
        let data = toy_data();
        let mut rng = Rng64::seed_from(31);
        let mut ws = Workspace::new();
        let indices: Vec<usize> = (0..24).collect();
        let lr = 0.21;
        let (features, classes) = (data.num_features(), data.num_classes());

        let plain = Mlp::new(features, &[11, 7], classes, &mut rng);
        // Logistic regression with L2 (exercises the scale-then-accumulate
        // order of the fused regulariser), and the same on a hidden-layer
        // net, where every layer's weights shrink.
        let mut logreg = Mlp::logistic_regression(features, classes).with_l2(0.03);
        randomise(&mut logreg, 0.2, &mut rng);
        let ridge = Mlp::new(features, &[11, 7], classes, &mut rng).with_l2(0.03);

        // Fused path vs materialised gradient + step.
        for (name, start) in [("mlp", plain), ("logreg + l2", logreg), ("mlp + l2", ridge)] {
            let mut fused = start.clone();
            let mut split = start;
            let loss_f = fused.sgd_batch_ws(&data, &indices, lr, &mut ws);
            let (loss_s, g) = split.loss_and_gradient(&data, &indices);
            step(&mut split, lr, &g);
            assert!((loss_f - loss_s).abs() < 1e-12, "{name}");
            for (a, b) in fused.params().0.iter().zip(split.params().0.iter()) {
                assert!((a - b).abs() < 1e-12, "{name}: fused {a} vs split {b}");
            }
        }
    }

    #[test]
    fn zero_initialised_logreg_has_uniform_loss() {
        let data = toy_data();
        let m = Mlp::logistic_regression(data.num_features(), data.num_classes());
        let stats = evaluate(&m, &data);
        assert!((stats.loss - (data.num_classes() as f64).ln()).abs() < 1e-9);
        // All logits tie, and a tie goes to class 0: exactly chance on the
        // balanced ten-class data.
        assert!((stats.accuracy - 0.1).abs() < 1e-9);
    }

    /// One evaluation over a dataset longer than a chunk (a ragged last
    /// chunk) agrees with the same model over the same samples taken one
    /// batch at a time: the un-chunked training-pass loss, and the sum of
    /// single-sample evaluations.
    #[test]
    fn evaluate_matches_loss_and_accuracy() {
        let mut rng = Rng64::seed_from(21);
        let data = SyntheticSpec::mnist_like()
            .with_samples_per_class(30)
            .generate(&mut rng);
        assert!(EVAL_CHUNK < data.len() && data.len() < 2 * EVAL_CHUNK);
        let m = Mlp::new(data.num_features(), &[12, 9], data.num_classes(), &mut rng);
        let stats = evaluate(&m, &data);
        let all: Vec<usize> = (0..data.len()).collect();
        let (batch_loss, _) = m.loss_and_gradient(&data, &all);
        assert!((stats.loss - batch_loss).abs() < 1e-12);
        let mut ws = Workspace::new();
        let (mut loss_sum, mut correct) = (0.0, 0.0);
        for i in 0..data.len() {
            let one = m.evaluate_ws(&data.subset(&[i]), &mut ws);
            loss_sum += one.loss;
            correct += one.accuracy;
        }
        assert!((stats.loss - loss_sum / data.len() as f64).abs() < 1e-12);
        assert!((stats.accuracy - correct / data.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn evaluation_includes_l2_term_like_training_loss() {
        let data = toy_data();
        let mut rng = Rng64::seed_from(22);
        let (features, classes) = (data.num_features(), data.num_classes());
        let mut logreg = Mlp::logistic_regression(features, classes).with_l2(0.05);
        randomise(&mut logreg, 0.2, &mut rng);
        let hidden = Mlp::new(features, &[10], classes, &mut rng).with_l2(0.05);
        let all: Vec<usize> = (0..data.len()).collect();
        for m in [logreg, hidden] {
            let (train_loss, _) = m.loss_and_gradient(&data, &all);
            let eval_loss = evaluate(&m, &data).loss;
            assert!((eval_loss - train_loss).abs() < 1e-10);
            // … and the term is there at all: it is what `with_l2` adds.
            let bare = evaluate(&m.clone().with_l2(0.0), &data).loss;
            let norm_sq: f64 = (0..m.depth())
                .map(|l| m.layer_weights(l).frobenius_sq())
                .sum();
            assert!(norm_sq > 1.0);
            assert!((eval_loss - bare - 0.5 * 0.05 * norm_sq).abs() < 1e-10);
        }
    }

    #[test]
    fn workspace_pool_stabilises_after_first_batch() {
        let data = toy_data();
        let mut rng = Rng64::seed_from(23);
        let m = Mlp::new(data.num_features(), &[10, 6], data.num_classes(), &mut rng);
        let mut ws = Workspace::new();
        let mut grad = FlatParams::zeros(m.num_params());
        let indices: Vec<usize> = (0..32).collect();
        let l1 = m.loss_and_gradient_ws(&data, &indices, &mut ws, &mut grad);
        let pooled = ws.pooled_buffers();
        let g1 = grad.clone();
        for _ in 0..5 {
            let l = m.loss_and_gradient_ws(&data, &indices, &mut ws, &mut grad);
            assert_eq!(
                l.to_bits(),
                l1.to_bits(),
                "batched pass must be deterministic"
            );
            assert_eq!(
                ws.pooled_buffers(),
                pooled,
                "steady state must not grow the pool"
            );
        }
        assert_eq!(grad, g1);
    }

    #[test]
    fn model_kind_builds_expected_sizes() {
        let mut rng = Rng64::seed_from(5);
        let small = ModelKind::PaperLr.build(64, 10, &mut rng);
        let big = ModelKind::Vgg16.build(64, 10, &mut rng);
        assert!(big.num_params() > small.num_params());
        assert!(!ModelKind::CnnCifar.label().is_empty());
        // The seed-stream contract: the zero-initialised model draws nothing.
        let mut untouched = rng.clone();
        let convex = ModelKind::ConvexLr.build(64, 10, &mut rng);
        assert_eq!(convex.params(), FlatParams::zeros(64 * 10 + 10));
        assert_eq!(rng.next_u64(), untouched.next_u64());
    }

    #[test]
    fn clone_model_preserves_params() {
        let mut rng = Rng64::seed_from(6);
        let m = Mlp::new(10, &[4], 3, &mut rng);
        let c = m.clone_model();
        assert_eq!(c.params(), m.params());
    }
}
