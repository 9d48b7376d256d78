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
//!   workloads are represented by deeper/wider MLP surrogates. Each workload
//!   is a [`ModelKind`], and [`ModelKind::build`] holds the one table of
//!   their hidden widths.
//! * With no hidden layer the network *is* multinomial logistic regression
//!   ([`Mlp::logistic_regression`]). Its loss is smooth and (with `l2 > 0`)
//!   strongly convex, i.e. it satisfies Assumptions 1–2 of the paper exactly,
//!   which makes it the right model for validating Theorem 1 numerically.
//!
//! # Batched execution
//!
//! An [`Mlp`] keeps its parameters as one [`FlatParams`] in the order the
//! wire uses, so a layer's weights and bias are windows of that vector and
//! loading or reading a transmitted model reshapes nothing.
//!
//! A mini-batch is one `B × d` matrix per layer: the forward pass is a
//! [`gemm_nn`] over the layer's transposed weights (`Z = X · Wᵀ`), the
//! backward data pass another (`δ_prev = δ · W`), and the weight gradient a
//! [`gemm_tn_acc`] (`δᵀ · X`, accumulated at `−γ` straight into the weights by
//! the training step) — instead of the per-sample matvec + rank-one-update
//! loop the first version of this crate used (kept as the reference
//! implementation in `tests/reference/`). The layer-forward walk and the
//! backward walk are each written once: training and evaluation share the
//! first, the fused SGD step ([`Mlp::sgd_batch_ws`]) and the gradient
//! oracle ([`Mlp::loss_and_gradient_ws`]) the second.
//!
//! All scratch memory comes from a caller-provided [`Workspace`], so the
//! steady-state training loop ([`crate::optimizer::local_update_ws`])
//! performs **zero heap allocations**. A training step holds no
//! model-sized buffer: it transposes one layer at a time, just before that
//! layer's GEMM, into a buffer the size of the largest layer. An evaluation
//! transposes every layer once per call, into one buffer of all the
//! weights, and forwards its rows a few dozen at a time.

use crate::dataset::Dataset;
use crate::linalg::{
    add_row_bias, axpy, col_sums_acc, gemm_nn, gemm_tn_acc, norm_sq, relu_backward_batch,
    relu_batch_in_place, transpose, MatrixView,
};
use crate::loss::{eval_logits_batch, softmax_cross_entropy_batch};
use crate::params::FlatParams;
use crate::rng::Rng64;
use crate::workspace::Workspace;
use std::ops::{Deref, Range};

/// Rows per loss window of [`Mlp::evaluate_ws`]: a window's per-row losses
/// are summed in row order, and the window sums are added in window order,
/// so this length is part of the evaluated loss's bits.
const EVAL_CHUNK: usize = 256;

/// Rows per forward GEMM of [`Mlp::evaluate_ws`]: a loss window runs through
/// the layers in sub-chunks of this many rows, so the activations take
/// `2 · EVAL_ROWS` rows of the widest layer, not a window's worth. Every
/// forward kernel computes a row from that row alone, so the sub-chunk
/// length moves no bit.
const EVAL_ROWS: usize = 32;

/// Loss and accuracy of one model over one dataset, computed in a single
/// batched forward pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalStats {
    /// Mean loss over the dataset (including any regularisation term).
    pub loss: f64,
    /// Fraction of samples whose argmax prediction matches the label.
    pub accuracy: f64,
}

/// Where one dense layer sits in an [`Mlp`]'s flat parameter vector: its
/// `out × in` row-major weights from `offset` on, then its `out` biases.
#[derive(Debug, Clone, Copy)]
struct Layer {
    offset: usize,
    in_width: usize,
    out_width: usize,
}

impl Layer {
    fn weight_len(self) -> usize {
        self.in_width * self.out_width
    }

    fn weights(self) -> Range<usize> {
        self.offset..self.offset + self.weight_len()
    }

    fn bias(self) -> Range<usize> {
        let start = self.offset + self.weight_len();
        start..start + self.out_width
    }

    /// One past the layer's last parameter: the next layer's `offset`.
    fn end(self) -> usize {
        self.bias().end
    }
}

/// The transposed weights a forward walk ([`Mlp::forward`]) multiplies by.
enum Transposed<'a> {
    /// Every layer's, transposed up front and laid end to end
    /// ([`Mlp::transpose_all`]), for a walk repeated over many row chunks.
    All(&'a [f64]),
    /// Scratch the size of the largest layer: the walk transposes each layer
    /// into it just before that layer's GEMM.
    EachLayer(&'a mut [f64]),
}

/// A fully-connected ReLU network with a softmax cross-entropy head and an
/// optional L2 (ridge) term `½ · l2 · Σ_l ‖W_l‖²` on the weight matrices (not
/// the biases).
///
/// The parameters are one [`FlatParams`] in the order the wire uses — W₀,
/// b₀, W₁, b₁, …, each `W_l` row-major `out × in` — so loading a
/// transmitted model ([`Mlp::set_params`]) is one copy and reading one out
/// ([`Mlp::params`]) is none.
#[derive(Debug, Clone)]
pub struct Mlp {
    params: FlatParams,
    layers: Vec<Layer>,
    l2: f64,
}

impl Mlp {
    /// The layers mapping `sizes[l]` to `sizes[l + 1]`, packed from offset 0.
    fn layout(sizes: &[usize]) -> Vec<Layer> {
        let mut offset = 0;
        sizes
            .windows(2)
            .map(|w| {
                let layer = Layer {
                    offset,
                    in_width: w[0],
                    out_width: w[1],
                };
                offset = layer.end();
                layer
            })
            .collect()
    }

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
        let layers = Self::layout(&sizes);
        let mut params = Vec::with_capacity(layers[layers.len() - 1].end());
        for layer in &layers {
            // He initialisation (appropriate for ReLU activations), row by
            // row; the biases start at zero.
            let std = (2.0 / layer.in_width as f64).sqrt();
            params.extend((0..layer.weight_len()).map(|_| rng.gaussian_with(0.0, std)));
            params.resize(layer.end(), 0.0);
        }
        Self {
            params: FlatParams(params),
            layers,
            l2: 0.0,
        }
    }

    /// Multinomial logistic regression: no hidden layer, zero-initialised
    /// (the global optimum basin for convex losses, and the paper's `w_0`).
    /// Draws nothing from any RNG, so building one leaves the caller's seed
    /// stream where it was. With [`Mlp::with_l2`] `> 0` the loss is
    /// `l2`-strongly convex and `(L_max + l2)`-smooth, satisfying
    /// Assumptions 1–2 of the paper, so Theorem 1 applies exactly.
    pub fn logistic_regression(num_features: usize, num_classes: usize) -> Self {
        let layers = Self::layout(&[num_features, num_classes]);
        Self {
            params: FlatParams::zeros(layers[0].end()),
            layers,
            l2: 0.0,
        }
    }

    /// Set the L2 regularisation strength (builder-style).
    pub fn with_l2(mut self, l2: f64) -> Self {
        assert!(l2 >= 0.0, "l2 must be non-negative");
        self.l2 = l2;
        self
    }

    /// The paper's "LR" workload for MNIST, [`ModelKind::PaperLr`].
    pub fn paper_lr(num_features: usize, num_classes: usize, rng: &mut Rng64) -> Self {
        *ModelKind::PaperLr.build(num_features, num_classes, rng)
    }

    /// Number of layers (hidden + output).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The L2 regularisation strength.
    pub fn l2(&self) -> f64 {
        self.l2
    }

    /// The `out × in` weight matrix of layer `l`, borrowed from the flat
    /// parameters (used by the per-sample reference implementation in
    /// `tests/reference/`).
    pub fn layer_weights(&self, l: usize) -> MatrixView<'_> {
        let layer = self.layers[l];
        MatrixView::new(
            layer.out_width,
            layer.in_width,
            &self.params.0[layer.weights()],
        )
    }

    /// The bias vector of layer `l` (read-only).
    pub fn layer_bias(&self, l: usize) -> &[f64] {
        &self.params.0[self.layers[l].bias()]
    }

    /// The flat parameters, asserting that nobody resized them through
    /// [`Mlp::params_mut`].
    fn checked_params(&self) -> &[f64] {
        let q = self.layers[self.layers.len() - 1].end();
        assert_eq!(self.params.dim(), q, "parameter size mismatch");
        self.params.as_slice()
    }

    /// Widest activation any batch row produces (sizes the ping-pong buffers
    /// of the backward walk and of evaluation).
    fn max_width(layers: &[Layer]) -> usize {
        layers
            .iter()
            .map(|l| l.out_width)
            .max()
            .expect("an Mlp always has at least one layer")
    }

    /// The regularisation term of the loss, `½ · l2 · Σ_l ‖W_l‖²`. Without
    /// regularisation it is 0 and costs no O(q) pass.
    fn l2_penalty(layers: &[Layer], params: &[f64], l2: f64) -> f64 {
        if l2 > 0.0 {
            0.5 * l2
                * layers
                    .iter()
                    .map(|l| norm_sq(&params[l.weights()]))
                    .sum::<f64>()
        } else {
            0.0
        }
    }

    /// Transpose every layer's weights into one workspace buffer (O(q)), for
    /// [`Transposed::All`]. Layer `l`'s block starts at the running sum of
    /// the preceding `in_width · out_width` lengths — the same walk
    /// [`Mlp::forward`] does.
    fn transpose_all(layers: &[Layer], params: &[f64], ws: &mut Workspace) -> Vec<f64> {
        let mut wts = ws.take(layers.iter().map(|l| l.weight_len()).sum());
        let mut off = 0;
        for layer in layers {
            let len = layer.weight_len();
            transpose(
                &params[layer.weights()],
                &mut wts[off..off + len],
                layer.out_width,
                layer.in_width,
            );
            off += len;
        }
        wts
    }

    /// The layer-forward walk: `rows` samples, read in place from `x`,
    /// through every layer, one GEMM per layer over the transposed weights
    /// `wts` (so the GEMMs run through the vectorised k-major kernel). Layer
    /// `l` leaves its `rows × out_width` output (post-ReLU for a hidden
    /// layer, the logits for the last) at `acts[starts[l]..]` and reads
    /// layer `l − 1`'s from where that left it, so the caller picks the
    /// storage: consecutive segments keep every activation for a backward
    /// walk, two alternating ones ping-pong an evaluation chunk.
    fn forward(
        layers: &[Layer],
        params: &[f64],
        mut wts: Transposed<'_>,
        x: &[f64],
        rows: usize,
        acts: &mut [f64],
        starts: &[usize],
    ) {
        let mut woff = 0;
        for (l, &layer) in layers.iter().enumerate() {
            let (in_w, out_w) = (layer.in_width, layer.out_width);
            let len = layer.weight_len();
            let wt: &[f64] = match &mut wts {
                Transposed::All(all) => &all[woff..woff + len],
                Transposed::EachLayer(scratch) => {
                    transpose(&params[layer.weights()], &mut scratch[..len], out_w, in_w);
                    &scratch[..len]
                }
            };
            woff += len;
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
            gemm_nn(input, wt, out, rows, out_w, in_w);
            add_row_bias(out, &params[layer.bias()], rows);
            if l + 1 < layers.len() {
                relu_batch_in_place(out);
            }
        }
    }

    /// The training pass over one mini-batch, shared by the gradient oracle
    /// and the fused SGD step: gather, [`Mlp::forward`] keeping every
    /// activation (each layer transposed just before its GEMM, into scratch
    /// the size of the largest layer), the softmax cross-entropy head, then
    /// the backward walk.
    ///
    /// Per layer, last to first, the walk sends `δ` through the layer's
    /// weights *as they were on entry* (`δ_prev = δ · W`, masked by the
    /// previous layer's ReLU) and only then calls `land(params, layer, δ,
    /// input)`, which puts the layer's `δᵀ · input` and `Σ δ` wherever its
    /// caller wants them — a gradient block, or the layer's own parameters.
    /// The two callers differ in nothing else; `P` is `&[f64]` for the one
    /// that only reads the model and `&mut [f64]` for the one that steps it,
    /// handed back to `land` between the walk's own reads.
    ///
    /// Returns the mean batch loss, [`Mlp::l2_penalty`] of the entry weights
    /// included. Every buffer comes from `ws` and is back in it on return.
    fn batch_pass<P: Deref<Target = [f64]>>(
        layers: &[Layer],
        mut params: P,
        l2: f64,
        data: &Dataset,
        indices: &[usize],
        ws: &mut Workspace,
        mut land: impl FnMut(&mut P, Layer, &[f64], &[f64]),
    ) -> f64 {
        assert!(!indices.is_empty(), "gradient over an empty batch");
        let d = layers[0].in_width;
        assert_eq!(data.num_features(), d, "dataset feature dimension mismatch");
        let bsz = indices.len();
        let inv_n = 1.0 / bsz as f64;
        let depth = layers.len();
        let k = layers[depth - 1].out_width;

        let mut x = ws.take(bsz * d);
        let mut labels = ws.take_indices(bsz);
        for (row, &i) in indices.iter().enumerate() {
            x[row * d..(row + 1) * d].copy_from_slice(data.sample(i));
            labels.push(data.label(i));
        }
        let mut starts = ws.take_indices(depth);
        let mut total = 0;
        for layer in layers {
            starts.push(total);
            total += bsz * layer.out_width;
        }
        let mut acts = ws.take(total);
        let mut wt = ws.take(layers.iter().map(|l| l.weight_len()).max().unwrap_or(0));
        let each = Transposed::EachLayer(&mut wt);
        Self::forward(layers, &params, each, &x, bsz, &mut acts, &starts);

        // Head: logits → δ = (softmax − onehot) / B, in place.
        let logits = &mut acts[starts[depth - 1]..];
        let loss_sum = softmax_cross_entropy_batch(logits, &labels, k, inv_n);
        let loss = loss_sum * inv_n + Self::l2_penalty(layers, &params, l2);

        // Backward walk with two ping-pong delta buffers.
        let maxw = Self::max_width(layers);
        let mut cur = ws.take(bsz * maxw);
        let mut nxt = ws.take(bsz * maxw);
        cur[..bsz * k].copy_from_slice(&acts[starts[depth - 1]..]);
        for (l, &layer) in layers.iter().enumerate().rev() {
            let (in_w, out_w) = (layer.in_width, layer.out_width);
            let input = if l == 0 {
                &x[..]
            } else {
                &acts[starts[l - 1]..starts[l]]
            };
            let delta = &cur[..bsz * out_w];
            if l > 0 {
                gemm_nn(
                    delta,
                    &params[layer.weights()],
                    &mut nxt[..bsz * in_w],
                    bsz,
                    in_w,
                    out_w,
                );
                relu_backward_batch(&mut nxt[..bsz * in_w], input);
            }
            land(&mut params, layer, delta, input);
            if l > 0 {
                std::mem::swap(&mut cur, &mut nxt);
            }
        }

        ws.give(x);
        ws.give(acts);
        ws.give(wt);
        ws.give(cur);
        ws.give(nxt);
        ws.give_indices(labels);
        ws.give_indices(starts);
        loss
    }
}

impl Mlp {
    /// Total number of scalar parameters `q` (the transmitted dimension).
    pub fn num_params(&self) -> usize {
        self.params.dim()
    }

    /// The parameters, flattened in wire order (borrowed: the model stores
    /// them this way).
    pub fn params(&self) -> &FlatParams {
        &self.params
    }

    /// The parameters, mutably, for an in-place update of the whole vector
    /// (Eq. (10)'s global step). Their length is the model's: a resize
    /// panics at the next pass.
    pub fn params_mut(&mut self) -> &mut FlatParams {
        &mut self.params
    }

    /// Overwrite the parameters from a flat vector (one copy). Panics on
    /// dimension mismatch.
    pub fn set_params(&mut self, params: &FlatParams) {
        assert_eq!(params.dim(), self.num_params(), "parameter size mismatch");
        self.params.0.copy_from_slice(&params.0);
    }

    /// Average loss and average gradient over the given sample indices
    /// (allocates a fresh workspace and gradient).
    pub fn loss_and_gradient(&self, data: &Dataset, indices: &[usize]) -> (f64, FlatParams) {
        let mut ws = Workspace::new();
        let mut grad = FlatParams::zeros(self.num_params());
        let loss = self.loss_and_gradient_ws(data, indices, &mut ws, &mut grad);
        (loss, grad)
    }

    /// Average loss and average gradient over the given sample indices of
    /// `data`, written into `grad` (which must already have dimension
    /// [`Mlp::num_params`]). All scratch memory is drawn from `ws`;
    /// steady-state calls allocate nothing. Panics if `indices` is empty.
    pub fn loss_and_gradient_ws(
        &self,
        data: &Dataset,
        indices: &[usize],
        ws: &mut Workspace,
        grad: &mut FlatParams,
    ) -> f64 {
        let params = self.checked_params();
        assert_eq!(grad.dim(), params.len(), "gradient size mismatch");
        let (l2, bsz) = (self.l2, indices.len());
        let land = |params: &mut &[f64], layer: Layer, delta: &[f64], input: &[f64]| {
            // ∇W = δᵀ · X + l2 · W and ∇b = Σ δ into the layer's block of
            // the flat gradient, which has the parameters' layout: the
            // accumulating kernels at α = 1 over a zero fill (`1.0 * x` is
            // exact, so this is the plain product).
            let block = &mut grad.0[layer.offset..layer.end()];
            block.fill(0.0);
            let (gw, gb) = block.split_at_mut(layer.weight_len());
            let (out_w, in_w) = (layer.out_width, layer.in_width);
            gemm_tn_acc(delta, input, gw, out_w, in_w, bsz, 1.0);
            col_sums_acc(delta, bsz, gb, 1.0);
            if l2 > 0.0 {
                axpy(l2, &params[layer.weights()], gw);
            }
        };
        Self::batch_pass(&self.layers, params, l2, data, indices, ws, land)
    }

    /// One fused mini-batch SGD step `w ← w − γ · ∇f(w)`: the forward pass,
    /// the backward pass and the parameter update in a single pass that
    /// accumulates `−γ · δᵀ · X` directly into the weights ([`gemm_tn_acc`]),
    /// never touching a gradient buffer. Returns the batch loss at the
    /// parameters the step started from. Panics if `indices` is empty.
    pub fn sgd_batch_ws(
        &mut self,
        data: &Dataset,
        indices: &[usize],
        learning_rate: f64,
        ws: &mut Workspace,
    ) -> f64 {
        self.checked_params();
        let (l2, bsz) = (self.l2, indices.len());
        let land = |params: &mut &mut [f64], layer: Layer, delta: &[f64], input: &[f64]| {
            let (in_w, out_w) = (layer.in_width, layer.out_width);
            let weights = &mut params[layer.weights()];
            // The −γ · l2 · W part of the step, applied to the old weights.
            if l2 > 0.0 {
                let shrink = 1.0 - learning_rate * l2;
                weights.iter_mut().for_each(|w| *w *= shrink);
            }
            // Fused update: W += −γ · δᵀ · X, b += −γ · Σ δ.
            gemm_tn_acc(delta, input, weights, out_w, in_w, bsz, -learning_rate);
            col_sums_acc(delta, bsz, &mut params[layer.bias()], -learning_rate);
        };
        let params = self.params.as_mut_slice();
        Self::batch_pass(&self.layers, params, l2, data, indices, ws, land)
    }

    /// Mean loss and accuracy over an entire dataset in one batched forward
    /// pass over the dataset's contiguous feature matrix (no per-sample
    /// gather, no gradient work). Both are 0 for an empty dataset.
    ///
    /// Every layer is transposed once per call. The rows run in loss windows
    /// of `EVAL_CHUNK`, each forwarded in sub-chunks of `EVAL_ROWS` rows with
    /// one running loss sum across the window, so the activations stay a
    /// few sub-chunks wide.
    pub fn evaluate_ws(&self, data: &Dataset, ws: &mut Workspace) -> EvalStats {
        if data.is_empty() {
            return EvalStats {
                loss: 0.0,
                accuracy: 0.0,
            };
        }
        let (layers, params) = (&self.layers[..], self.checked_params());
        let d = layers[0].in_width;
        assert_eq!(data.num_features(), d, "dataset feature dimension mismatch");
        let n = data.len();
        let depth = layers.len();
        let k = layers[depth - 1].out_width;
        // Two alternating segments: layer `l` overwrites layer `l − 2`'s
        // output, which nothing reads any more.
        let half = EVAL_ROWS.min(n) * Self::max_width(layers);
        let mut starts = ws.take_indices(depth);
        starts.extend((0..depth).map(|l| (l % 2) * half));
        let mut acts = ws.take(2 * half);
        let wts = Self::transpose_all(layers, params, ws);
        // Every sub-chunk reads the dataset's feature matrix in place.
        let (features, labels) = (data.features(), data.labels());
        let mut loss_sum = 0.0;
        let mut correct = 0usize;
        for w0 in (0..n).step_by(EVAL_CHUNK) {
            let w1 = (w0 + EVAL_CHUNK).min(n);
            let mut window_loss = 0.0;
            for r0 in (w0..w1).step_by(EVAL_ROWS) {
                let rows = (w1 - r0).min(EVAL_ROWS);
                let x = &features[r0 * d..(r0 + rows) * d];
                let all = Transposed::All(&wts);
                Self::forward(layers, params, all, x, rows, &mut acts, &starts);
                let logits = &acts[starts[depth - 1]..starts[depth - 1] + rows * k];
                let (l, c) = eval_logits_batch(logits, &labels[r0..r0 + rows], k, window_loss);
                window_loss = l;
                correct += c;
            }
            loss_sum += window_loss;
        }
        ws.give(acts);
        ws.give(wts);
        ws.give_indices(starts);
        EvalStats {
            loss: loss_sum / n as f64 + Self::l2_penalty(layers, params, self.l2),
            accuracy: correct as f64 / n as f64,
        }
    }
}

/// Which model an experiment uses. This mirrors the paper's model/dataset
/// pairs: each is an [`Mlp`] of the hidden widths [`ModelKind::build`]
/// lists, the paper's CNNs and VGG-16 represented by deeper and wider
/// surrogates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The paper's "LR" on MNIST: a fully-connected network with two hidden
    /// layers (scaled down from 512 units to 64 to keep the simulation
    /// laptop-sized).
    PaperLr,
    /// Surrogate for the paper's MNIST CNN (two conv + two dense layers).
    CnnMnist,
    /// Surrogate for the paper's CIFAR-10 CNN.
    CnnCifar,
    /// Surrogate for VGG-16 on ImageNet-100: the deepest and widest model.
    Vgg16,
    /// Plain convex multinomial logistic regression (used for Theorem-1
    /// validation, not a paper workload).
    ConvexLr,
}

impl ModelKind {
    /// Build the model for a dataset of the given shape: the one table of
    /// hidden widths.
    pub fn build(self, num_features: usize, num_classes: usize, rng: &mut Rng64) -> Box<Mlp> {
        let hidden: &[usize] = match self {
            ModelKind::PaperLr => &[64, 64],
            ModelKind::CnnMnist => &[128, 64],
            ModelKind::CnnCifar => &[160, 96],
            ModelKind::Vgg16 => &[256, 128, 64],
            ModelKind::ConvexLr => {
                let model = Mlp::logistic_regression(num_features, num_classes).with_l2(1e-3);
                return Box::new(model);
            }
        };
        Box::new(Mlp::new(num_features, hidden, num_classes, rng))
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
        for v in m.params_mut().0.iter_mut() {
            *v = rng.gaussian_with(0.0, std);
        }
    }

    /// `w ← w − γ · g` as a plain axpy on the flat parameters: the unfused
    /// step the fused one is compared with.
    fn step(m: &mut Mlp, learning_rate: f64, grad: &FlatParams) {
        m.params_mut().axpy(-learning_rate, grad);
    }

    fn evaluate(m: &Mlp, data: &Dataset) -> EvalStats {
        m.evaluate_ws(data, &mut Workspace::new())
    }

    #[test]
    fn logreg_param_roundtrip() {
        let data = toy_data();
        let mut m = Mlp::logistic_regression(data.num_features(), data.num_classes());
        let mut p = m.params().clone();
        assert_eq!(p.dim(), m.num_params());
        assert_eq!(p.dim(), (data.num_features() + 1) * data.num_classes());
        let last = p.dim() - 1;
        p.0[0] = 3.5;
        p.0[last] = -1.25;
        m.set_params(&p);
        assert_eq!(m.params(), &p);
    }

    #[test]
    fn mlp_param_roundtrip() {
        let mut rng = Rng64::seed_from(1);
        let mut m = Mlp::new(8, &[5, 4], 3, &mut rng);
        let p = m.params().clone();
        assert_eq!(p.dim(), m.num_params());
        assert_eq!(p.dim(), (8 * 5 + 5) + (5 * 4 + 4) + (4 * 3 + 3));
        let mut q = p.clone();
        q.scale(0.5);
        m.set_params(&q);
        assert_eq!(m.params(), &q);
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

    const KINDS: [ModelKind; 5] = [
        ModelKind::PaperLr,
        ModelKind::CnnMnist,
        ModelKind::CnnCifar,
        ModelKind::Vgg16,
        ModelKind::ConvexLr,
    ];

    /// 600 rows of the 100-class, 128-feature ImageNet stand-in.
    fn hundred_class_data(rng: &mut Rng64) -> Dataset {
        SyntheticSpec::imagenet100_like()
            .with_samples_per_class(6)
            .generate(rng)
    }

    /// Evaluation as one forward walk per 256-row loss window, each window's
    /// loss summed from 0 in row order and the windows' sums added in order.
    /// The window is a literal: the evaluated loss's bits are pinned to it.
    fn evaluate_whole_windows(m: &Mlp, data: &Dataset) -> EvalStats {
        const WINDOW: usize = 256;
        let (layers, params) = (&m.layers[..], m.params.as_slice());
        let (n, d, depth) = (data.len(), data.num_features(), m.depth());
        let k = layers[depth - 1].out_width;
        let half = WINDOW * Mlp::max_width(layers);
        let starts: Vec<usize> = (0..depth).map(|l| (l % 2) * half).collect();
        let mut acts = vec![0.0; 2 * half];
        let wts = Mlp::transpose_all(layers, params, &mut Workspace::new());
        let (mut loss_sum, mut correct) = (0.0, 0);
        for r0 in (0..n).step_by(WINDOW) {
            let rows = (n - r0).min(WINDOW);
            let x = &data.features()[r0 * d..(r0 + rows) * d];
            Mlp::forward(
                layers,
                params,
                Transposed::All(&wts),
                x,
                rows,
                &mut acts,
                &starts,
            );
            let logits = &acts[starts[depth - 1]..starts[depth - 1] + rows * k];
            let (l, c) = eval_logits_batch(logits, &data.labels()[r0..r0 + rows], k, 0.0);
            loss_sum += l;
            correct += c;
        }
        EvalStats {
            loss: loss_sum / n as f64 + Mlp::l2_penalty(layers, params, m.l2),
            accuracy: correct as f64 / n as f64,
        }
    }

    /// Forwarding a loss window in `EVAL_ROWS`-row sub-chunks gives the bits
    /// of forwarding it whole, for every model kind and for datasets that
    /// end on, before and after a sub-chunk and a window boundary.
    #[test]
    fn sub_chunked_evaluation_equals_whole_window_forwards() {
        let mut rng = Rng64::seed_from(24);
        let data = hundred_class_data(&mut rng);
        for kind in KINDS {
            let mut m = *kind.build(data.num_features(), data.num_classes(), &mut rng);
            // The convex model starts at zero, where every row's loss ties.
            randomise(&mut m, 0.1, &mut rng);
            for n in [1, 31, 32, 33, 255, 256, 257, 600] {
                let window = data.subset(&(0..n).collect::<Vec<_>>());
                let (got, want) = (evaluate(&m, &window), evaluate_whole_windows(&m, &window));
                let tag = format!("{kind:?}, {n} rows");
                assert_eq!(got.loss.to_bits(), want.loss.to_bits(), "{tag}: loss");
                assert_eq!(got.accuracy, want.accuracy, "{tag}: accuracy");
            }
        }
    }

    /// A workspace that ran a local update and an evaluation holds no buffer
    /// of the model's size: training transposes one layer at a time (so with
    /// more than one layer no buffer holds every layer's weights), and
    /// evaluation forwards `EVAL_ROWS` rows at a time.
    #[test]
    fn no_workspace_buffer_reaches_the_model_size() {
        use crate::optimizer::{local_update_ws, SgdConfig};
        let mut rng = Rng64::seed_from(25);
        let data = hundred_class_data(&mut rng);
        let cfg = SgdConfig {
            learning_rate: 0.1,
            batch_size: 16,
            local_epochs: 1,
        };
        for kind in KINDS {
            let mut m = *kind.build(data.num_features(), data.num_classes(), &mut rng);
            let mut ws = Workspace::new();
            local_update_ws(&mut m, &data, &cfg, &mut rng, &mut ws);
            let weights: usize = m.layers.iter().map(|l| l.weight_len()).sum();
            if m.depth() > 1 {
                let largest = ws.largest_buffer();
                assert!(
                    largest < weights,
                    "{kind:?}: {largest} ≥ {weights} after training"
                );
            }
            m.evaluate_ws(&data, &mut ws);
            let (largest, q) = (ws.largest_buffer(), m.num_params());
            assert!(
                largest < q,
                "{kind:?}: {largest} ≥ q = {q} after evaluating"
            );
        }
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
                .map(|l| norm_sq(m.layer_weights(l).as_slice()))
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
        assert_eq!(convex.params(), &FlatParams::zeros(64 * 10 + 10));
        assert_eq!(rng.next_u64(), untouched.next_u64());
    }

    #[test]
    fn clone_model_preserves_params() {
        let mut rng = Rng64::seed_from(6);
        let m = ModelKind::CnnMnist.build(10, 3, &mut rng);
        let c = m.clone();
        assert_eq!(c.params(), m.params());
    }
}
