//! Differentiable classification models (batched engine).
//!
//! The paper trains three architectures (logistic regression, plain CNNs and
//! VGG-16). The mechanisms under study never look inside the architecture —
//! they only exchange the flattened parameter vector — so this module provides
//! two pure-Rust model families that reproduce the relevant training dynamics:
//!
//! * [`LogisticRegression`]: multinomial logistic regression with optional L2
//!   regularisation. Its loss is smooth and (with regularisation) strongly
//!   convex, i.e. it satisfies Assumptions 1–2 of the paper exactly, which
//!   makes it the right model for validating Theorem 1 numerically.
//! * [`Mlp`]: a fully-connected ReLU network of arbitrary depth. The paper's
//!   "LR" on MNIST is itself a 2×512-unit MLP; the CNN and VGG-16 workloads
//!   are represented by deeper/wider MLP surrogates (constructors
//!   [`Mlp::paper_lr`], [`Mlp::cnn_mnist_surrogate`],
//!   [`Mlp::cnn_cifar_surrogate`], [`Mlp::vgg16_surrogate`]).
//!
//! # Batched execution
//!
//! Both models process a mini-batch as one `B × d` matrix per layer: the
//! forward pass is a [`gemm_nt`] (`Z = X · Wᵀ`), the weight gradient a
//! [`gemm_tn`] (`∇W = δᵀ · X`) and the backward data pass a [`gemm_nn`]
//! (`δ_prev = δ · W`) — instead of the per-sample matvec + rank-one-update
//! loop the first version of this crate used (kept as the reference
//! implementation in `tests/reference/`). All scratch memory comes from a
//! caller-provided [`Workspace`], so the steady-state training loop
//! ([`crate::optimizer::local_update_ws`]) performs **zero heap
//! allocations**. The workspace-threaded entry points are
//! [`Model::loss_and_gradient_ws`] (training) and [`Model::evaluate_ws`]
//! (batched loss + accuracy in one pass); the allocation-per-call
//! conveniences ([`Model::loss_and_gradient`], [`Model::loss`],
//! [`Model::accuracy`]) wrap them.

use crate::dataset::Dataset;
use crate::linalg::{
    add_row_bias, col_sums, col_sums_acc, gemm_nn, gemm_nt, gemm_tn, gemm_tn_acc,
    relu_backward_batch, relu_batch_in_place, transpose, Matrix,
};
use crate::loss::{eval_logits_batch, softmax_cross_entropy_batch};
use crate::params::FlatParams;
use crate::rng::Rng64;
use crate::workspace::Workspace;

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
/// persistent worker pool while each worker mutates only its own model instance.
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

    /// In-place SGD step `w ← w − γ · grad`, avoiding the
    /// params/axpy/set_params round-trip (two full parameter copies).
    fn sgd_step(&mut self, learning_rate: f64, grad: &FlatParams);

    /// One fused mini-batch SGD step: forward + backward + parameter update
    /// in a single pass, returning the batch loss. The default implementation
    /// materialises the gradient and calls [`Model::sgd_step`]; the batched
    /// models override it to accumulate `−γ · δᵀ · X` directly into the
    /// weights ([`gemm_tn_acc`]), never touching a gradient buffer.
    fn sgd_batch_ws(
        &mut self,
        data: &Dataset,
        indices: &[usize],
        learning_rate: f64,
        ws: &mut Workspace,
    ) -> f64 {
        let mut grad = FlatParams(ws.take(self.num_params()));
        let loss = self.loss_and_gradient_ws(data, indices, ws, &mut grad);
        self.sgd_step(learning_rate, &grad);
        ws.give(grad.0);
        loss
    }

    /// Mean loss and accuracy over an entire dataset in one batched forward
    /// pass over the dataset's contiguous feature matrix (no per-sample
    /// gather, no gradient work).
    fn evaluate_ws(&self, data: &Dataset, ws: &mut Workspace) -> EvalStats;

    /// Predicted class of a single feature vector.
    fn predict(&self, x: &[f64]) -> usize;

    /// Clone into a boxed trait object (mechanisms keep one model instance
    /// per worker).
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

    /// Average loss over an entire dataset (provided method).
    fn loss(&self, data: &Dataset) -> f64 {
        assert!(!data.is_empty(), "loss over an empty dataset");
        self.evaluate_ws(data, &mut Workspace::new()).loss
    }

    /// Average gradient over the given indices (provided method).
    fn gradient(&self, data: &Dataset, indices: &[usize]) -> FlatParams {
        self.loss_and_gradient(data, indices).1
    }

    /// Full-batch gradient over the entire dataset (the `∇f_i(w)` of Eq. (4)).
    fn full_gradient(&self, data: &Dataset) -> FlatParams {
        let indices: Vec<usize> = (0..data.len()).collect();
        self.gradient(data, &indices)
    }

    /// Classification accuracy on a dataset (provided method).
    fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        self.evaluate_ws(data, &mut Workspace::new()).accuracy
    }
}

impl Clone for Box<dyn Model> {
    fn clone(&self) -> Self {
        self.clone_model()
    }
}

/// Gather the feature rows and labels of `indices` into workspace buffers.
/// Returns `(features B × d, labels)`.
fn gather_batch(data: &Dataset, indices: &[usize], ws: &mut Workspace) -> (Vec<f64>, Vec<usize>) {
    let d = data.num_features();
    let mut x = ws.take(indices.len() * d);
    let mut labels = ws.take_indices(indices.len());
    for (row, &i) in indices.iter().enumerate() {
        x[row * d..(row + 1) * d].copy_from_slice(data.sample(i));
        labels.push(data.label(i));
    }
    (x, labels)
}

/// Multinomial logistic regression with optional L2 (ridge) regularisation.
///
/// With `l2 > 0` the loss is `l2`-strongly convex and `(L_max + l2)`-smooth,
/// satisfying Assumptions 1–2 of the paper, so Theorem 1 applies exactly.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    weights: Matrix, // classes x features
    bias: Vec<f64>,
    l2: f64,
}

impl LogisticRegression {
    /// Create a zero-initialised model (zero initialisation is the global
    /// optimum basin for convex losses, and matches the paper's `w_0`).
    pub fn new(num_features: usize, num_classes: usize) -> Self {
        Self {
            weights: Matrix::zeros(num_classes, num_features),
            bias: vec![0.0; num_classes],
            l2: 0.0,
        }
    }

    /// Set the L2 regularisation strength (builder-style).
    pub fn with_l2(mut self, l2: f64) -> Self {
        assert!(l2 >= 0.0, "l2 must be non-negative");
        self.l2 = l2;
        self
    }

    /// The L2 regularisation strength.
    pub fn l2(&self) -> f64 {
        self.l2
    }

    /// The `classes × features` weight matrix (read-only; used by the
    /// per-sample reference implementation in `tests/reference/`).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The per-class bias vector (read-only).
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Batched forward + loss head shared by the gradient and fused-update
    /// paths: gathers the batch, computes `Z = X · Wᵀ + b` through the
    /// k-major kernel, and transforms `Z` in place into the scaled head
    /// delta. Returns `(x, labels, delta, summed unscaled loss)`; the three
    /// buffers come from `ws` and must be given back.
    fn forward_head(
        &self,
        data: &Dataset,
        indices: &[usize],
        ws: &mut Workspace,
    ) -> (Vec<f64>, Vec<usize>, Vec<f64>, f64) {
        assert!(!indices.is_empty(), "gradient over an empty batch");
        assert_eq!(
            data.num_features(),
            self.num_features(),
            "dataset feature dimension mismatch"
        );
        let k = self.num_classes();
        let d = self.num_features();
        let bsz = indices.len();
        let (x, labels) = gather_batch(data, indices, ws);
        let mut wt = ws.take(k * d);
        transpose(self.weights.as_slice(), &mut wt, k, d);
        let mut z = ws.take(bsz * k);
        gemm_nn(&x, &wt, &mut z, bsz, k, d);
        ws.give(wt);
        add_row_bias(&mut z, &self.bias, bsz);
        // Head: Z becomes delta = (softmax − onehot) / B in place.
        let loss_sum = softmax_cross_entropy_batch(&mut z, &labels, k, 1.0 / bsz as f64);
        (x, labels, z, loss_sum)
    }

    fn logits(&self, x: &[f64]) -> Vec<f64> {
        let mut z = self.weights.matvec(x);
        for (zi, b) in z.iter_mut().zip(self.bias.iter()) {
            *zi += b;
        }
        z
    }

    fn num_classes(&self) -> usize {
        self.bias.len()
    }

    fn num_features(&self) -> usize {
        self.weights.cols()
    }
}

impl Model for LogisticRegression {
    fn num_params(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    fn params_into(&self, out: &mut FlatParams) {
        assert_eq!(out.dim(), self.num_params(), "parameter size mismatch");
        let wlen = self.weights.rows() * self.weights.cols();
        out.0[..wlen].copy_from_slice(self.weights.as_slice());
        out.0[wlen..].copy_from_slice(&self.bias);
    }

    fn set_params(&mut self, params: &FlatParams) {
        assert_eq!(params.dim(), self.num_params(), "parameter size mismatch");
        let wlen = self.weights.rows() * self.weights.cols();
        self.weights
            .as_mut_slice()
            .copy_from_slice(&params.0[..wlen]);
        self.bias.copy_from_slice(&params.0[wlen..]);
    }

    fn loss_and_gradient_ws(
        &self,
        data: &Dataset,
        indices: &[usize],
        ws: &mut Workspace,
        grad: &mut FlatParams,
    ) -> f64 {
        assert_eq!(grad.dim(), self.num_params(), "gradient size mismatch");
        let k = self.num_classes();
        let d = self.num_features();
        let bsz = indices.len();

        let (x, labels, z, loss_sum) = self.forward_head(data, indices, ws);

        // Backward: ∇W = δᵀ · X, ∇b = column sums of δ, written straight into
        // the flat gradient.
        let (gw, gb) = grad.0.split_at_mut(k * d);
        gemm_tn(&z, &x, gw, k, d, bsz);
        col_sums(&z, bsz, gb);

        let mut loss = loss_sum / bsz as f64;
        // L2 regularisation on the weight matrix (not the bias).
        if self.l2 > 0.0 {
            loss += 0.5 * self.l2 * self.weights.frobenius_sq();
            for (g, w) in gw.iter_mut().zip(self.weights.as_slice().iter()) {
                *g += self.l2 * w;
            }
        }
        ws.give(x);
        ws.give(z);
        ws.give_indices(labels);
        loss
    }

    fn sgd_step(&mut self, learning_rate: f64, grad: &FlatParams) {
        assert_eq!(grad.dim(), self.num_params(), "gradient size mismatch");
        let wlen = self.weights.rows() * self.weights.cols();
        crate::linalg::axpy(-learning_rate, &grad.0[..wlen], self.weights.as_mut_slice());
        crate::linalg::axpy(-learning_rate, &grad.0[wlen..], &mut self.bias);
    }

    fn sgd_batch_ws(
        &mut self,
        data: &Dataset,
        indices: &[usize],
        learning_rate: f64,
        ws: &mut Workspace,
    ) -> f64 {
        let k = self.num_classes();
        let d = self.num_features();
        let bsz = indices.len();

        let (x, labels, z, loss_sum) = self.forward_head(data, indices, ws);

        let mut loss = loss_sum / bsz as f64;
        if self.l2 > 0.0 {
            loss += 0.5 * self.l2 * self.weights.frobenius_sq();
            // The −γ · l2 · W part of the step, applied to the old weights.
            self.weights.scale(1.0 - learning_rate * self.l2);
        }
        // Fused update: W += −γ · δᵀ · X, b += −γ · Σ δ.
        gemm_tn_acc(
            &z,
            &x,
            self.weights.as_mut_slice(),
            k,
            d,
            bsz,
            -learning_rate,
        );
        col_sums_acc(&z, bsz, &mut self.bias, -learning_rate);
        ws.give(x);
        ws.give(z);
        ws.give_indices(labels);
        loss
    }

    fn evaluate_ws(&self, data: &Dataset, ws: &mut Workspace) -> EvalStats {
        if data.is_empty() {
            return EvalStats {
                loss: 0.0,
                accuracy: 0.0,
            };
        }
        assert_eq!(
            data.num_features(),
            self.num_features(),
            "dataset feature dimension mismatch"
        );
        let k = self.num_classes();
        let d = self.num_features();
        let n = data.len();
        let mut wt = ws.take(k * d);
        transpose(self.weights.as_slice(), &mut wt, k, d);
        let mut z = ws.take(EVAL_CHUNK.min(n) * k);
        let mut labels = ws.take_indices(EVAL_CHUNK.min(n));
        let mut loss_sum = 0.0;
        let mut correct = 0usize;
        let features = data.features().as_slice();
        let mut r0 = 0;
        while r0 < n {
            let rows = (n - r0).min(EVAL_CHUNK);
            let x = &features[r0 * d..(r0 + rows) * d];
            let zc = &mut z[..rows * k];
            gemm_nn(x, &wt, zc, rows, k, d);
            add_row_bias(zc, &self.bias, rows);
            labels.clear();
            labels.extend((r0..r0 + rows).map(|r| data.label(r)));
            let (l, c) = eval_logits_batch(zc, &labels, k);
            loss_sum += l;
            correct += c;
            r0 += rows;
        }
        ws.give(wt);
        ws.give(z);
        ws.give_indices(labels);
        let mut loss = loss_sum / n as f64;
        if self.l2 > 0.0 {
            loss += 0.5 * self.l2 * self.weights.frobenius_sq();
        }
        EvalStats {
            loss,
            accuracy: correct as f64 / n as f64,
        }
    }

    fn predict(&self, x: &[f64]) -> usize {
        let z = self.logits(x);
        argmax(&z)
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

/// One dense layer of an [`Mlp`].
#[derive(Debug, Clone)]
struct DenseLayer {
    weights: Matrix, // out x in
    bias: Vec<f64>,
}

impl DenseLayer {
    fn new(input: usize, output: usize, rng: &mut Rng64) -> Self {
        // He initialisation, appropriate for ReLU activations.
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

/// A fully-connected ReLU network with a softmax cross-entropy head.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
    num_features: usize,
    num_classes: usize,
}

impl Mlp {
    /// Create an MLP with the given hidden-layer widths. `hidden` may be
    /// empty, in which case the model degenerates to (unregularised)
    /// multinomial logistic regression.
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
            .map(|w| DenseLayer::new(w[0], w[1], rng))
            .collect();
        Self {
            layers,
            num_features,
            num_classes,
        }
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

    /// Input feature dimensionality the network expects.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
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

    /// Widest activation any batch row produces (used to size the ping-pong
    /// delta buffers).
    fn max_width(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.out_width())
            .max()
            .expect("an Mlp always has at least one layer")
    }

    /// Flat-gradient offset of layer `l`'s weight block.
    fn grad_offset(&self, l: usize) -> usize {
        self.layers[..l].iter().map(|x| x.num_params()).sum()
    }

    /// Transpose every layer's weights into one workspace buffer (O(q)) so
    /// the forward GEMMs run through the vectorised k-major kernel. Layer
    /// `l`'s block starts at the running sum of the preceding
    /// `in_width · out_width` lengths — the same walk the forward passes do.
    fn transpose_weights(&self, ws: &mut Workspace) -> Vec<f64> {
        let wlen_total: usize = self
            .layers
            .iter()
            .map(|l| l.in_width() * l.out_width())
            .sum();
        let mut wts = ws.take(wlen_total);
        let mut off = 0;
        for layer in &self.layers {
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

    /// Batched forward pass shared by the gradient and fused-update paths.
    ///
    /// Gathers the batch, transposes every layer's weights once, and runs one
    /// GEMM per layer; on return `acts` holds every layer's activations in
    /// one contiguous buffer (`bounds` marks the segments; the last segment
    /// carries the logits) and `wts` the transposed weights. All four
    /// returned buffers come from `ws` and must be given back.
    #[allow(clippy::type_complexity)]
    fn batch_forward(
        &self,
        data: &Dataset,
        indices: &[usize],
        ws: &mut Workspace,
    ) -> (Vec<f64>, Vec<usize>, Vec<usize>, Vec<f64>) {
        let bsz = indices.len();
        let depth = self.layers.len();
        let mut bounds = ws.take_indices(depth + 2);
        bounds.push(0);
        let mut total = bsz * self.num_features;
        bounds.push(total);
        for layer in &self.layers {
            total += bsz * layer.out_width();
            bounds.push(total);
        }
        let mut acts = ws.take(total);
        let mut labels = ws.take_indices(bsz);
        {
            let d = self.num_features;
            let x = &mut acts[..bsz * d];
            for (row, &i) in indices.iter().enumerate() {
                x[row * d..(row + 1) * d].copy_from_slice(data.sample(i));
                labels.push(data.label(i));
            }
        }

        let wts = self.transpose_weights(ws);

        // Forward pass, one GEMM per layer over the whole batch.
        let mut woff = 0;
        for (l, layer) in self.layers.iter().enumerate() {
            let (head, tail) = acts.split_at_mut(bounds[l + 1]);
            let input = &head[bounds[l]..];
            let out = &mut tail[..bsz * layer.out_width()];
            let wlen = layer.in_width() * layer.out_width();
            gemm_nn(
                input,
                &wts[woff..woff + wlen],
                out,
                bsz,
                layer.out_width(),
                layer.in_width(),
            );
            woff += wlen;
            add_row_bias(out, &layer.bias, bsz);
            if l + 1 < depth {
                relu_batch_in_place(out);
            }
        }
        (acts, bounds, labels, wts)
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
        assert!(!indices.is_empty(), "gradient over an empty batch");
        assert_eq!(
            data.num_features(),
            self.num_features,
            "dataset feature dimension mismatch"
        );
        assert_eq!(grad.dim(), self.num_params(), "gradient size mismatch");
        let bsz = indices.len();
        let inv_n = 1.0 / bsz as f64;
        let depth = self.layers.len();
        let k = self.num_classes;

        let (mut acts, bounds, labels, wts) = self.batch_forward(data, indices, ws);

        // Head: logits → delta = (softmax − onehot) / B, in place.
        let loss_sum = {
            let logits = &mut acts[bounds[depth]..];
            softmax_cross_entropy_batch(logits, &labels, k, inv_n)
        };

        // Backward pass with two ping-pong delta buffers.
        let maxw = self.max_width();
        let mut cur = ws.take(bsz * maxw);
        let mut nxt = ws.take(bsz * maxw);
        cur[..bsz * k].copy_from_slice(&acts[bounds[depth]..]);
        for l in (0..depth).rev() {
            let layer = &self.layers[l];
            let (in_w, out_w) = (layer.in_width(), layer.out_width());
            let input = &acts[bounds[l]..bounds[l + 1]];
            let offset = self.grad_offset(l);
            let wlen = out_w * in_w;
            let (gw, gb) = grad.0[offset..offset + wlen + out_w].split_at_mut(wlen);
            gemm_tn(&cur[..bsz * out_w], input, gw, out_w, in_w, bsz);
            col_sums(&cur[..bsz * out_w], bsz, gb);
            if l > 0 {
                // δ_prev = δ · W, masked by the previous post-ReLU activation.
                gemm_nn(
                    &cur[..bsz * out_w],
                    layer.weights.as_slice(),
                    &mut nxt[..bsz * in_w],
                    bsz,
                    in_w,
                    out_w,
                );
                relu_backward_batch(&mut nxt[..bsz * in_w], input);
                std::mem::swap(&mut cur, &mut nxt);
            }
        }

        ws.give(acts);
        ws.give(wts);
        ws.give(cur);
        ws.give(nxt);
        ws.give_indices(labels);
        ws.give_indices(bounds);
        loss_sum * inv_n
    }

    fn sgd_step(&mut self, learning_rate: f64, grad: &FlatParams) {
        assert_eq!(grad.dim(), self.num_params(), "gradient size mismatch");
        let mut offset = 0;
        for l in &mut self.layers {
            let wlen = l.weights.rows() * l.weights.cols();
            crate::linalg::axpy(
                -learning_rate,
                &grad.0[offset..offset + wlen],
                l.weights.as_mut_slice(),
            );
            offset += wlen;
            crate::linalg::axpy(
                -learning_rate,
                &grad.0[offset..offset + l.bias.len()],
                &mut l.bias,
            );
            offset += l.bias.len();
        }
    }

    fn sgd_batch_ws(
        &mut self,
        data: &Dataset,
        indices: &[usize],
        learning_rate: f64,
        ws: &mut Workspace,
    ) -> f64 {
        assert!(!indices.is_empty(), "gradient over an empty batch");
        assert_eq!(
            data.num_features(),
            self.num_features,
            "dataset feature dimension mismatch"
        );
        let bsz = indices.len();
        let inv_n = 1.0 / bsz as f64;
        let depth = self.layers.len();
        let k = self.num_classes;

        let (mut acts, bounds, labels, wts) = self.batch_forward(data, indices, ws);
        let loss_sum = {
            let logits = &mut acts[bounds[depth]..];
            softmax_cross_entropy_batch(logits, &labels, k, inv_n)
        };

        // Fused backward: per layer, propagate the delta through the *old*
        // weights first, then accumulate −γ · δᵀ · A straight into the
        // weights and −γ · Σ δ into the bias — no gradient buffer.
        let maxw = self.max_width();
        let mut cur = ws.take(bsz * maxw);
        let mut nxt = ws.take(bsz * maxw);
        cur[..bsz * k].copy_from_slice(&acts[bounds[depth]..]);
        for l in (0..depth).rev() {
            let (in_w, out_w) = (self.layers[l].in_width(), self.layers[l].out_width());
            let input = &acts[bounds[l]..bounds[l + 1]];
            if l > 0 {
                gemm_nn(
                    &cur[..bsz * out_w],
                    self.layers[l].weights.as_slice(),
                    &mut nxt[..bsz * in_w],
                    bsz,
                    in_w,
                    out_w,
                );
                relu_backward_batch(&mut nxt[..bsz * in_w], input);
            }
            let layer = &mut self.layers[l];
            gemm_tn_acc(
                &cur[..bsz * out_w],
                input,
                layer.weights.as_mut_slice(),
                out_w,
                in_w,
                bsz,
                -learning_rate,
            );
            col_sums_acc(&cur[..bsz * out_w], bsz, &mut layer.bias, -learning_rate);
            if l > 0 {
                std::mem::swap(&mut cur, &mut nxt);
            }
        }

        ws.give(acts);
        ws.give(wts);
        ws.give(cur);
        ws.give(nxt);
        ws.give_indices(labels);
        ws.give_indices(bounds);
        loss_sum * inv_n
    }

    fn evaluate_ws(&self, data: &Dataset, ws: &mut Workspace) -> EvalStats {
        if data.is_empty() {
            return EvalStats {
                loss: 0.0,
                accuracy: 0.0,
            };
        }
        assert_eq!(
            data.num_features(),
            self.num_features,
            "dataset feature dimension mismatch"
        );
        let n = data.len();
        let k = self.num_classes;
        let depth = self.layers.len();
        let chunk = EVAL_CHUNK.min(n);
        let maxw = self.max_width();
        let mut cur = ws.take(chunk * maxw);
        let mut nxt = ws.take(chunk * maxw);
        let mut labels = ws.take_indices(chunk);
        // Transpose every layer's weights once for the whole evaluation.
        let wts = self.transpose_weights(ws);
        let features = data.features().as_slice();
        let d = self.num_features;
        let mut loss_sum = 0.0;
        let mut correct = 0usize;
        let mut r0 = 0;
        while r0 < n {
            let rows = (n - r0).min(EVAL_CHUNK);
            let mut woff = 0;
            // First layer reads the dataset's feature matrix directly.
            {
                let layer = &self.layers[0];
                let x = &features[r0 * d..(r0 + rows) * d];
                let out = &mut cur[..rows * layer.out_width()];
                let wlen = layer.in_width() * layer.out_width();
                gemm_nn(x, &wts[..wlen], out, rows, layer.out_width(), d);
                woff += wlen;
                add_row_bias(out, &layer.bias, rows);
                if depth > 1 {
                    relu_batch_in_place(out);
                }
            }
            for (l, layer) in self.layers.iter().enumerate().skip(1) {
                let input = &cur[..rows * layer.in_width()];
                let out = &mut nxt[..rows * layer.out_width()];
                let wlen = layer.in_width() * layer.out_width();
                gemm_nn(
                    input,
                    &wts[woff..woff + wlen],
                    out,
                    rows,
                    layer.out_width(),
                    layer.in_width(),
                );
                woff += wlen;
                add_row_bias(out, &layer.bias, rows);
                if l + 1 < depth {
                    relu_batch_in_place(out);
                }
                std::mem::swap(&mut cur, &mut nxt);
            }
            labels.clear();
            labels.extend((r0..r0 + rows).map(|r| data.label(r)));
            let (l, c) = eval_logits_batch(&cur[..rows * k], &labels, k);
            loss_sum += l;
            correct += c;
            r0 += rows;
        }
        ws.give(cur);
        ws.give(nxt);
        ws.give(wts);
        ws.give_indices(labels);
        EvalStats {
            loss: loss_sum / n as f64,
            accuracy: correct as f64 / n as f64,
        }
    }

    fn predict(&self, x: &[f64]) -> usize {
        assert_eq!(x.len(), self.num_features, "feature dimension mismatch");
        let depth = self.layers.len();
        let mut cur = x.to_vec();
        for (l, layer) in self.layers.iter().enumerate() {
            let mut z = vec![0.0; layer.out_width()];
            gemm_nt(
                &cur,
                layer.weights.as_slice(),
                &mut z,
                1,
                layer.out_width(),
                layer.in_width(),
            );
            for (zv, b) in z.iter_mut().zip(layer.bias.iter()) {
                *zv += b;
            }
            if l + 1 < depth {
                relu_batch_in_place(&mut z);
            }
            cur = z;
        }
        argmax(&cur)
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate() {
        if v > xs[best] {
            best = i;
        }
    }
    best
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
                Box::new(LogisticRegression::new(num_features, num_classes).with_l2(1e-3))
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

    #[test]
    fn logreg_param_roundtrip() {
        let data = toy_data();
        let mut m = LogisticRegression::new(data.num_features(), data.num_classes());
        let mut p = m.params();
        assert_eq!(p.dim(), m.num_params());
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

    #[test]
    fn logreg_gradient_matches_finite_difference() {
        let data = toy_data();
        let mut rng = Rng64::seed_from(2);
        let mut m = LogisticRegression::new(data.num_features(), data.num_classes()).with_l2(0.01);
        // Random starting point so gradients are non-trivial.
        let mut p = m.params();
        for v in p.0.iter_mut() {
            *v = rng.gaussian_with(0.0, 0.1);
        }
        m.set_params(&p);
        let indices: Vec<usize> = (0..10).collect();
        let (_, g) = m.loss_and_gradient(&data, &indices);
        let eps = 1e-5;
        // Spot-check a handful of coordinates. Finite differences use the
        // batch loss, so compute it through loss_and_gradient (the loss()
        // shortcut evaluates the whole dataset).
        let batch_loss = |model: &LogisticRegression| model.loss_and_gradient(&data, &indices).0;
        for &coord in &[0usize, 7, 63, 100, p.dim() - 1] {
            let mut plus = p.clone();
            plus.0[coord] += eps;
            let mut minus = p.clone();
            minus.0[coord] -= eps;
            let mut mp = m.clone();
            mp.set_params(&plus);
            let mut mm = m.clone();
            mm.set_params(&minus);
            let fd = (batch_loss(&mp) - batch_loss(&mm)) / (2.0 * eps);
            assert!(
                (fd - g.0[coord]).abs() < 1e-5,
                "coord {coord}: fd {fd} vs analytic {}",
                g.0[coord]
            );
        }
    }

    #[test]
    fn mlp_gradient_matches_finite_difference() {
        let data = toy_data();
        let mut rng = Rng64::seed_from(3);
        let m = Mlp::new(data.num_features(), &[6], data.num_classes(), &mut rng);
        let p = m.params();
        let indices: Vec<usize> = (0..6).collect();
        let (_, g) = m.loss_and_gradient(&data, &indices);
        let eps = 1e-5;
        let batch_loss = |model: &Mlp| model.loss_and_gradient(&data, &indices).0;
        for &coord in &[0usize, 11, 101, p.dim() - 1] {
            let mut plus = p.clone();
            plus.0[coord] += eps;
            let mut minus = p.clone();
            minus.0[coord] -= eps;
            let mut mp = m.clone();
            mp.set_params(&plus);
            let mut mm = m.clone();
            mm.set_params(&minus);
            let fd = (batch_loss(&mp) - batch_loss(&mm)) / (2.0 * eps);
            assert!(
                (fd - g.0[coord]).abs() < 1e-4,
                "coord {coord}: fd {fd} vs analytic {}",
                g.0[coord]
            );
        }
    }

    #[test]
    fn gradient_descent_reduces_loss_and_beats_chance() {
        let data = toy_data();
        let mut m = LogisticRegression::new(data.num_features(), data.num_classes());
        let initial_loss = m.loss(&data);
        let indices: Vec<usize> = (0..data.len()).collect();
        for _ in 0..60 {
            let g = m.gradient(&data, &indices);
            m.sgd_step(0.5, &g);
        }
        assert!(m.loss(&data) < initial_loss * 0.5);
        assert!(m.accuracy(&data) > 0.5, "accuracy {}", m.accuracy(&data));
    }

    #[test]
    fn mlp_trains_above_chance() {
        let data = toy_data();
        let mut rng = Rng64::seed_from(4);
        let mut m = Mlp::new(data.num_features(), &[32], data.num_classes(), &mut rng);
        let indices: Vec<usize> = (0..data.len()).collect();
        for _ in 0..80 {
            let g = m.gradient(&data, &indices);
            m.sgd_step(0.2, &g);
        }
        assert!(m.accuracy(&data) > 0.5, "accuracy {}", m.accuracy(&data));
    }

    #[test]
    fn fused_sgd_batch_matches_gradient_then_step() {
        let data = toy_data();
        let mut rng = Rng64::seed_from(31);
        let mut ws = Workspace::new();
        let indices: Vec<usize> = (0..24).collect();
        let lr = 0.21;

        // MLP: fused path vs materialised gradient + step.
        let mut fused = Mlp::new(data.num_features(), &[11, 7], data.num_classes(), &mut rng);
        let mut split = fused.clone();
        let loss_f = fused.sgd_batch_ws(&data, &indices, lr, &mut ws);
        let (loss_s, g) = split.loss_and_gradient(&data, &indices);
        split.sgd_step(lr, &g);
        assert!((loss_f - loss_s).abs() < 1e-12);
        for (a, b) in fused.params().0.iter().zip(split.params().0.iter()) {
            assert!((a - b).abs() < 1e-12, "fused {a} vs split {b}");
        }

        // Logistic regression with L2 (exercises the scale-then-accumulate
        // order of the fused regulariser).
        let mut lr_fused =
            LogisticRegression::new(data.num_features(), data.num_classes()).with_l2(0.03);
        let mut p = lr_fused.params();
        for v in p.0.iter_mut() {
            *v = rng.gaussian_with(0.0, 0.2);
        }
        lr_fused.set_params(&p);
        let mut lr_split = lr_fused.clone();
        let loss_f = lr_fused.sgd_batch_ws(&data, &indices, lr, &mut ws);
        let (loss_s, g) = lr_split.loss_and_gradient(&data, &indices);
        lr_split.sgd_step(lr, &g);
        assert!((loss_f - loss_s).abs() < 1e-12);
        for (a, b) in lr_fused.params().0.iter().zip(lr_split.params().0.iter()) {
            assert!((a - b).abs() < 1e-12, "fused {a} vs split {b}");
        }
    }

    #[test]
    fn sgd_step_matches_manual_axpy_roundtrip() {
        let data = toy_data();
        let mut rng = Rng64::seed_from(12);
        let mut a = Mlp::new(data.num_features(), &[9, 7], data.num_classes(), &mut rng);
        let mut b = a.clone();
        let indices: Vec<usize> = (0..16).collect();
        let g = a.gradient(&data, &indices);
        a.sgd_step(0.37, &g);
        let mut p = b.params();
        p.axpy(-0.37, &g);
        b.set_params(&p);
        assert_eq!(a.params(), b.params());
    }

    #[test]
    fn zero_initialised_logreg_has_uniform_loss() {
        let data = toy_data();
        let m = LogisticRegression::new(data.num_features(), data.num_classes());
        let expected = (data.num_classes() as f64).ln();
        assert!((m.loss(&data) - expected).abs() < 1e-9);
    }

    #[test]
    fn evaluate_matches_loss_and_accuracy() {
        let data = toy_data();
        let mut rng = Rng64::seed_from(21);
        let m = Mlp::new(data.num_features(), &[12], data.num_classes(), &mut rng);
        let stats = m.evaluate_ws(&data, &mut Workspace::new());
        assert!((stats.loss - m.loss(&data)).abs() < 1e-12);
        assert!((stats.accuracy - m.accuracy(&data)).abs() < 1e-12);
        // Per-sample predictions agree with the batched accuracy.
        let correct = (0..data.len())
            .filter(|&i| m.predict(data.sample(i)) == data.label(i))
            .count();
        assert!((stats.accuracy - correct as f64 / data.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn evaluation_includes_l2_term_like_training_loss() {
        let data = toy_data();
        let mut rng = Rng64::seed_from(22);
        let mut m = LogisticRegression::new(data.num_features(), data.num_classes()).with_l2(0.05);
        let mut p = m.params();
        for v in p.0.iter_mut() {
            *v = rng.gaussian_with(0.0, 0.2);
        }
        m.set_params(&p);
        let all: Vec<usize> = (0..data.len()).collect();
        let (train_loss, _) = m.loss_and_gradient(&data, &all);
        assert!((m.loss(&data) - train_loss).abs() < 1e-10);
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
    }

    #[test]
    fn clone_model_preserves_params() {
        let mut rng = Rng64::seed_from(6);
        let m = Mlp::new(10, &[4], 3, &mut rng);
        let c = m.clone_model();
        assert_eq!(c.params(), m.params());
    }
}
