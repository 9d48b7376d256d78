//! # fedml — federated-learning ML substrate
//!
//! A dependency-light, pure-Rust machine-learning substrate used by the Air-FedGA
//! reproduction. The paper trains logistic regression, small CNNs and VGG-16 with
//! PyTorch; this crate provides the equivalent *training dynamics* (differentiable
//! models, SGD, cross-entropy loss, accuracy evaluation) together with synthetic
//! datasets and the Non-IID label-skew partitioner described in §VI.A of the paper.
//!
//! The crate is deliberately self-contained: dense linear algebra lives in
//! [`linalg`], flat parameter-vector arithmetic (the representation transmitted
//! over the air) in [`params`], models in [`model`], datasets and partitioning in
//! [`dataset`] / [`partition`], and the local SGD update of Eq. (4) in
//! [`optimizer`].
//!
//! ## The batched training engine
//!
//! Local training is the hot path of every run, so the numerical core is
//! organised around **whole-mini-batch execution**, and holds what a run
//! executes and nothing else:
//!
//! * [`linalg`] provides two register-tiled GEMM kernels that write into
//!   caller-provided buffers — [`linalg::gemm_nn`] (`Z = X · Wᵀ` over the
//!   once-transposed weights, forward; `δ_prev = δ · W`, backward data pass)
//!   and [`linalg::gemm_tn_acc`] (`W += −γ · δᵀ · X`, the weight gradient
//!   accumulated straight into the weights).
//! * [`model::Mlp`] is the one model: a ReLU network of any depth, logistic
//!   regression being the zero-hidden-layer case, with one layer-forward walk
//!   (training and evaluation) and one backward walk (the fused SGD step and
//!   the gradient oracle).
//! * [`workspace::Workspace`] is a checkout/checkin pool of scratch buffers;
//!   each training lane owns one, so after the first mini-batch the
//!   training loop performs **zero heap allocations**.
//! * [`model::Mlp::sgd_batch_ws`] / [`model::Mlp::evaluate_ws`] are the
//!   workspace-threaded entry points; [`optimizer::local_update_ws`] drives
//!   the first over the shuffled mini-batches of a worker's shard.
//!
//! The original per-sample implementation (matvec + rank-one update per
//! sample) survives as the reference trainer in `tests/reference/`, which the
//! property tests compare against to 1e-10 (per-batch gradients and whole
//! multi-epoch local updates).
//!
//! ## Quick example
//!
//! ```
//! use fedml::dataset::SyntheticSpec;
//! use fedml::model::Mlp;
//! use fedml::optimizer::{local_update_ws, SgdConfig};
//! use fedml::rng::Rng64;
//! use fedml::workspace::Workspace;
//!
//! let mut rng = Rng64::seed_from(7);
//! let mut ws = Workspace::new();
//! let data = SyntheticSpec::mnist_like().with_samples_per_class(30).generate(&mut rng);
//! let mut model = Mlp::new(data.num_features(), &[32], data.num_classes(), &mut rng);
//! let cfg = SgdConfig { learning_rate: 0.1, batch_size: 16, local_epochs: 1 };
//! let before = model.evaluate_ws(&data, &mut ws).loss;
//! local_update_ws(&mut model, &data, &cfg, &mut rng, &mut ws);
//! assert!(model.evaluate_ws(&data, &mut ws).loss < before);
//! ```

#![warn(missing_docs)]

pub mod dataset;
pub mod linalg;
mod loss;
pub mod model;
pub mod optimizer;
pub mod params;
pub mod partition;
pub mod rng;
pub mod workspace;

pub use dataset::{Dataset, SyntheticSpec};
pub use model::{EvalStats, Mlp};
pub use optimizer::{local_update_ws, SgdConfig};
pub use params::FlatParams;
pub use partition::{LabelDistribution, Partitioner};
pub use rng::Rng64;
pub use workspace::Workspace;
