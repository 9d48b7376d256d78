//! The simulated federated-learning system.
//!
//! Everything the paper's evaluation varies — dataset, model, worker count,
//! Non-IID partition, heterogeneity, wireless constants — is captured by
//! [`FlSystemConfig`]; [`FlSystemConfig::build`] materialises it into an
//! [`FlSystem`] (shards, worker profiles, channel model, evaluation set)
//! that every mechanism runs over, immutably. Keeping the system identical
//! across mechanisms is what makes the comparisons of Figs. 3–6 and Fig. 10
//! fair: only the grouping and the aggregation strategy differ.

use faults::{FaultPlan, FaultSpec};
use fedml::dataset::{Dataset, SyntheticSpec};
use fedml::model::{Model, ModelKind};
use fedml::optimizer::SgdConfig;
use fedml::partition::Partitioner;
use fedml::rng::Rng64;
use grouping::worker_info::WorkerInfo;
use simcore::worker::{HeterogeneityModel, WorkerProfile};
use wireless::channel::ChannelModel;
use wireless::timing::WirelessConfig;

/// Salt for the fault-plan fork of the system construction stream. Any
/// value works as long as it is fixed; committed runs depend on it.
const FAULT_STREAM_SALT: u64 = 0xFA17;

/// Full description of one experimental setup.
#[derive(Debug, Clone)]
pub struct FlSystemConfig {
    /// Synthetic dataset specification (class count, difficulty, size).
    pub dataset: SyntheticSpec,
    /// Test samples generated per class for evaluation.
    pub test_per_class: usize,
    /// Which model family to train.
    pub model: ModelKind,
    /// Number of workers `N`.
    pub num_workers: usize,
    /// How data is split across workers.
    pub partitioner: Partitioner,
    /// Heterogeneity model for local-training times (`κ_i ~ U[1,10]`).
    pub heterogeneity: HeterogeneityModel,
    /// Base local-training seconds per sample per round (`l̂_i / d_i`).
    pub base_time_per_sample: f64,
    /// Wireless/physical-layer constants.
    pub wireless: WirelessConfig,
    /// Local SGD configuration (learning rate `γ`, batch size, epochs).
    pub sgd: SgdConfig,
    /// Injected fault statistics ([`FaultSpec::none`] by default: a
    /// fault-free system).
    pub faults: FaultSpec,
}

impl FlSystemConfig {
    /// The paper's headline workload at laptop scale: "LR" (2-hidden-layer
    /// fully-connected net) on the MNIST-like dataset, 100 label-skewed
    /// workers, `κ_i ~ U[1,10]`.
    ///
    /// Physical-layer calibration: the paper uses σ₀² = 1 W with multi-
    /// million-parameter models and thousands of samples per group; our
    /// surrogate models are ~10⁴ parameters and shards are tens of samples,
    /// so the same absolute noise power would swamp the superposed signal
    /// (the post-denoising error of Eq. (17) scales with
    /// `√q·σ₀ / (σ_t D_{j_t} √η_t)`). We therefore scale the noise variance
    /// down to 10⁻⁵ W so that the *relative* aggregation error matches the
    /// regime the paper operates in, and keep every other constant
    /// (B = 1 MHz, Ê_i = 10 J) at the paper's values. See DESIGN.md §5.
    pub fn mnist_lr() -> Self {
        Self {
            dataset: SyntheticSpec::mnist_like().with_samples_per_class(300),
            test_per_class: 60,
            model: ModelKind::PaperLr,
            num_workers: 100,
            partitioner: Partitioner::LabelSkew,
            heterogeneity: HeterogeneityModel::default(),
            base_time_per_sample: 0.35,
            wireless: WirelessConfig {
                noise_variance: 1.0e-5,
                ..WirelessConfig::default()
            },
            sgd: SgdConfig {
                learning_rate: 0.15,
                batch_size: 16,
                local_epochs: 1,
            },
            faults: FaultSpec::none(),
        }
    }

    /// A small, fast variant of [`FlSystemConfig::mnist_lr`] used by unit
    /// tests and doc examples (10 workers, small shards).
    pub fn mnist_lr_quick() -> Self {
        let mut cfg = Self::mnist_lr();
        cfg.dataset = SyntheticSpec::mnist_like().with_samples_per_class(40);
        cfg.test_per_class = 20;
        cfg.num_workers = 10;
        cfg
    }

    /// CNN surrogate on the MNIST-like dataset (Figs. 4, 8, 9, 10).
    pub fn mnist_cnn() -> Self {
        let mut cfg = Self::mnist_lr();
        cfg.model = ModelKind::CnnMnist;
        cfg
    }

    /// CNN surrogate on the CIFAR-10-like dataset (Figs. 5, 9).
    pub fn cifar_cnn() -> Self {
        let mut cfg = Self::mnist_lr();
        cfg.dataset = SyntheticSpec::cifar10_like().with_samples_per_class(300);
        cfg.model = ModelKind::CnnCifar;
        cfg.sgd.learning_rate = 0.1;
        cfg
    }

    /// VGG-16 surrogate on the ImageNet-100-like dataset (Fig. 6).
    pub fn imagenet_vgg() -> Self {
        let mut cfg = Self::mnist_lr();
        cfg.dataset = SyntheticSpec::imagenet100_like().with_samples_per_class(40);
        cfg.test_per_class = 8;
        cfg.model = ModelKind::Vgg16;
        cfg.sgd.learning_rate = 0.1;
        cfg
    }

    /// Build the runtime system: generate data, partition it, draw worker
    /// profiles and assemble the channel model. Deterministic given `rng`.
    pub fn build(&self, rng: &mut Rng64) -> FlSystem {
        assert!(self.num_workers > 0, "need at least one worker");
        assert!(
            self.base_time_per_sample > 0.0,
            "base time per sample must be positive"
        );
        self.sgd.validate();
        self.wireless.validate();
        self.faults.validate();

        let (train, test) = self.dataset.generate_split(self.test_per_class, rng);
        let shards_idx = self.partitioner.partition(&train, self.num_workers, rng);
        let (train, shards) = train.into_shards(&shards_idx);
        let data_sizes: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        let profiles = WorkerProfile::generate(
            &data_sizes,
            self.base_time_per_sample,
            &self.heterogeneity,
            rng,
        );
        let worker_infos: Vec<WorkerInfo> = profiles
            .iter()
            .zip(shards.iter())
            .map(|(p, shard)| {
                WorkerInfo::new(
                    p.id,
                    p.local_training_time(),
                    shard.len(),
                    shard.label_counts(),
                )
            })
            .collect();
        let template = self
            .model
            .build(train.num_features(), train.num_classes(), rng);
        // Compile the fault traces LAST, from a salted fork of the
        // construction stream: the fault axis hangs off the system seed, but
        // every earlier draw (split, shards, profiles, model init) is
        // finished, so enabling faults never perturbs the system itself —
        // and a trivial spec skips the fork entirely, leaving the zero-fault
        // stream byte-identical to builds that predate fault injection.
        let faults = if self.faults.is_none() {
            FaultPlan::none()
        } else {
            FaultPlan::compile(
                &self.faults,
                self.num_workers,
                &mut rng.fork(FAULT_STREAM_SALT),
            )
        };
        FlSystem {
            config: self.clone(),
            train,
            test,
            shards,
            profiles,
            worker_infos,
            channel: ChannelModel::default_rayleigh(self.num_workers),
            template,
            faults,
        }
    }
}

/// A fully materialised federated-learning system, shared (immutably) by all
/// mechanisms so comparisons differ only in the aggregation strategy.
pub struct FlSystem {
    /// The configuration this system was built from.
    pub config: FlSystemConfig,
    /// The whole training dataset, stored once, in shard order: worker 0's
    /// samples first. Workers read it only through their shards.
    pub train: Dataset,
    /// The held-out evaluation dataset used for the loss/accuracy traces.
    pub test: Dataset,
    /// Per-worker local shards `D_i`: each a window of [`FlSystem::train`]'s
    /// storage holding the worker's samples in the partitioner's order.
    pub shards: Vec<Dataset>,
    /// Per-worker latency/heterogeneity profiles.
    pub(crate) profiles: Vec<WorkerProfile>,
    /// Per-worker summaries consumed by the grouping algorithms.
    pub worker_infos: Vec<WorkerInfo>,
    /// The wireless channel model (per-round fading gains).
    pub channel: ChannelModel,
    /// The initial model (also serves as the gradient-evaluation template).
    pub template: Box<dyn Model>,
    /// Compiled per-worker fault traces ([`FaultPlan::none`], whose every
    /// answer is the neutral one, when the config injects no faults).
    pub faults: FaultPlan,
}

impl FlSystem {
    /// Number of workers `N`.
    pub fn num_workers(&self) -> usize {
        self.shards.len()
    }

    /// Total data size `D`.
    pub fn total_data(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Model dimension `q` (the number of scalars transmitted per upload).
    pub fn model_dim(&self) -> usize {
        self.template.num_params()
    }

    /// A fresh clone of the initial model.
    pub fn fresh_model(&self) -> Box<dyn Model> {
        self.template.clone_model()
    }

    /// Local training latency `l_i` of worker `i` (seconds).
    pub fn local_training_time(&self, worker: usize) -> f64 {
        self.profiles[worker].local_training_time()
    }

    /// AirComp aggregation latency `L_u` for this system's model (Eq. (33)).
    pub fn aircomp_aggregation_time(&self) -> f64 {
        self.config
            .wireless
            .aircomp_aggregation_time(self.model_dim())
    }

    /// Workload label used in traces and reports.
    pub fn workload_label(&self) -> String {
        format!("{} on {}", self.config.model.label(), self.train.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_consistent_system() {
        let mut rng = Rng64::seed_from(1);
        let mut cfg = FlSystemConfig::mnist_lr_quick();
        cfg.num_workers = 10;
        let sys = cfg.build(&mut rng);
        assert_eq!(sys.num_workers(), 10);
        assert_eq!(sys.total_data(), sys.train.len());
        assert_eq!(sys.shards.len(), sys.profiles.len());
        assert_eq!(sys.worker_infos.len(), 10);
        assert!(sys.model_dim() > 0);
        assert!(sys.aircomp_aggregation_time() > 0.0);
        for (i, shard) in sys.shards.iter().enumerate() {
            assert!(!shard.is_empty(), "worker {i} has an empty shard");
            assert_eq!(sys.worker_infos[i].data_size, shard.len());
        }
    }

    #[test]
    fn label_skew_gives_single_label_shards() {
        let mut rng = Rng64::seed_from(2);
        let mut cfg = FlSystemConfig::mnist_lr_quick();
        cfg.num_workers = 10;
        let sys = cfg.build(&mut rng);
        for shard in &sys.shards {
            let nonzero = shard.label_counts().iter().filter(|&&c| c > 0).count();
            assert_eq!(nonzero, 1);
        }
    }

    #[test]
    fn build_is_deterministic_for_a_seed() {
        let cfg = FlSystemConfig::mnist_lr_quick();
        let a = cfg.build(&mut Rng64::seed_from(7));
        let b = cfg.build(&mut Rng64::seed_from(7));
        assert_eq!(a.worker_infos, b.worker_infos);
        assert_eq!(a.template.params(), b.template.params());
    }

    #[test]
    fn workload_presets_have_expected_shapes() {
        assert_eq!(FlSystemConfig::mnist_lr().dataset.num_classes, 10);
        assert_eq!(FlSystemConfig::cifar_cnn().dataset.num_classes, 10);
        assert_eq!(FlSystemConfig::imagenet_vgg().dataset.num_classes, 100);
        assert_eq!(FlSystemConfig::mnist_cnn().model, ModelKind::CnnMnist);
    }

    #[test]
    fn fault_injection_never_perturbs_the_system_itself() {
        // The fault stream hangs off the END of the construction stream, so
        // turning churn on must leave shards, profiles and the initial model
        // bit-identical to the fault-free build from the same seed.
        let clean_cfg = FlSystemConfig::mnist_lr_quick();
        let mut churn_cfg = clean_cfg.clone();
        churn_cfg.faults.dropout_rate = 0.01;
        churn_cfg.faults.mean_downtime = 40.0;
        let clean = clean_cfg.build(&mut Rng64::seed_from(11));
        let churn = churn_cfg.build(&mut Rng64::seed_from(11));
        assert_eq!(clean.worker_infos, churn.worker_infos);
        assert_eq!(clean.template.params(), churn.template.params());
        assert!(!clean.faults.enabled());
        assert!(churn.faults.enabled());
        assert_eq!(churn.faults.num_workers(), churn.num_workers());
    }

    #[test]
    fn heterogeneity_spreads_latencies() {
        let mut rng = Rng64::seed_from(3);
        let mut cfg = FlSystemConfig::mnist_lr_quick();
        cfg.num_workers = 20;
        let sys = cfg.build(&mut rng);
        let times: Vec<f64> = (0..20).map(|i| sys.local_training_time(i)).collect();
        let max = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > 1.5 * min, "expected heterogeneity, got {min}..{max}");
    }

    #[test]
    fn every_shard_is_a_window_of_the_one_training_matrix() {
        let sys = FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(4));
        let mut offset = 0;
        for shard in &sys.shards {
            assert!(std::ptr::eq(shard.sample(0), sys.train.sample(offset)));
            offset += shard.len();
        }
        assert_eq!(offset, sys.train.len());
    }

    /// The bits of a row, so `-0.0` and `0.0` count as different.
    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn shards_equal_an_independent_copying_construction() {
        let mut quick_vgg = FlSystemConfig::imagenet_vgg();
        quick_vgg.num_workers = 20;
        quick_vgg.dataset.samples_per_class = 20;
        let workloads = [
            FlSystemConfig::mnist_lr_quick(),
            FlSystemConfig::mnist_lr(),
            quick_vgg,
        ];
        let partitioners = [
            Partitioner::LabelSkew,
            Partitioner::Dirichlet { alpha: 0.3 },
            Partitioner::Iid,
        ];
        for base in &workloads {
            for partitioner in &partitioners {
                let mut cfg = base.clone();
                cfg.partitioner = partitioner.clone();
                let sys = cfg.build(&mut Rng64::seed_from(42));
                // The construction the system replaced: copy each shard's rows.
                let rng = &mut Rng64::seed_from(42);
                let (train, test) = cfg.dataset.generate_split(cfg.test_per_class, rng);
                let shards_idx = cfg.partitioner.partition(&train, cfg.num_workers, rng);
                assert_eq!(sys.shards.len(), shards_idx.len());
                for (shard, idx) in sys.shards.iter().zip(&shards_idx) {
                    let rows = idx.iter().flat_map(|&i| train.sample(i)).copied();
                    let features = fedml::linalg::Matrix::from_vec(
                        idx.len(),
                        train.num_features(),
                        rows.collect(),
                    );
                    let labels = idx.iter().map(|&i| train.label(i)).collect();
                    let copy = Dataset::new(features, labels, train.num_classes(), train.name());
                    assert_eq!(shard.len(), copy.len());
                    assert_eq!(shard.label_counts(), copy.label_counts());
                    for r in 0..copy.len() {
                        assert_eq!(bits(shard.sample(r)), bits(copy.sample(r)));
                        assert_eq!(shard.label(r), copy.label(r));
                    }
                }
                for r in 0..test.len() {
                    assert_eq!(bits(sys.test.sample(r)), bits(test.sample(r)));
                }
            }
        }
    }
}
