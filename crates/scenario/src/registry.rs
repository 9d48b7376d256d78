//! The string-keyed component registry scenario files compose from.
//!
//! Every axis the paper's evaluation varies — dataset, model, partitioner,
//! heterogeneity model, wireless channel preset, mechanism, whole-workload
//! preset — is registered here under a stable name, so a scenario file can
//! compose combinations the hardcoded figure binaries never exposed (e.g. a
//! Dirichlet partition of the CIFAR-10-like dataset compared across all five
//! mechanisms).
//!
//! Each axis is one `(key, summary, value)` table, read by its lookup, by the
//! "available: …" list of an unknown-key error and by [`describe`]
//! (`airfedga-run --list-components`). Channel presets live with the
//! physical-layer constants instead ([`WirelessConfig::preset`]).
//! Parameterised keys embed their parameters: the row `dirichlet:<alpha>`
//! parses `dirichlet:0.5` (α = 0.5), and `uniform:<lo>:<hi>` parses
//! `uniform:1:10` (`κ_i ~ U[1, 10]`).

use crate::ScenarioError;
use airfedga::system::FlSystemConfig;
use experiments::harness::MechanismChoice;
use faults::FaultSpec;
use fedml::dataset::SyntheticSpec;
use fedml::model::ModelKind;
use fedml::partition::Partitioner;
use simcore::worker::HeterogeneityModel;
use wireless::timing::WirelessConfig;

/// One registry axis: `(key, summary, value)` rows in `--list-components`
/// order.
type Table<T> = [(&'static str, &'static str, T)];

/// A parameterised row's parser: of the parameters (the text after the key's
/// first `:`, or empty), with the whole key for error messages.
type Parse<T> = fn(&str, &str) -> Result<T, ScenarioError>;

const WORKLOADS: &Table<fn() -> FlSystemConfig> = &[
    (
        "mnist_lr",
        "the paper's headline workload: LR (2x hidden FC) on MNIST-like, 100 workers",
        FlSystemConfig::mnist_lr,
    ),
    (
        "mnist_lr_quick",
        "small/fast mnist_lr variant (10 workers, small shards) for tests",
        FlSystemConfig::mnist_lr_quick,
    ),
    (
        "mnist_cnn",
        "CNN surrogate on MNIST-like (Figs. 4, 8, 9, 10)",
        FlSystemConfig::mnist_cnn,
    ),
    (
        "cifar_cnn",
        "CNN surrogate on CIFAR-10-like (Figs. 5, 9)",
        FlSystemConfig::cifar_cnn,
    ),
    (
        "imagenet_vgg",
        "VGG-16 surrogate on ImageNet-100-like (Fig. 6)",
        FlSystemConfig::imagenet_vgg,
    ),
];

const DATASETS: &Table<fn() -> SyntheticSpec> = &[
    (
        "mnist_like",
        "10-class MNIST-like synthetic mixture",
        SyntheticSpec::mnist_like,
    ),
    (
        "cifar10_like",
        "10-class CIFAR-10-like synthetic mixture (harder)",
        SyntheticSpec::cifar10_like,
    ),
    (
        "imagenet100_like",
        "100-class ImageNet-100-like synthetic mixture",
        SyntheticSpec::imagenet100_like,
    ),
];

const MODELS: &Table<ModelKind> = &[
    (
        "paper_lr",
        "the paper's \"LR\": 2-hidden-layer fully-connected net",
        ModelKind::PaperLr,
    ),
    ("cnn_mnist", "CNN surrogate for MNIST", ModelKind::CnnMnist),
    (
        "cnn_cifar",
        "CNN surrogate for CIFAR-10",
        ModelKind::CnnCifar,
    ),
    ("vgg16", "VGG-16 surrogate", ModelKind::Vgg16),
    (
        "convex_lr",
        "plain convex multinomial logistic regression",
        ModelKind::ConvexLr,
    ),
];

const PARTITIONERS: &Table<Parse<Partitioner>> = &[
    (
        "label_skew",
        "the paper's single-label shards (§VI.A.1)",
        |_, _| Ok(Partitioner::LabelSkew),
    ),
    ("iid", "shuffled, evenly dealt shards", |_, _| {
        Ok(Partitioner::Iid)
    }),
    (
        "dirichlet:<alpha>",
        "Dirichlet label proportions; smaller alpha = more skew",
        |param, key| match param.parse::<f64>() {
            Ok(alpha) if alpha > 0.0 && alpha.is_finite() => Ok(Partitioner::Dirichlet { alpha }),
            Ok(alpha) => Err(ScenarioError::new(format!(
                "dirichlet alpha must be a positive finite number, got {alpha}"
            ))),
            Err(_) => Err(ScenarioError::new(format!(
                "invalid dirichlet alpha {param:?} in partitioner {key:?}"
            ))),
        },
    ),
];

const HETEROGENEITY: &Table<Parse<HeterogeneityModel>> = &[
    (
        "uniform",
        "the paper's k_i ~ U[1, 10] latency scaling",
        |_, _| Ok(HeterogeneityModel::default()),
    ),
    (
        "uniform:<lo>:<hi>",
        "custom uniform latency-scaling bounds",
        // `f64` never parses a `:`, so a third bound fails like a bad one.
        |bounds, key| match bounds
            .split_once(':')
            .map(|(lo, hi)| (lo.parse(), hi.parse()))
        {
            Some((Ok(lo), Ok(hi))) if lo > 0.0 && hi >= lo => {
                Ok(HeterogeneityModel::Uniform { lo, hi })
            }
            _ => Err(ScenarioError::new(format!(
                "invalid uniform heterogeneity bounds in {key:?} \
                 (expected uniform:<lo>:<hi> with 0 < lo <= hi)"
            ))),
        },
    ),
    (
        "homogeneous",
        "identical workers (isolates Non-IID effects)",
        |_, _| Ok(HeterogeneityModel::Homogeneous),
    ),
];

/// Explicit `[faults]` keys override the fields a preset sets.
const FAULT_PRESETS: &Table<Parse<FaultSpec>> = &[
    ("none", "the zero-fault plan (default)", |_, _| {
        Ok(FaultSpec::none())
    }),
    (
        "churn:<rate>",
        "Poisson worker dropout at <rate>/s, 60 s mean downtime",
        |rate, key| match fault_number(rate, key)? {
            rate if rate < 0.0 => Err(ScenarioError::new(format!(
                "churn rate must be non-negative, got {rate}"
            ))),
            dropout_rate => Ok(FaultSpec {
                dropout_rate,
                mean_downtime: 60.0,
                ..FaultSpec::none()
            }),
        },
    ),
    (
        "stragglers:<frac>:<slow>",
        "that fraction of workers slowed by up to <slow>x",
        |params, key| match fault_pair(params, key)? {
            (frac, slow) if (0.0..=1.0).contains(&frac) && slow >= 1.0 => Ok(FaultSpec {
                straggler_fraction: frac,
                straggler_slowdown: slow,
                ..FaultSpec::none()
            }),
            _ => Err(ScenarioError::new(format!(
                "stragglers preset needs a fraction in [0, 1] and a slowdown \
                 of at least 1, got {key:?}"
            ))),
        },
    ),
    (
        "outage:<rate>:<duration>",
        "channel-outage bursts (Poisson starts, fixed length)",
        |params, key| match fault_pair(params, key)? {
            (rate, dur) if rate >= 0.0 && dur > 0.0 => Ok(FaultSpec {
                outage_rate: rate,
                outage_duration: dur,
                ..FaultSpec::none()
            }),
            _ => Err(ScenarioError::new(format!(
                "outage preset needs a non-negative rate and a positive \
                 duration, got {key:?}"
            ))),
        },
    ),
];

fn fault_number(part: &str, key: &str) -> Result<f64, ScenarioError> {
    part.parse::<f64>()
        .ok()
        .filter(|x| x.is_finite())
        .ok_or_else(|| {
            ScenarioError::new(format!("invalid number {part:?} in fault preset {key:?}"))
        })
}

/// The two numbers of a `<name>:<a>:<b>` preset; any other parameter count
/// is an unknown preset.
fn fault_pair(params: &str, key: &str) -> Result<(f64, f64), ScenarioError> {
    match params.split(':').collect::<Vec<_>>().as_slice() {
        [a, b] => Ok((fault_number(a, key)?, fault_number(b, key)?)),
        _ => Err(unknown("fault preset", key, FAULT_PRESETS)),
    }
}

const MECHANISMS: &Table<MechanismChoice> = &[
    (
        "air-fedga",
        "the paper's contribution (Algorithms 1-3)",
        MechanismChoice::AirFedGa,
    ),
    (
        "air-fedavg",
        "AirComp synchronous baseline",
        MechanismChoice::AirFedAvg,
    ),
    (
        "dynamic",
        "AirComp synchronous with per-round worker scheduling",
        MechanismChoice::Dynamic,
    ),
    (
        "fedavg",
        "OMA synchronous baseline",
        MechanismChoice::FedAvg,
    ),
    (
        "tifl",
        "OMA tier-asynchronous baseline",
        MechanismChoice::TiFl,
    ),
];

fn unknown<T>(kind: &str, key: &str, table: &Table<T>) -> ScenarioError {
    let keys: Vec<&str> = table.iter().map(|(k, _, _)| *k).collect();
    ScenarioError::new(format!(
        "unknown {kind} {key:?}; available: {}",
        keys.join(", ")
    ))
}

/// The value of the first row `is` accepts, or the unknown-key error.
fn find<'t, T>(
    kind: &str,
    key: &str,
    table: &'t Table<T>,
    is: impl Fn(&str, &T) -> bool,
) -> Result<&'t T, ScenarioError> {
    table
        .iter()
        .find(|(k, _, v)| is(k, v))
        .map(|(_, _, v)| v)
        .ok_or_else(|| unknown(kind, key, table))
}

/// Look `key` up in a parameterised axis: it matches the row with the same
/// name (the text before any `:`) that, like it, does or does not have
/// parameters.
fn parameterised<T>(kind: &str, key: &str, table: &Table<Parse<T>>) -> Result<T, ScenarioError> {
    fn name(key: &str) -> (&str, bool) {
        key.split_once(':')
            .map_or((key, false), |(name, _)| (name, true))
    }
    let parse = find(kind, key, table, |pattern, _| name(pattern) == name(key))?;
    parse(key.split_once(':').map_or("", |(_, params)| params), key)
}

/// A whole-workload preset (`[system] workload = "..."`).
pub(crate) fn workload(key: &str) -> Result<FlSystemConfig, ScenarioError> {
    find("workload", key, WORKLOADS, |k, _| k == key).map(|build| build())
}

/// A dataset family (`[system] dataset = "..."`).
pub(crate) fn dataset(key: &str) -> Result<SyntheticSpec, ScenarioError> {
    find("dataset", key, DATASETS, |k, _| k == key).map(|build| build())
}

/// A model family (`[system] model = "..."`).
pub(crate) fn model(key: &str) -> Result<ModelKind, ScenarioError> {
    find("model", key, MODELS, |k, _| k == key).copied()
}

/// A mechanism (`[run] mechanisms = [...]`). Accepts the registry key or the
/// paper-legend label, case-insensitively and ignoring `-`/`_`/space (so
/// `"Air-FedGA"`, `"air_fedga"` and `"airfedga"` all resolve).
pub(crate) fn mechanism(key: &str) -> Result<MechanismChoice, ScenarioError> {
    let norm = |s: &str| {
        s.chars()
            .filter(|c| !matches!(c, '-' | '_' | ' '))
            .collect::<String>()
            .to_ascii_lowercase()
    };
    let wanted = norm(key);
    find("mechanism", key, MECHANISMS, |k, choice| {
        norm(k) == wanted || norm(choice.label()) == wanted
    })
    .copied()
}

/// A partitioner (`[system] partitioner = "..."`).
pub(crate) fn partitioner(key: &str) -> Result<Partitioner, ScenarioError> {
    parameterised("partitioner", key, PARTITIONERS)
}

/// A heterogeneity model (`[system] heterogeneity = "..."`).
pub(crate) fn heterogeneity(key: &str) -> Result<HeterogeneityModel, ScenarioError> {
    parameterised("heterogeneity", key, HETEROGENEITY)
}

/// A fault-injection preset (`[faults] preset = "..."`).
pub(crate) fn fault_preset(key: &str) -> Result<FaultSpec, ScenarioError> {
    parameterised("fault preset", key, FAULT_PRESETS)
}

/// A wireless channel preset (`[system] channel = "..."`).
pub(crate) fn channel(key: &str) -> Result<WirelessConfig, ScenarioError> {
    WirelessConfig::preset(key).ok_or_else(|| {
        ScenarioError::new(format!(
            "unknown channel preset {key:?}; available: {}",
            WirelessConfig::preset_names().join(", ")
        ))
    })
}

/// Human-readable catalogue for `airfedga-run --list-components`.
pub fn describe() -> String {
    fn section<T>(out: &mut String, title: &str, table: &Table<T>) {
        out.push_str(&format!("\n{title}\n"));
        let width = table.iter().map(|(k, _, _)| k.len()).max().unwrap_or(0);
        for (key, summary, _) in table {
            out.push_str(&format!("  {key:<width$}  {summary}\n"));
        }
    }
    let channels: Vec<_> = WirelessConfig::preset_names()
        .iter()
        .map(|&n| (n, "wireless preset (see wireless::timing docs)", ()))
        .collect();
    let mut out = String::from("Scenario registry components\n");
    section(&mut out, "[system] workload =", WORKLOADS);
    section(&mut out, "[system] dataset =", DATASETS);
    section(&mut out, "[system] model =", MODELS);
    section(&mut out, "[system] partitioner =", PARTITIONERS);
    section(&mut out, "[system] heterogeneity =", HETEROGENEITY);
    section(&mut out, "[system] channel =", &channels);
    section(&mut out, "[faults] preset =", FAULT_PRESETS);
    section(&mut out, "[run] mechanisms =", MECHANISMS);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use airfedga::mechanism::{AirFedGa, AirFedGaConfig};
    use experiments::scale::Scale;
    use fedml::rng::Rng64;
    use runstore::Fnv128;
    use std::fmt::Write;

    /// Algorithm 3's group counts at ξ = 0 / 0.3 / 0.7 / 1 for every
    /// workload × partition × scale, on the figures' system seed (42), and a
    /// digest of the four groupings' member lists (who is grouped with whom,
    /// in Algorithm 3's order).
    const GROUPING_CENSUS: &str = "\
quick mnist_lr       label_skew    N= 20 K= 10 groups [20, 3, 2, 1] members bef14daa0f609b0d
quick mnist_lr       dirichlet:0.3 N= 20 K= 10 groups [20, 4, 3, 1] members ae7d2bc245d8db1d
quick mnist_lr_quick label_skew    N= 20 K= 10 groups [20, 4, 2, 1] members 395b7d422540e3c5
quick mnist_lr_quick dirichlet:0.3 N= 20 K= 10 groups [20, 5, 3, 1] members 43206a65dc04aaf5
quick mnist_cnn      label_skew    N= 20 K= 10 groups [20, 3, 2, 1] members bef14daa0f609b0d
quick mnist_cnn      dirichlet:0.3 N= 20 K= 10 groups [20, 4, 3, 1] members ae7d2bc245d8db1d
quick cifar_cnn      label_skew    N= 20 K= 10 groups [20, 5, 3, 1] members 9a5d6bf4dfda4e95
quick cifar_cnn      dirichlet:0.3 N= 20 K= 10 groups [20, 5, 3, 1] members 638cc220a9e4e125
quick imagenet_vgg   label_skew    N= 20 K=100 groups [20, 4, 3, 1] members 9f92b27e18fe5eed
quick imagenet_vgg   dirichlet:0.3 N= 20 K=100 groups [20, 4, 2, 1] members d0a5b698d2264ce5
full  mnist_lr       label_skew    N=100 K= 10 groups [100, 5, 2, 1] members 5df887c00753380d
full  mnist_lr       dirichlet:0.3 N=100 K= 10 groups [100, 6, 4, 1] members 5d968831ecd74415
full  mnist_lr_quick label_skew    N=100 K= 10 groups [100, 4, 3, 1] members f64ef170bc01ff4d
full  mnist_lr_quick dirichlet:0.3 N=100 K= 10 groups [100, 5, 4, 1] members 7489df503111213d
full  mnist_cnn      label_skew    N=100 K= 10 groups [100, 5, 2, 1] members 5df887c00753380d
full  mnist_cnn      dirichlet:0.3 N=100 K= 10 groups [100, 6, 4, 1] members 5d968831ecd74415
full  cifar_cnn      label_skew    N=100 K= 10 groups [100, 4, 2, 1] members 5dfc9f6c561cb0d5
full  cifar_cnn      dirichlet:0.3 N=100 K= 10 groups [100, 6, 3, 1] members d0046e6f4de43b3d
full  imagenet_vgg   label_skew    N=100 K=100 groups [100, 5, 3, 1] members 92573450c8f7e1b5
full  imagenet_vgg   dirichlet:0.3 N=100 K=100 groups [100, 6, 3, 1] members a18710ee431b14dd
";

    #[test]
    fn grouping_census() {
        // System build and Algorithm 3 only: no training.
        let mut table = String::new();
        for (scale, scale_name) in [(Scale::Quick, "quick"), (Scale::Full, "full")] {
            for (name, _, build) in WORKLOADS {
                for key in ["label_skew", "dirichlet:0.3"] {
                    let mut cfg = scale.apply(build());
                    cfg.partitioner = partitioner(key).unwrap();
                    let system = cfg.build(&mut Rng64::seed_from(42));
                    let groupings = [0.0, 0.3, 0.7, 1.0].map(|xi| {
                        let config = AirFedGaConfig {
                            xi,
                            ..AirFedGaConfig::default()
                        };
                        AirFedGa::new(config).grouping_for(&system)
                    });
                    let groups = groupings.each_ref().map(|g| g.num_groups());
                    let mut digest = Fnv128::new();
                    for grouping in &groupings {
                        for group in grouping.groups() {
                            for &w in group {
                                digest.update(&(w as u64).to_le_bytes());
                            }
                            digest.update(&u64::MAX.to_le_bytes());
                        }
                        digest.update(b"|");
                    }
                    let members = digest.finish() as u64;
                    let (n, k) = (system.num_workers(), system.train.num_classes());
                    writeln!(
                        table,
                        "{scale_name:5} {name:14} {key:13} N={n:3} K={k:3} groups {groups:?} \
                         members {members:016x}"
                    )
                    .unwrap();
                    if scale == Scale::Full {
                        assert!(
                            groups[1..].iter().all(|&g| g < n),
                            "full-scale {name} / {key}: {n} singleton groups at xi >= 0.3 ({groups:?})"
                        );
                    }
                }
            }
        }
        assert_eq!(table, GROUPING_CENSUS, "census moved:\n{table}");
    }

    #[test]
    fn every_catalogue_entry_builds() {
        for (name, _, build) in WORKLOADS {
            assert_eq!(workload(name).unwrap().dataset.name, build().dataset.name);
        }
        for (name, _, build) in DATASETS {
            assert_eq!(dataset(name).unwrap().name, build().name);
        }
        for (name, _, kind) in MODELS {
            assert_eq!(model(name).unwrap(), *kind);
        }
        for (name, _, choice) in MECHANISMS {
            assert_eq!(mechanism(name).unwrap(), *choice);
        }
        for name in WirelessConfig::preset_names() {
            channel(name).unwrap();
        }
    }

    #[test]
    fn mechanism_names_match_labels_and_spellings() {
        for key in ["Air-FedGA", "air_fedga", "airfedga", "AIR-FEDGA"] {
            assert_eq!(mechanism(key).unwrap(), MechanismChoice::AirFedGa);
        }
        assert_eq!(mechanism("TiFL").unwrap(), MechanismChoice::TiFl);
    }

    #[test]
    fn parameterised_keys_parse() {
        assert_eq!(
            partitioner("dirichlet:0.5").unwrap(),
            Partitioner::Dirichlet { alpha: 0.5 }
        );
        assert_eq!(partitioner("iid").unwrap(), Partitioner::Iid);
        assert_eq!(
            heterogeneity("uniform:2:4").unwrap(),
            HeterogeneityModel::Uniform { lo: 2.0, hi: 4.0 }
        );
        assert_eq!(
            heterogeneity("homogeneous").unwrap(),
            HeterogeneityModel::Homogeneous
        );
    }

    #[test]
    fn fault_presets_parse() {
        assert!(fault_preset("none").unwrap().is_none());
        let churn = fault_preset("churn:0.002").unwrap();
        assert_eq!(churn.dropout_rate, 0.002);
        assert_eq!(churn.mean_downtime, 60.0);
        churn.validate();
        let strag = fault_preset("stragglers:0.3:3").unwrap();
        assert_eq!(strag.straggler_fraction, 0.3);
        assert_eq!(strag.straggler_slowdown, 3.0);
        strag.validate();
        let outage = fault_preset("outage:0.001:20").unwrap();
        assert_eq!(outage.outage_rate, 0.001);
        assert_eq!(outage.outage_duration, 20.0);
        outage.validate();
    }

    #[test]
    fn bad_fault_presets_are_rejected() {
        assert!(fault_preset("churn:x").is_err());
        assert!(fault_preset("churn:-1").is_err());
        assert!(fault_preset("stragglers:1.5:3").is_err());
        assert!(fault_preset("stragglers:0.3:0.5").is_err());
        assert!(fault_preset("outage:0.01:0").is_err());
        let err = fault_preset("blackout").unwrap_err();
        assert!(err.msg.contains("churn:<rate>"), "{}", err.msg);
    }

    #[test]
    fn unknown_keys_list_the_alternatives() {
        let err = workload("mnist").unwrap_err();
        assert!(err.msg.contains("mnist_lr"), "{}", err.msg);
        assert!(err.msg.contains("cifar_cnn"), "{}", err.msg);
        assert!(partitioner("dirichlet:x").is_err());
        assert!(partitioner("dirichlet:-1").is_err());
        assert!(heterogeneity("uniform:5:1").is_err());
        assert!(mechanism("fedprox").unwrap_err().msg.contains("air-fedga"));
    }

    /// A key that names a row but not its parameter shape keeps the error
    /// that row's parser gives it.
    #[test]
    fn malformed_parameters_name_what_is_wrong() {
        let msg = |r: Result<(), ScenarioError>| r.unwrap_err().msg;
        assert_eq!(
            msg(partitioner("dirichlet:1:2").map(drop)),
            "invalid dirichlet alpha \"1:2\" in partitioner \"dirichlet:1:2\""
        );
        assert_eq!(
            msg(heterogeneity("uniform:3").map(drop)),
            "invalid uniform heterogeneity bounds in \"uniform:3\" \
             (expected uniform:<lo>:<hi> with 0 < lo <= hi)"
        );
        assert_eq!(
            msg(heterogeneity("uniform_ish").map(drop)),
            "unknown heterogeneity \"uniform_ish\"; available: uniform, \
             uniform:<lo>:<hi>, homogeneous"
        );
        assert_eq!(
            msg(fault_preset("churn:1:2").map(drop)),
            "invalid number \"1:2\" in fault preset \"churn:1:2\""
        );
        assert_eq!(
            msg(fault_preset("stragglers:0.3").map(drop)),
            "unknown fault preset \"stragglers:0.3\"; available: none, churn:<rate>, \
             stragglers:<frac>:<slow>, outage:<rate>:<duration>"
        );
        assert!(partitioner("iid:2").is_err());
        assert!(fault_preset("none:0").is_err());
    }

    #[test]
    fn describe_lists_every_section() {
        let text = describe();
        for needle in [
            "workload",
            "mnist_lr",
            "dataset",
            "model",
            "partitioner",
            "dirichlet:<alpha>",
            "heterogeneity",
            "channel",
            "[faults] preset =",
            "churn:<rate>",
            "mechanisms",
            "air-fedga",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
