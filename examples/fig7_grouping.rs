//! Figure 7 — how Algorithm 3 groups 100 heterogeneous workers at ξ = 0.3.
//!
//! The paper shows a box plot of the local-training times inside each group:
//! workers with similar latency land in the same group (e.g. group 7 spans
//! 49.1–61.6 s while the population spans 8.1–61.6 s). This example prints
//! the per-group latency quartiles — the same data the box plot encodes —
//! plus a small ASCII rendition, and writes them to
//! `results/fig7_grouping.csv`.
//!
//! ```bash
//! cargo run --release --example fig7_grouping
//! AIRFEDGA_SCALE=quick cargo run --release --example fig7_grouping
//! ```

use air_fedga::airfedga::mechanism::{AirFedGa, AirFedGaConfig};
use air_fedga::airfedga::system::FlSystemConfig;
use air_fedga::experiments::report::{try_write_csv, Table};
use air_fedga::experiments::scale::Scale;
use air_fedga::fedml::rng::Rng64;
use std::path::Path;

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

fn main() {
    let scale = Scale::from_env_or_exit("fig7_grouping");
    let cfg = scale.apply(FlSystemConfig::mnist_cnn());
    let system = cfg.build(&mut Rng64::seed_from(42));
    let mech = AirFedGa::new(AirFedGaConfig {
        xi: 0.3,
        ..AirFedGaConfig::default()
    });
    let grouping = mech.grouping_for(&system);

    let all: Vec<f64> = (0..system.num_workers())
        .map(|i| system.local_training_time(i))
        .collect();
    let (pop_min, pop_max) = (
        all.iter().cloned().fold(f64::INFINITY, f64::min),
        all.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );
    println!(
        "Fig. 7: grouping of {} workers at xi = 0.3 ({} groups); population latency {:.1}s - {:.1}s\n",
        system.num_workers(),
        grouping.num_groups(),
        pop_min,
        pop_max
    );

    let mut table = Table::new(
        "Per-group local-training-time distribution (seconds)",
        &["group", "size", "min", "q1", "median", "q3", "max"],
    );
    let mut csv = String::from("group,worker,latency\n");
    // Order groups by their median latency so the table reads like the plot.
    let mut group_latencies: Vec<(usize, Vec<f64>)> = (0..grouping.num_groups())
        .map(|j| {
            let mut lat: Vec<f64> = grouping
                .group(j)
                .iter()
                .map(|&w| system.local_training_time(w))
                .collect();
            lat.sort_by(|a, b| a.total_cmp(b));
            (j, lat)
        })
        .collect();
    group_latencies.sort_by(|a, b| quantile(&a.1, 0.5).total_cmp(&quantile(&b.1, 0.5)));

    for (display_idx, (j, lat)) in group_latencies.iter().enumerate() {
        table.add_row(vec![
            format!("{}", display_idx + 1),
            format!("{}", lat.len()),
            format!("{:.1}", lat[0]),
            format!("{:.1}", quantile(lat, 0.25)),
            format!("{:.1}", quantile(lat, 0.5)),
            format!("{:.1}", quantile(lat, 0.75)),
            format!("{:.1}", lat[lat.len() - 1]),
        ]);
        for &w in grouping.group(*j) {
            csv.push_str(&format!(
                "{},{},{:.3}\n",
                display_idx + 1,
                w,
                system.local_training_time(w)
            ));
        }
    }
    println!("{}", table.render());

    // ASCII box sketch: one row per group, bar spanning min..max.
    println!("ASCII latency ranges (each row is one group, '=' spans min..max):");
    let width = 60.0;
    for (display_idx, (_, lat)) in group_latencies.iter().enumerate() {
        let lo = ((lat[0] - pop_min) / (pop_max - pop_min) * width) as usize;
        let hi = ((lat[lat.len() - 1] - pop_min) / (pop_max - pop_min) * width) as usize;
        let mut line = vec![' '; width as usize + 1];
        for c in line.iter_mut().take(hi + 1).skip(lo) {
            *c = '=';
        }
        println!(
            "  group {:>2} |{}|",
            display_idx + 1,
            line.iter().collect::<String>()
        );
    }

    try_write_csv(Path::new("results"), "fig7_grouping.csv", &csv);
}
