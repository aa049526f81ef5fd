//! Ablation of the Section IV-C heuristics (beyond the paper's BDF/EDF
//! split): locality preservation and rack awareness toggled
//! independently, across the homogeneous, heterogeneous and extreme
//! clusters. This isolates which heuristic buys what — DESIGN.md calls
//! this out as the design-choice study.

use dfs::experiment::{Experiment, Policy};
use dfs::mapreduce::MapLocality;
use dfs::presets;
use dfs::simkit::report::Table;
use sweep::sweep_seeds;

use crate::seeds;

const VARIANTS: [(&str, Policy); 5] = [
    ("LF", Policy::LocalityFirst),
    ("BDF", Policy::BasicDegradedFirst),
    (
        "BDF+locality",
        Policy::DegradedFirstWith {
            locality_preservation: true,
            rack_awareness: false,
        },
    ),
    (
        "BDF+rack",
        Policy::DegradedFirstWith {
            locality_preservation: false,
            rack_awareness: true,
        },
    ),
    ("EDF", Policy::EnhancedDegradedFirst),
];

fn run_cluster(label: &str, exp: &Experiment, table: &mut Table) {
    let n = seeds();
    let sweeps = sweep_seeds(n, |seed| {
        let normal = exp.run_normal_mode(seed).ok()?;
        let base = normal.jobs[0].runtime().as_secs_f64();
        let mut row = Vec::new();
        for (_, policy) in VARIANTS {
            let result = exp.run(policy, seed).ok()?;
            row.push(result.jobs[0].runtime().as_secs_f64() / base);
            row.push(
                (result.map_count(MapLocality::Remote) + result.map_count(MapLocality::RackLocal))
                    as f64,
            );
            let reads = result.degraded_read_secs();
            row.push(reads.iter().sum::<f64>() / reads.len().max(1) as f64);
        }
        Some(row)
    })
    .expect("sweep produced no samples");
    let lf_runtime = sweeps[0].mean();
    for (i, (name, _)) in VARIANTS.iter().enumerate() {
        let runtime = sweeps[i * 3].mean();
        let non_local = sweeps[i * 3 + 1].mean();
        let read = sweeps[i * 3 + 2].mean();
        table.row(&[
            format!("{label} {name}"),
            format!("{runtime:.3}"),
            format!("{:.1}%", (lf_runtime - runtime) / lf_runtime * 100.0),
            format!("{non_local:.1}"),
            format!("{read:.1}"),
        ]);
    }
}

/// Runs the ablation across all three cluster presets.
pub fn run() {
    let mut table = Table::new(&[
        "cluster / variant",
        "norm. runtime",
        "vs LF",
        "non-local maps",
        "mean degraded read (s)",
    ]);
    run_cluster("homogeneous", &presets::simulation_default(), &mut table);
    run_cluster(
        "heterogeneous",
        &presets::heterogeneous_default(),
        &mut table,
    );
    run_cluster("extreme", &presets::extreme_case(), &mut table);
    table.print("Ablation — EDF heuristics toggled independently");
}
