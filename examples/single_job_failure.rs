//! The paper's single-job simulation (Section V-B) at full scale:
//! 40 nodes / 4 racks, (20,15) over 1440 blocks of 128 MB, map+reduce
//! job, one random node failure — compared across LF, BDF and EDF over
//! several seeds.
//!
//! ```sh
//! cargo run --release -p dfs --example single_job_failure
//! ```

use dfs::experiment::Policy;
use dfs::mapreduce::MapLocality;
use dfs::presets;
use dfs::simkit::report::{f3, pct, Table};
use sweep::sweep_seeds_scalar;

fn main() {
    let exp = presets::simulation_default();
    let seeds = 5; // the paper uses 30; keep the example snappy

    println!(
        "simulating {} seeds of the Section V-B default cluster ...",
        seeds
    );

    let mut table = Table::new(&["policy", "median norm. runtime", "mean", "vs LF"]);
    let mut lf_mean = None;
    for policy in [
        Policy::LocalityFirst,
        Policy::BasicDegradedFirst,
        Policy::EnhancedDegradedFirst,
    ] {
        let sweep = sweep_seeds_scalar(seeds, |seed| exp.normalized_runtime(policy, seed).ok())
            .expect("a seed runs");
        let mean = sweep.mean();
        let vs = match lf_mean {
            None => {
                lf_mean = Some(mean);
                "-".to_string()
            }
            Some(lf) => pct((lf - mean) / lf),
        };
        table.row(&[policy.name().to_string(), f3(sweep.median()), f3(mean), vs]);
    }
    table.print("normalized runtime, single node failure (paper Fig. 7 setting)");

    // Task-level view for one seed.
    let result = exp.run(Policy::EnhancedDegradedFirst, 0).expect("run");
    let mut detail = Table::new(&["metric", "value"]);
    detail.row(&["map tasks".into(), result.tasks.len().to_string()]);
    for loc in [
        MapLocality::NodeLocal,
        MapLocality::RackLocal,
        MapLocality::Remote,
        MapLocality::Degraded,
    ] {
        detail.row(&[format!("{loc} maps"), result.map_count(loc).to_string()]);
    }
    let reads = result.degraded_read_secs();
    detail.row(&[
        "mean degraded read (s)".into(),
        format!(
            "{:.1}",
            reads.iter().sum::<f64>() / reads.len().max(1) as f64
        ),
    ]);
    detail.print("EDF task breakdown (seed 0)");
}
