//! Ablation of the enhanced degraded-first heuristics (Section IV-C):
//! run BDF, BDF+locality-preservation, BDF+rack-awareness and full EDF
//! on the extreme-case cluster of Figure 8(d), where five "bad" nodes
//! process maps 10× slower.
//!
//! ```sh
//! cargo run --release -p dfs --example policy_ablation
//! ```

use dfs::experiment::Policy;
use dfs::mapreduce::MapLocality;
use dfs::presets;
use dfs::simkit::report::{f3, pct, Table};
use sweep::sweep_seeds_scalar;

fn main() {
    let exp = presets::extreme_case();
    let seeds = 8;
    println!("extreme case: 5 bad nodes (10x slower maps), 150 blocks, map-only job");

    let policies = [
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

    let mut table = Table::new(&["policy", "mean norm. runtime", "vs LF", "non-local maps"]);
    let mut lf_mean = None;
    for (name, policy) in policies {
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
        // Count stolen locality on one representative seed.
        let result = exp.run(policy, 0).expect("run");
        let non_local =
            result.map_count(MapLocality::Remote) + result.map_count(MapLocality::RackLocal);
        table.row(&[name.to_string(), f3(mean), vs, non_local.to_string()]);
    }
    table.print("heuristic ablation in the extreme case (cf. paper Fig. 8(d))");
}
