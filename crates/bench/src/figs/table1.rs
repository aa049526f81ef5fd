//! Table I — average runtime (seconds) of normal map tasks, degraded map
//! tasks and reduce tasks per workload in the single-job testbed
//! scenario, LF vs EDF.
//!
//! Paper values (LF → EDF): degraded maps 84.97→48.42 (WordCount),
//! 77.97→50.96 (Grep), 91.48→47.88 (LineCount) — a 43.0%/34.6%/47.7%
//! cut; reduce tasks cut ~26%; normal maps essentially unchanged.

use dfs::experiment::Policy;
use dfs::presets;
use dfs::simkit::report::Table;
use dfs::workloads::TestbedWorkload;
use sweep::sweep_seeds;

fn runs() -> u64 {
    std::env::var("DFS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(5)
}

/// Regenerates Table I.
pub fn run() {
    let mut table = Table::new(&[
        "task type",
        "WordCount LF",
        "WordCount EDF",
        "Grep LF",
        "Grep EDF",
        "LineCount LF",
        "LineCount EDF",
    ]);
    // columns[workload][policy][tasktype] = mean secs
    let mut cells = [[[0.0f64; 3]; 2]; 3];
    for (w, workload) in TestbedWorkload::ALL.iter().enumerate() {
        let exp = presets::testbed(&[*workload]);
        let sweeps = sweep_seeds(runs(), |seed| {
            let mut row = Vec::new();
            for policy in [Policy::LocalityFirst, Policy::EnhancedDegradedFirst] {
                let result = exp.run(policy, seed).ok()?;
                row.push(result.mean_normal_map_secs()?);
                row.push(result.mean_degraded_map_secs()?);
                row.push(result.mean_reduce_secs()?);
            }
            Some(row)
        })
        .expect("sweep produced no samples");
        for p in 0..2 {
            for t in 0..3 {
                cells[w][p][t] = sweeps[p * 3 + t].mean();
            }
        }
    }
    for (t, task) in ["Normal map", "Degraded map", "Reduce"].iter().enumerate() {
        let mut row = vec![task.to_string()];
        for cells_w in &cells {
            for cells_wp in cells_w.iter().take(2) {
                row.push(format!("{:.2}", cells_wp[t]));
            }
        }
        table.row(&row);
    }
    table.print(
        "Table I — mean task runtimes (s), single-job testbed mode \
         (paper: EDF cuts degraded maps 43.0/34.6/47.7%, reduces ~26%, normal maps unchanged)",
    );

    // The paper's quoted degraded-map reductions.
    let mut cuts = Table::new(&["job", "degraded-map cut", "reduce cut", "normal-map change"]);
    for (w, workload) in TestbedWorkload::ALL.iter().enumerate() {
        let cut = |t: usize| (cells[w][0][t] - cells[w][1][t]) / cells[w][0][t] * 100.0;
        cuts.row(&[
            workload.name().to_string(),
            format!("{:.1}%", cut(1)),
            format!("{:.1}%", cut(2)),
            format!("{:+.1}%", -cut(0)),
        ]);
    }
    cuts.print("Table I — derived reductions");
}
