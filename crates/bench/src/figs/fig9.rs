//! Figure 9 — the testbed experiments (Section VI), reproduced on the
//! simulator's "testbed mode" (12 slaves / 3 racks, (12,10) over 240
//! 64 MB blocks, round-robin placement, Table-I-calibrated jobs; see
//! DESIGN.md for the substitution note).
//!
//! * (a) single-job scenario: each of WordCount / Grep / LineCount run
//!   alone (paper: EDF cuts runtime 27.0% / 26.1% / 24.8%);
//! * (b) multi-job scenario: the three jobs submitted back-to-back
//!   (paper: 16.6% / 28.4% / 22.6%).
//!
//! The paper averages 5 runs and plots min/max whiskers; so do we.

use dfs::experiment::Policy;
use dfs::presets;
use dfs::simkit::report::Table;
use dfs::workloads::TestbedWorkload;
use sweep::sweep_seeds;

/// Runs per configuration; the paper's testbed numbers average 5 runs.
fn runs() -> u64 {
    std::env::var("DFS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(5)
}

/// Figure 9(a): single-job runtimes.
pub fn panel_a() {
    let mut table = Table::new(&[
        "job",
        "LF mean (s)",
        "LF min/max",
        "EDF mean (s)",
        "EDF min/max",
        "reduction",
    ]);
    for workload in TestbedWorkload::ALL {
        let exp = presets::testbed(&[workload]);
        let sweeps = sweep_seeds(runs(), |seed| {
            let lf = exp.run(Policy::LocalityFirst, seed).ok()?;
            let edf = exp.run(Policy::EnhancedDegradedFirst, seed).ok()?;
            Some(vec![
                lf.jobs[0].runtime().as_secs_f64(),
                edf.jobs[0].runtime().as_secs_f64(),
            ])
        })
        .expect("sweep produced no samples");
        let (lf, edf) = (&sweeps[0], &sweeps[1]);
        let (ls, es) = (
            lf.summary().expect("finite runtimes"),
            edf.summary().expect("finite runtimes"),
        );
        table.row(&[
            workload.name().to_string(),
            format!("{:.1}", ls.mean),
            format!("{:.0}/{:.0}", ls.min, ls.max),
            format!("{:.1}", es.mean),
            format!("{:.0}/{:.0}", es.min, es.max),
            format!("{:.1}%", edf.mean_reduction_vs(lf) * 100.0),
        ]);
    }
    table.print("Figure 9(a) — testbed single-job (paper: 27.0/26.1/24.8% reductions)");
}

/// Figure 9(b): the three jobs submitted in a FIFO burst.
pub fn panel_b() {
    let exp = presets::testbed(&TestbedWorkload::ALL);
    let sweeps = sweep_seeds(runs(), |seed| {
        let lf = exp.run(Policy::LocalityFirst, seed).ok()?;
        let edf = exp.run(Policy::EnhancedDegradedFirst, seed).ok()?;
        let mut row: Vec<f64> = lf.jobs.iter().map(|j| j.runtime().as_secs_f64()).collect();
        row.extend(edf.jobs.iter().map(|j| j.runtime().as_secs_f64()));
        Some(row)
    })
    .expect("sweep produced no samples");
    let (lf, edf) = sweeps.split_at(TestbedWorkload::ALL.len());
    let mut table = Table::new(&["job", "LF mean (s)", "EDF mean (s)", "reduction"]);
    for (i, workload) in TestbedWorkload::ALL.iter().enumerate() {
        table.row(&[
            workload.name().to_string(),
            format!("{:.1}", lf[i].mean()),
            format!("{:.1}", edf[i].mean()),
            format!("{:.1}%", edf[i].mean_reduction_vs(&lf[i]) * 100.0),
        ]);
    }
    table.print("Figure 9(b) — testbed multi-job (paper: 16.6/28.4/22.6% reductions)");
}

/// Both panels.
pub fn run() {
    panel_a();
    panel_b();
}
