//! Shared harness for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` reproduces one table or figure of the
//! paper (see DESIGN.md's experiment index). They share:
//!
//! * [`seeds`] — how many randomized configurations per data point
//!   (the paper uses 30; override with `DFS_SEEDS=n` for quick runs);
//! * [`compare_policies`] — run an experiment under several policies
//!   over all seeds, in parallel, normalized against normal mode;
//! * [`boxplot_table`] — render sweeps the way the paper plots them
//!   (min / Q1 / median / Q3 / max boxes plus the mean).

use dfs::experiment::{Experiment, Policy};
use dfs::simkit::report::Table;
use sweep::{sweep_seeds, SweepSummary};

pub mod figs;

/// Number of randomized configurations per data point. The paper uses
/// 30; set `DFS_SEEDS` to override (e.g. `DFS_SEEDS=5` for a smoke run).
pub fn seeds() -> u64 {
    std::env::var("DFS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(30)
}

/// Runs `exp` under each policy across [`seeds`] seeds and returns the
/// per-policy sweeps of **normalized runtime** (failure mode over normal
/// mode, first job). The normal-mode baseline is run once per seed and
/// shared across policies.
pub fn compare_policies(exp: &Experiment, policies: &[Policy]) -> Vec<(String, SweepSummary)> {
    let n = seeds();
    let sweeps = sweep_seeds(n, |seed| {
        let normal = exp.run_normal_mode(seed).ok()?;
        let base = normal.jobs[0].runtime().as_secs_f64();
        let mut row = Vec::with_capacity(policies.len());
        for &policy in policies {
            let result = exp.run(policy, seed).ok()?;
            row.push(result.jobs[0].runtime().as_secs_f64() / base);
        }
        Some(row)
    })
    .expect("sweep produced no samples");
    policies
        .iter()
        .zip(sweeps)
        .map(|(p, s)| (p.name().to_string(), s))
        .collect()
}

/// Builds the standard boxplot table: one row per `(label, sweep)`.
pub fn boxplot_table(rows: &[(String, SweepSummary)]) -> Table {
    let mut table = Table::new(&["series", "min", "q1", "median", "q3", "max", "mean", "n"]);
    for (label, sweep) in rows {
        let s = sweep.summary().expect("finite sweep samples");
        table.row(&[
            label.clone(),
            format!("{:.3}", s.min),
            format!("{:.3}", s.q1),
            format!("{:.3}", s.median),
            format!("{:.3}", s.q3),
            format!("{:.3}", s.max),
            format!("{:.3}", s.mean),
            s.count.to_string(),
        ]);
    }
    table
}

/// LF and EDF only (the Figure 7 comparisons).
pub fn lf_edf() -> [Policy; 2] {
    [Policy::LocalityFirst, Policy::EnhancedDegradedFirst]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs::presets;

    #[test]
    fn seeds_env_override() {
        // Default is 30 when unset (the test environment does not set it).
        if std::env::var("DFS_SEEDS").is_err() {
            assert_eq!(seeds(), 30);
        }
    }

    #[test]
    fn compare_policies_produces_sweeps() {
        std::env::set_var("DFS_SEEDS", "2");
        let exp = presets::small_default();
        let rows = compare_policies(&exp, &lf_edf());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "LF");
        assert_eq!(rows[1].0, "EDF");
        assert_eq!(rows[0].1.samples.len(), 2);
        let table = boxplot_table(&rows);
        assert_eq!(table.len(), 2);
        std::env::remove_var("DFS_SEEDS");
    }
}
