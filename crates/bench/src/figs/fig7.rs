//! Figure 7 — discrete event simulation of locality-first (LF) vs
//! enhanced degraded-first (EDF), boxplots over randomized
//! configurations (the paper uses 30 per point):
//!
//! * (a) coding scheme sweep, (b) block count sweep, (c) rack bandwidth
//!   sweep, (d) failure patterns, (e) shuffle volume sweep — all on the
//!   Section V-B default cluster;
//! * (f) ten simultaneous jobs with exponential inter-arrivals.

use dfs::erasure::CodeParams;
use dfs::experiment::{Experiment, FailureSpec, Policy};
use dfs::presets::{self, MBPS};
use dfs::simkit::report::Table;
use dfs::simkit::SimRng;
use dfs::workloads::multi_job_workload;
use sweep::sweep_seeds;

use crate::{boxplot_table, compare_policies, lf_edf, seeds};

fn run_panel(title: &str, experiments: Vec<(String, Experiment)>) {
    let mut rows = Vec::new();
    for (label, exp) in &experiments {
        for (policy, sweep) in compare_policies(exp, &lf_edf()) {
            rows.push((format!("{label} {policy}"), sweep));
        }
    }
    boxplot_table(&rows).print(title);
    // Pairwise reductions per x-value.
    let mut table = Table::new(&["x", "mean EDF reduction vs LF"]);
    for pair in rows.chunks(2) {
        let (lf_label, lf) = &pair[0];
        let (_, edf) = &pair[1];
        let x = lf_label.trim_end_matches(" LF");
        table.row(&[
            x.to_string(),
            format!("{:.1}%", edf.mean_reduction_vs(lf) * 100.0),
        ]);
    }
    table.print(&format!("{title} — reductions"));
}

/// Figure 7(a): normalized runtime vs coding scheme
/// (paper: 17.4% reduction at (8,6) up to 32.9% at (20,15)).
pub fn panel_a() {
    let base = presets::simulation_default();
    let schemes = [(8usize, 6usize), (12, 9), (16, 12), (20, 15)];
    let experiments = schemes
        .iter()
        .map(|&(n, k)| {
            let mut exp = base.clone();
            exp.code = CodeParams::new(n, k).expect("valid scheme");
            (format!("({n},{k})"), exp)
        })
        .collect();
    run_panel("Figure 7(a) — simulation vs coding scheme", experiments);
}

/// Figure 7(b): vs block count (paper: 34.8%-39.6% reduction).
pub fn panel_b() {
    let base = presets::simulation_default();
    let experiments = [720usize, 1440, 2160, 2880]
        .iter()
        .map(|&f| {
            let mut exp = base.clone();
            exp.num_blocks = f;
            (format!("F={f}"), exp)
        })
        .collect();
    run_panel("Figure 7(b) — simulation vs block count", experiments);
}

/// Figure 7(c): vs rack download bandwidth (paper: up to 35.1% at
/// 500 Mbps).
pub fn panel_c() {
    let base = presets::simulation_default();
    let experiments = [250u64, 500, 1000]
        .iter()
        .map(|&mbps| {
            let mut exp = base.clone();
            exp.config.net.rack_bps = mbps * MBPS;
            (format!("{mbps}Mbps"), exp)
        })
        .collect();
    run_panel("Figure 7(c) — simulation vs rack bandwidth", experiments);
}

/// Figure 7(d): failure patterns (paper reductions: 33.2% single-node,
/// 22.3% double-node, 5.9% rack).
pub fn panel_d() {
    let base = presets::simulation_default();
    let patterns = [
        ("single-node", FailureSpec::RandomSingleNode),
        ("double-node", FailureSpec::RandomDoubleNode),
        ("rack", FailureSpec::RandomRack),
    ];
    let experiments = patterns
        .iter()
        .map(|(label, spec)| {
            let mut exp = base.clone();
            exp.failure = spec.clone();
            (label.to_string(), exp)
        })
        .collect();
    run_panel("Figure 7(d) — simulation vs failure pattern", experiments);
}

/// Figure 7(e): shuffle volume sweep (paper: 20.0%-33.2% reduction; EDF
/// worsens with shuffle because its degraded reads overlap shuffle
/// traffic, LF stays flat).
pub fn panel_e() {
    let base = presets::simulation_default();
    let experiments = [0.01f64, 0.05, 0.10, 0.20, 0.30]
        .iter()
        .map(|&ratio| {
            let mut exp = base.clone();
            exp.jobs[0].shuffle_ratio = ratio;
            (format!("{}%", (ratio * 100.0) as u32), exp)
        })
        .collect();
    run_panel("Figure 7(e) — simulation vs shuffle volume", experiments);
}

/// Figure 7(f): ten jobs, exponential inter-arrivals with mean 120 s,
/// FIFO slots (paper: per-job reductions 28.6%-48.6%).
pub fn panel_f() {
    const JOBS: usize = 10;
    let base = presets::simulation_default();
    let n = seeds();
    let sweeps = sweep_seeds(n, |seed| {
        let mut exp = base.clone();
        let mut rng = SimRng::seed_from_u64(seed ^ 0x6a6f_6273);
        exp.jobs = multi_job_workload(&mut rng, JOBS, 120.0).expect("valid workload parameters");
        let lf = exp.normalized_runtimes(Policy::LocalityFirst, seed).ok()?;
        let edf = exp
            .normalized_runtimes(Policy::EnhancedDegradedFirst, seed)
            .ok()?;
        let mut row = lf;
        row.extend(edf);
        Some(row)
    })
    .expect("sweep produced no samples");
    let (lf, edf) = sweeps.split_at(JOBS);
    let mut rows = Vec::new();
    let mut reductions = Table::new(&["job", "mean EDF reduction vs LF"]);
    for j in 0..JOBS {
        rows.push((format!("job{j} LF"), lf[j].clone()));
        rows.push((format!("job{j} EDF"), edf[j].clone()));
        reductions.row(&[
            format!("job{j}"),
            format!("{:.1}%", edf[j].mean_reduction_vs(&lf[j]) * 100.0),
        ]);
    }
    boxplot_table(&rows).print("Figure 7(f) — multi-job normalized runtimes");
    reductions.print("Figure 7(f) — reductions (paper: 28.6%-48.6%)");
}

/// Panels (a)–(e).
pub fn run_sweeps() {
    panel_a();
    panel_b();
    panel_c();
    panel_d();
    panel_e();
}

/// Everything, including (f).
pub fn run() {
    run_sweeps();
    panel_f();
}
