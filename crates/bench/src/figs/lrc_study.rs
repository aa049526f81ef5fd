//! LRC study (extension): the paper's footnote 1 claims degraded-first
//! scheduling "also applies to" erasure codes that need fewer blocks per
//! degraded read (Azure's local reconstruction codes, the paper's
//! reference \[20\]). This artifact sweeps the degraded-read fetch count
//! on the default cluster: as reads get cheaper, LF's pile-up hurts less
//! and the LF/EDF gap narrows — but EDF never loses.
//!
//! The fetch counts correspond to real codes of similar storage
//! overhead: 15 = RS(20,15) (the paper's default), 8 ≈ a two-group LRC
//! over 15 data blocks, 5 ≈ a three-group LRC, 3 ≈ a five-group LRC.
//! The `erasure::lrc` module implements the actual codec (encode,
//! local-group repair, verification); here only the fetch *count* enters
//! the fluid model.

use dfs::experiment::Policy;
use dfs::presets;
use dfs::simkit::report::Table;
use sweep::sweep_seeds;

fn seeds() -> u64 {
    std::env::var("DFS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(10)
}

/// Runs the fetch-count sweep.
pub fn run() {
    let mut table = Table::new(&[
        "degraded read fetches",
        "LF mean norm.",
        "EDF mean norm.",
        "EDF reduction",
    ]);
    for (label, fetch) in [
        ("15 (RS(20,15))", None),
        ("8 (2-group LRC)", Some(8usize)),
        ("5 (3-group LRC)", Some(5)),
        ("3 (5-group LRC)", Some(3)),
    ] {
        let mut exp = presets::simulation_default();
        exp.config.degraded_fetch_blocks = fetch;
        let sweeps = sweep_seeds(seeds(), |seed| {
            let normal = exp.run_normal_mode(seed).ok()?;
            let base = normal.jobs[0].runtime().as_secs_f64();
            let lf = exp.run(Policy::LocalityFirst, seed).ok()?;
            let edf = exp.run(Policy::EnhancedDegradedFirst, seed).ok()?;
            Some(vec![
                lf.jobs[0].runtime().as_secs_f64() / base,
                edf.jobs[0].runtime().as_secs_f64() / base,
            ])
        })
        .expect("sweep produced no samples");
        let (lf, edf) = (&sweeps[0], &sweeps[1]);
        table.row(&[
            label.to_string(),
            format!("{:.3}", lf.mean()),
            format!("{:.3}", edf.mean()),
            format!("{:.1}%", edf.mean_reduction_vs(lf) * 100.0),
        ]);
    }
    table.print(
        "LRC study — degraded-first under degraded-read-optimized codes \
         (paper footnote 1): cheaper reads shrink but never erase the gap",
    );
}
