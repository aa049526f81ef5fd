//! Speculation study (extension): Hadoop's answer to stragglers is
//! *speculative execution* — re-run slow tasks elsewhere. In failure
//! mode, LF's late degraded tasks look exactly like stragglers, so a
//! natural question the paper leaves open is whether speculation alone
//! recovers the degraded-first win. It cannot: a backup copy of a
//! degraded task must perform its *own* degraded read over the same
//! contended links, so speculation burns slots and bandwidth where EDF
//! removes the contention by scheduling.

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

/// Runs LF and EDF with and without speculative execution on the
/// default failure-mode cluster.
pub fn run() {
    let mut table = Table::new(&["variant", "mean norm. runtime", "vs plain LF"]);
    let mut lf_plain = None;
    for (label, policy, speculative) in [
        ("LF", Policy::LocalityFirst, false),
        ("LF + speculation", Policy::LocalityFirst, true),
        ("EDF", Policy::EnhancedDegradedFirst, false),
        ("EDF + speculation", Policy::EnhancedDegradedFirst, true),
    ] {
        let mut exp = presets::simulation_default();
        exp.config.speculative = speculative;
        let sweeps = sweep_seeds(seeds(), |seed| {
            let normal = exp.run_normal_mode(seed).ok()?;
            let run = exp.run(policy, seed).ok()?;
            Some(vec![
                run.jobs[0].runtime().as_secs_f64() / normal.jobs[0].runtime().as_secs_f64(),
            ])
        })
        .expect("sweep produced no samples");
        let mean = sweeps[0].mean();
        let vs = match lf_plain {
            None => {
                lf_plain = Some(mean);
                "-".to_string()
            }
            Some(base) => format!("{:.1}%", (base - mean) / base * 100.0),
        };
        table.row(&[label.to_string(), format!("{mean:.3}"), vs]);
    }
    table.print(
        "Speculation study — straggler re-execution vs degraded-first \
         scheduling in failure mode",
    );
}
