//! Golden LF/BDF/EDF grid report on the Figure-7 small preset. The
//! checked-in bytes are the determinism contract for the whole sweep
//! pipeline: spec expansion, scenario-keyed RNG streams, simulation,
//! aggregation, merge and rendering.
//!
//! Regenerate with `UPDATE_GOLDENS=1 cargo test -p sweep --test
//! golden_grid` after an intentional behavior change, and review the
//! diff like code.

use dfs::cluster::{SpeedProfile, WeibullChurn};
use dfs::ecstore::FetchPolicy;
use dfs::Policy;
use std::path::PathBuf;
use sweep::{run_sweep, FailureAxis, SweepBase, SweepSpec, WorkloadAxis};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}; run with UPDATE_GOLDENS=1", name));
    assert_eq!(
        expected, actual,
        "golden {name} drifted; if intentional, regenerate with UPDATE_GOLDENS=1 and review the diff"
    );
}

fn fig7_small_grid() -> SweepSpec {
    SweepSpec {
        base: SweepBase::fig7_small(),
        policies: vec![
            Policy::LocalityFirst,
            Policy::BasicDegradedFirst,
            Policy::EnhancedDegradedFirst,
        ],
        codes: vec![(8, 6)],
        failures: vec![FailureAxis::SingleNode],
        workloads: vec![WorkloadAxis::MapOnly { map_secs: 10.0 }],
        fetch_policies: vec![FetchPolicy::Exact],
        speeds: vec![SpeedProfile::Homogeneous],
        seeds: vec![1, 2, 3],
    }
}

#[test]
fn fig7_small_grid_matches_goldens() {
    let report = run_sweep(&fig7_small_grid(), 4).expect("sweep runs");
    assert_eq!(report.shards.len(), 9);
    assert_eq!(report.shards_ok(), 9, "every shard should complete");
    check_golden("fig7_small_grid.json", &report.to_json());
    check_golden("fig7_small_grid.txt", &report.human());
}

/// Three policies under Weibull churn harsh enough that nodes fail
/// mid-run: lost and unassigned maps are re-queued as degraded, so
/// `tasks_queued_degraded` exceeds `maps_degraded` in some rows.
fn churn_grid() -> SweepSpec {
    SweepSpec {
        failures: vec![FailureAxis::Weibull(WeibullChurn {
            lifetime_shape: 1.0,
            lifetime_scale_secs: 1500.0,
            repair_shape: 1.0,
            repair_scale_secs: 100.0,
            horizon_secs: 600.0,
        })],
        ..fig7_small_grid()
    }
}

#[test]
fn churn_grid_matches_goldens() {
    let report = run_sweep(&churn_grid(), 2).expect("sweep runs");
    assert_eq!(report.shards.len(), 9);
    assert_eq!(report.shards_ok(), 9, "every shard should complete");
    check_golden("churn_grid.json", &report.to_json());
    check_golden("churn_grid.txt", &report.human());
}
