//! Exit codes of the `dfs-cli` binary: bad input is a one-line error and
//! exit status 1, never a panic (status 101).

use std::process::{Command, Output};

fn dfs_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dfs-cli"))
        .args(args)
        .output()
        .expect("dfs-cli runs")
}

/// Asserts a clean failure: status 1 and one `error:` line on stderr
/// that mentions `needle`.
fn assert_one_line_error(args: &[&str], needle: &str) {
    let out = dfs_cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

#[test]
fn simulate_with_zero_seeds_is_a_typed_error() {
    assert_one_line_error(&["simulate", "--seeds", "0"], "at least one seed");
}

#[test]
fn simulate_names_a_bad_shuffle_ratio() {
    assert_one_line_error(
        &["simulate", "--seeds", "1", "--shuffle", "-1"],
        "shuffle_ratio must be a finite fraction",
    );
}

#[test]
fn simulate_names_a_bad_block_count() {
    assert_one_line_error(
        &["simulate", "--seeds", "1", "--blocks", "0"],
        "native block count 0",
    );
}

#[test]
fn testbed_with_zero_runs_is_a_typed_error() {
    assert_one_line_error(&["testbed", "--runs", "0"], "at least one seed");
}

#[test]
fn obs_report_rejects_zero_and_negative_buckets() {
    let trace = std::env::temp_dir().join("dfs-cli-exit-codes-empty.jsonl");
    std::fs::write(&trace, "").unwrap();
    for bad in ["0", "-1", "1e-9"] {
        assert_one_line_error(
            &[
                "obs-report",
                "--trace",
                trace.to_str().unwrap(),
                "--bucket-secs",
                bad,
            ],
            "bucket-secs",
        );
    }
    std::fs::remove_file(&trace).unwrap();
}

#[test]
fn simulate_rejects_negative_and_non_finite_durations() {
    assert_one_line_error(
        &["simulate", "--seeds", "1", "--map-secs", "-1"],
        "map-secs",
    );
    assert_one_line_error(
        &["simulate", "--seeds", "1", "--reduce-secs", "nan"],
        "reduce-secs",
    );
    let trace = std::env::temp_dir().join("dfs-cli-exit-codes-unwritten.jsonl");
    assert_one_line_error(
        &[
            "simulate",
            "--seeds",
            "1",
            "--trace",
            trace.to_str().unwrap(),
            "--flow-rate-min-interval",
            "inf",
        ],
        "flow-rate-min-interval",
    );
    assert!(!trace.exists(), "a rejected run writes no trace");
}

#[test]
fn analyze_rejects_a_zero_map_time() {
    assert_one_line_error(&["analyze", "--map-secs", "0"], "map-secs");
}

#[test]
fn analyze_rejects_zero_sizes() {
    for flag in ["racks", "slots", "block-mb", "bandwidth-mbps", "blocks"] {
        assert_one_line_error(&["analyze", &format!("--{flag}"), "0"], flag);
    }
}

#[test]
fn analyze_rejects_clusters_the_model_cannot_price() {
    assert_one_line_error(&["analyze", "--nodes", "1"], "two nodes");
    assert_one_line_error(&["analyze", "--nodes", "0"], "two nodes");
    assert_one_line_error(&["analyze", "--racks", "5", "--nodes", "4"], "rack count");
}

/// 18,446,744,073,710 MB/s or MiB is just past `u64::MAX` in base units.
const OVERFLOWING_SIZE: &str = "18446744073710";

#[test]
fn analyze_rejects_sizes_that_overflow() {
    for flag in ["block-mb", "bandwidth-mbps"] {
        assert_one_line_error(&["analyze", &format!("--{flag}"), OVERFLOWING_SIZE], flag);
    }
}

#[test]
fn simulate_rejects_sizes_that_overflow() {
    for flag in ["block-mb", "bandwidth-mbps"] {
        assert_one_line_error(
            &[
                "simulate",
                "--seeds",
                "1",
                &format!("--{flag}"),
                OVERFLOWING_SIZE,
            ],
            flag,
        );
    }
}

#[test]
fn sweep_rejects_a_block_size_that_overflows() {
    assert_one_line_error(&["sweep", "--block-mb", OVERFLOWING_SIZE], "block-mb");
}

#[test]
fn simulate_rejects_zero_racks() {
    assert_one_line_error(&["simulate", "--seeds", "1", "--racks", "0"], "racks");
}

#[test]
fn simulate_rejects_empty_racks() {
    assert_one_line_error(
        &["simulate", "--seeds", "1", "--nodes-per-rack", "0"],
        "nodes-per-rack",
    );
}

#[test]
fn simulate_rejects_zero_map_slots() {
    assert_one_line_error(
        &["simulate", "--seeds", "1", "--map-slots", "0"],
        "map-slots",
    );
}

#[test]
fn simulate_rejects_zero_bandwidth() {
    assert_one_line_error(
        &["simulate", "--seeds", "1", "--bandwidth-mbps", "0"],
        "bandwidth-mbps",
    );
}

#[test]
fn repair_rejects_zero_parallelism() {
    assert_one_line_error(&["repair", "--parallelism", "0"], "parallelism");
}

#[test]
fn wordcount_rejects_an_unknown_node() {
    assert_one_line_error(
        &["wordcount", "--lines", "10", "--fail-node", "99"],
        "--fail-node 99",
    );
}
