//! Tests of the benchmark's own instruments: they must observe the
//! simulator without changing what it computes.

use dfs::ecstore::FetchPolicy;
use dfs::simkit::stats::{percentile_sorted, Summary};
use dfs::simkit::time::SimTime;
use dfs::{presets, Policy};
use perfbench::layers::{replay_flows, FlowOp, TimedScheduler};
use perfbench::report::{diff_outputs, median, quantile};
use perfbench::sim::{measure_layers, shard_experiment, RunSpec};
use sweep::run::run_sweep;
use sweep::spec::{FailureAxis, SweepBase, SweepSpec, WorkloadAxis};

const POLICIES: [Policy; 3] = [
    Policy::LocalityFirst,
    Policy::BasicDegradedFirst,
    Policy::EnhancedDegradedFirst,
];

#[test]
fn self_built_engine_and_timed_scheduler_leave_results_unchanged() {
    let exp = presets::small_default();
    for seed in [1, 2] {
        for policy in POLICIES {
            let spec = RunSpec::failure(format!("{policy:?}"), exp.clone(), policy, seed);
            let reference = exp.run(policy, seed).expect("reference run");

            let self_built = spec.build().expect("build").run(policy.scheduler());
            assert_eq!(
                self_built.expect("self-built run"),
                reference,
                "{policy:?} seed {seed}"
            );

            let (timed, stats) = TimedScheduler::new(policy.scheduler());
            let wrapped = spec
                .build()
                .expect("build")
                .run(Box::new(timed))
                .expect("wrapped run");
            assert_eq!(wrapped, reference, "{policy:?} seed {seed}");
            let stats = stats.get();
            assert!(stats.calls > 0);
            assert_eq!(stats.maps, exp.num_blocks as u64);
        }
        let normal = RunSpec::normal("normal".into(), exp.clone(), seed);
        let result = normal
            .build()
            .expect("build")
            .run(Policy::LocalityFirst.scheduler());
        assert_eq!(
            result.expect("normal run"),
            exp.run_normal_mode(seed).expect("reference")
        );
    }
}

#[test]
fn flow_replay_matches_redundant_fetch_trace_with_cancellations() {
    let exp = presets::straggler_default(FetchPolicy::Redundant { extra: 2 });
    for seed in [1, 2, 3] {
        let spec = RunSpec::failure(
            "straggler".into(),
            exp.clone(),
            Policy::EnhancedDegradedFirst,
            seed,
        );
        let layers = measure_layers(&spec).expect("all instruments agree");
        let replay = layers.replay;
        assert_eq!(replay.mismatches, 0);
        assert!(
            replay.cancelled > 0,
            "seed {seed} exercised no cancellation"
        );
        assert_eq!(replay.flows, layers.events.count("flow_started"));
        assert_eq!(
            replay.finishes_matched + replay.cancelled,
            layers.events.count("flow_finished")
        );
        assert_eq!(replay.cancelled, layers.events.count("fetch_cancelled"));
    }
}

#[test]
fn flow_replay_reports_a_perturbed_completion() {
    let exp = presets::small_default();
    let spec = RunSpec::failure("small".into(), exp.clone(), Policy::LocalityFirst, 1);
    let layers = measure_layers(&spec).expect("instruments agree");
    let mut ops = layers.events.flow_ops.clone();
    let finish = ops
        .iter_mut()
        .find(|op| {
            matches!(
                op,
                FlowOp::Finish {
                    cancelled: false,
                    ..
                }
            )
        })
        .expect("a completed flow");
    if let FlowOp::Finish { at, .. } = finish {
        *at = SimTime::from_micros(at.as_micros() + 1);
    }
    let replay = replay_flows(&exp.topo.rack_sizes(), exp.config.net, &ops);
    assert!(replay.mismatches > 0);
}

#[test]
fn quantiles_come_from_simkit_stats() {
    let sample = [9.0, 1.0, 4.0, 16.0, 25.0, 2.5, 7.0];
    let summary = Summary::from_samples(&sample).expect("summary");
    assert_eq!(median(&sample), summary.median);
    assert_eq!(quantile(&sample, 0.25), summary.q1);
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    assert_eq!(
        quantile(&sample, 0.99),
        percentile_sorted(&sorted, 0.99).expect("p99")
    );
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn shard_experiments_match_run_sweep() {
    let spec = SweepSpec {
        base: SweepBase::fig7_small(),
        policies: POLICIES.to_vec(),
        codes: vec![(8, 6)],
        failures: vec![FailureAxis::SingleNode, FailureAxis::Rack],
        workloads: vec![WorkloadAxis::MapOnly { map_secs: 10.0 }],
        fetch_policies: vec![FetchPolicy::Exact, FetchPolicy::Redundant { extra: 2 }],
        speeds: vec![dfs::cluster::SpeedProfile::Homogeneous],
        seeds: vec![1],
    };
    let report = run_sweep(&spec, 2).expect("sweep");
    for (shard, row) in spec.shards().expect("shards").iter().zip(&report.shards) {
        let (exp, seed) = shard_experiment(&spec.base, shard).expect("experiment");
        let run = exp.run(shard.policy, seed).expect("shard run");
        let swept = row.metrics.as_ref().expect("shard ok");
        assert_eq!(run.makespan.as_secs_f64(), swept.makespan_secs);
        assert_eq!(seed, swept.stream_seed);
    }
}

#[test]
fn diff_compares_counters_and_model_outputs_exactly() {
    let a = "metric wall_s 1.5 s\ncounter scheduler.calls 10\nsim sim_makespan_s 700.25\n";
    let b = "metric wall_s 1.7 s\ncounter scheduler.calls 10\nsim sim_makespan_s 700.25\n";
    assert!(diff_outputs(a, b).is_empty(), "wall time is not compared");
    let c = "counter scheduler.calls 11\nsim sim_makespan_s 700.25\ncounter netsim.updates 3\n";
    let diffs = diff_outputs(a, c);
    assert_eq!(
        diffs,
        vec![
            "counter netsim.updates: <absent> != 3".to_string(),
            "counter scheduler.calls: 10 != 11".to_string(),
        ]
    );
}
