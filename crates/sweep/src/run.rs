//! Shard execution: the experiment harness over the [`crate::pool`]
//! work-stealing pool.
//!
//! Shard results land in per-shard slots indexed by grid position, so
//! the merged output is a pure function of the grid — independent of
//! thread count, scheduling and finish order. A shard whose simulation
//! fails (e.g. a random failure scenario that destroys a stripe under a
//! weak code) records an error row instead of aborting the sweep,
//! mirroring how the paper's 30 random configurations only include
//! valid ones.

use dfs::cluster::FailureTimeline;
use dfs::erasure::CodeParams;
use dfs::experiment::{PlacementKind, Policy};
use dfs::mapreduce::MapLocality;
use dfs::simkit::stats::percentile_sorted;
use dfs::workloads::{map_only_job, simulation_default_job, ArrivalTrace};
use dfs::{Experiment, FailureSpec};

use crate::error::SweepError;
use crate::pool::run_indexed;
use crate::report::SweepReport;
use crate::spec::{FailureAxis, Shard, SweepBase, SweepSpec, WorkloadAxis};

/// The measurements one shard contributes to the merged report.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardMetrics {
    /// The RNG stream seed the shard ran under (scenario-keyed).
    pub stream_seed: u64,
    /// End-to-end makespan in seconds.
    pub makespan_secs: f64,
    /// Jobs that finished.
    pub jobs_finished: usize,
    /// Map tasks executed.
    pub maps_total: usize,
    /// Map tasks that ran degraded (surviving-block reconstruction).
    pub maps_degraded: usize,
    /// Map tasks queued as degraded, re-queues under churn included
    /// ([`dfs::mapreduce::RunResult::tasks_queued_degraded`]).
    pub tasks_queued_degraded: usize,
    /// Job latency percentiles in seconds (absent when no job finished).
    pub job_p50_secs: Option<f64>,
    /// 95th percentile job latency.
    pub job_p95_secs: Option<f64>,
    /// 99th percentile job latency.
    pub job_p99_secs: Option<f64>,
}

/// Builds the [`Experiment`] one shard describes, returning it with the
/// shard's scenario-keyed stream seed.
fn shard_experiment(base: &SweepBase, shard: &Shard) -> Result<(Experiment, u64), String> {
    let stream_seed = shard.stream_seed(base);
    let topo = base.topology();
    let (n, k) = shard.code;
    let code = CodeParams::new(n, k).map_err(|e| format!("code: {e}"))?;
    let (failure, timeline) = match &shard.failure {
        FailureAxis::None => (FailureSpec::None, FailureTimeline::new()),
        FailureAxis::SingleNode => (FailureSpec::RandomSingleNode, FailureTimeline::new()),
        FailureAxis::DoubleNode => (FailureSpec::RandomDoubleNode, FailureTimeline::new()),
        FailureAxis::Rack => (FailureSpec::RandomRack, FailureTimeline::new()),
        FailureAxis::Weibull(churn) => {
            // Churn is part of the scenario, not the policy: seeding it
            // from the scenario stream keeps LF/BDF/EDF shards of one
            // scenario under identical failure sequences.
            let timeline = FailureTimeline::weibull(&topo, churn, stream_seed)
                .map_err(|e| format!("churn: {e}"))?;
            (FailureSpec::None, timeline)
        }
    };
    let jobs = match &shard.workload {
        WorkloadAxis::Default => vec![simulation_default_job()],
        WorkloadAxis::MapOnly { map_secs } => vec![map_only_job(*map_secs)],
        WorkloadAxis::Poisson { jobs, mean_secs } => {
            ArrivalTrace::poisson(stream_seed, *jobs, *mean_secs)
                .map_err(|e| format!("workload: {e:?}"))?
                .into_jobs()
        }
    };
    let mut config = base.engine_config();
    config.fetch_policy = shard.fetch;
    config.node_speeds = shard.speeds;
    let exp = Experiment {
        topo,
        code,
        num_blocks: base.num_blocks,
        placement: PlacementKind::RackAware,
        failure,
        timeline,
        config,
        jobs,
    };
    Ok((exp, stream_seed))
}

/// Runs one shard to completion. Errors are stringified for the report
/// row; they do not abort the sweep.
fn run_shard(base: &SweepBase, shard: &Shard) -> Result<ShardMetrics, String> {
    let (exp, stream_seed) = shard_experiment(base, shard)?;
    let run = exp
        .run(shard.policy, stream_seed)
        .map_err(|e| e.to_string())?;
    let mut turnaround: Vec<f64> = run
        .jobs
        .iter()
        .map(|j| j.turnaround().as_secs_f64())
        .collect();
    turnaround.sort_by(f64::total_cmp);
    let job_pct = |p| percentile_sorted(&turnaround, p).ok();
    Ok(ShardMetrics {
        stream_seed,
        makespan_secs: run.makespan.as_secs_f64(),
        jobs_finished: run.jobs.len(),
        maps_total: run.tasks.len(),
        maps_degraded: run.map_count(MapLocality::Degraded),
        tasks_queued_degraded: run.tasks_queued_degraded,
        job_p50_secs: job_pct(0.50),
        job_p95_secs: job_pct(0.95),
        job_p99_secs: job_pct(0.99),
    })
}

/// Expands `spec` and runs every shard on `threads` OS threads,
/// returning the deterministically merged report.
///
/// The report is byte-identical for any `threads >= 1`: shard results
/// land in slots indexed by grid position and each shard's RNG stream
/// is a pure function of its coordinates.
///
/// # Errors
///
/// Spec validation errors ([`SweepError`]); also [`SweepError::NoThreads`]
/// for `threads == 0`. Per-shard simulation failures are reported in
/// the corresponding row, not as an `Err`.
pub fn run_sweep(spec: &SweepSpec, threads: usize) -> Result<SweepReport, SweepError> {
    if threads == 0 {
        return Err(SweepError::NoThreads);
    }
    let shards = spec.shards()?;
    let outcomes = run_shards(&spec.base, &shards, threads);
    Ok(SweepReport::merge(spec, &shards, outcomes))
}

/// Re-runs the first scenario of `spec` under `policy_a` and `policy_b`
/// with full tracing and returns the rendered lane-by-lane trace diff
/// ([`dfs::obs::diff`]), keeping the `top` largest end shifts. Both
/// runs share the scenario-keyed stream seed, so failure sequences and
/// workloads are identical and the diff attributes the makespan delta
/// purely to scheduling.
///
/// # Errors
///
/// Spec validation errors, or [`SweepError::ShardRun`] when either
/// traced run fails.
pub fn trace_diff_scenario(
    spec: &SweepSpec,
    policy_a: Policy,
    policy_b: Policy,
    top: usize,
) -> Result<String, SweepError> {
    use dfs::obs::diff::{diff_streams, render};
    use dfs::obs::event::SimEvent;
    use dfs::obs::sink::VecSink;
    use dfs::simkit::time::SimTime;

    let shards = spec.shards()?;
    let Some(scenario) = shards.first() else {
        return Err(SweepError::EmptyAxis { axis: "shards" });
    };
    let traced = |policy: Policy| -> Result<Vec<(SimTime, SimEvent)>, SweepError> {
        let mut shard = scenario.clone();
        shard.policy = policy;
        let (exp, stream_seed) = shard_experiment(&spec.base, &shard)
            .map_err(|reason| SweepError::ShardRun { reason })?;
        let mut sink = VecSink::new();
        exp.run_traced(policy, stream_seed, &mut sink)
            .map_err(|e| SweepError::ShardRun {
                reason: e.to_string(),
            })?;
        Ok(sink.events)
    };
    let a = traced(policy_a)?;
    let b = traced(policy_b)?;
    Ok(render(&diff_streams(&a, &b, top)))
}

/// Runs the shard list on the pool and returns per-shard outcomes in
/// grid order.
fn run_shards(
    base: &SweepBase,
    shards: &[Shard],
    threads: usize,
) -> Vec<Result<ShardMetrics, String>> {
    run_indexed(shards.len(), threads, |i| run_shard(base, &shards[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Shard, SweepBase};
    use dfs::cluster::SpeedProfile;
    use dfs::ecstore::FetchPolicy;
    use dfs::Policy;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            base: SweepBase::fig7_small(),
            policies: vec![Policy::LocalityFirst, Policy::EnhancedDegradedFirst],
            codes: vec![(8, 6)],
            failures: vec![FailureAxis::SingleNode],
            workloads: vec![WorkloadAxis::MapOnly { map_secs: 10.0 }],
            fetch_policies: vec![FetchPolicy::Exact],
            speeds: vec![SpeedProfile::Homogeneous],
            seeds: vec![1],
        }
    }

    #[test]
    fn zero_threads_is_an_error() {
        assert_eq!(run_sweep(&tiny_spec(), 0), Err(SweepError::NoThreads));
    }

    #[test]
    fn shards_of_one_scenario_share_the_failure() {
        let spec = tiny_spec();
        let report = run_sweep(&spec, 2).expect("sweep runs");
        assert_eq!(report.shards.len(), 2);
        let lf = &report.shards[0];
        let edf = &report.shards[1];
        // Same scenario stream...
        let lf_m = lf.metrics.as_ref().expect("LF shard ok");
        let edf_m = edf.metrics.as_ref().expect("EDF shard ok");
        assert_eq!(lf_m.stream_seed, edf_m.stream_seed);
        // ...and the same degraded workload (one failed node => same
        // number of lost blocks to reconstruct under either policy).
        assert_eq!(lf_m.maps_total, edf_m.maps_total);
        assert!(lf_m.maps_degraded > 0);
        assert_eq!(lf_m.maps_degraded, edf_m.maps_degraded);
        // EDF should not lose to LF on its home turf.
        assert!(edf_m.makespan_secs <= lf_m.makespan_secs * 1.02);
    }

    #[test]
    fn failed_shards_become_rows_not_errors() {
        // A shard whose simulation cannot run — here (4,3) placement,
        // which the rack-aware layer rejects for parity 1 — must yield
        // an error row, not a panic or a sweep abort. (Specs reject
        // such codes eagerly now, so drive the executor directly.)
        let base = SweepBase::fig7_small();
        let shard = Shard {
            index: 0,
            policy: Policy::LocalityFirst,
            code: (4, 3),
            failure: FailureAxis::Rack,
            workload: WorkloadAxis::MapOnly { map_secs: 10.0 },
            fetch: FetchPolicy::Exact,
            speeds: SpeedProfile::Homogeneous,
            seed: 1,
        };
        let outcomes = run_shards(&base, std::slice::from_ref(&shard), 2);
        assert_eq!(outcomes.len(), 1);
        let err = outcomes[0].as_ref().expect_err("placement must fail");
        assert!(err.contains("n-k"), "unexpected error: {err}");
    }

    #[test]
    fn impossible_code_topology_is_rejected_before_any_shard_runs() {
        // (12,10) needs 12 blocks but 4 racks × parity 2 host only 8;
        // the spec must fail validation up front with the cap named.
        let spec = SweepSpec {
            codes: vec![(12, 10)],
            ..tiny_spec()
        };
        let err = run_sweep(&spec, 2).expect_err("spec must be rejected");
        assert!(
            matches!(err, SweepError::CodeTopology { n: 12, k: 10, .. }),
            "unexpected error: {err:?}"
        );
        let text = err.to_string();
        assert!(text.contains("at most 8"), "cap not named: {text}");
        // Parity below the rack-aware floor is also an eager error.
        let spec = SweepSpec {
            codes: vec![(4, 3)],
            ..tiny_spec()
        };
        assert!(matches!(
            run_sweep(&spec, 2),
            Err(SweepError::CodeTopology { n: 4, k: 3, .. })
        ));
    }
}
