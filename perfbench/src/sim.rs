//! Simulation runs the benchmark builds itself, so it can time engine
//! set-up apart from the simulation and hand the engine an instrumented
//! scheduler or sink.

use std::time::{Duration, Instant};

use dfs::cluster::{FailureScenario, FailureTimeline};
use dfs::ecstore::placement::{RackAwarePlacement, RoundRobinPlacement};
use dfs::erasure::CodeParams;
use dfs::experiment::PlacementKind;
use dfs::mapreduce::engine::Engine;
use dfs::mapreduce::RunResult;
use dfs::obs::aggregate::Aggregator;
use dfs::workloads::{map_only_job, simulation_default_job};
use dfs::{Experiment, FailureSpec, Policy};
use sweep::spec::{FailureAxis, Shard, SweepBase, WorkloadAxis};

use crate::layers::{
    replay_flows, CountingSink, NullSink, ReplayStats, SchedStats, TimedScheduler,
};

/// One simulation run: an experiment under a policy and seed, in failure
/// mode or in the normal-mode baseline.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Human label, e.g. `fig7a/EDF/seed=3`.
    pub label: String,
    /// The experiment.
    pub exp: Experiment,
    /// Scheduling policy (LF for the normal-mode baseline, as
    /// [`Experiment::run_normal_mode`] uses).
    pub policy: Policy,
    /// Engine seed.
    pub seed: u64,
    /// True for the normal-mode (no failure) baseline.
    pub normal: bool,
}

impl RunSpec {
    /// A failure-mode run.
    pub fn failure(label: String, exp: Experiment, policy: Policy, seed: u64) -> RunSpec {
        RunSpec {
            label,
            exp,
            policy,
            seed,
            normal: false,
        }
    }

    /// The normal-mode baseline of `exp` under `seed`.
    pub fn normal(label: String, exp: Experiment, seed: u64) -> RunSpec {
        RunSpec {
            label,
            exp,
            policy: Policy::LocalityFirst,
            seed,
            normal: true,
        }
    }

    /// Builds the engine the way `Experiment::run` (or
    /// `run_normal_mode`) does.
    pub fn build(&self) -> Result<Engine, String> {
        let (failure, timeline) = if self.normal {
            (FailureScenario::none(), FailureTimeline::new())
        } else {
            (
                self.exp.failure_for_seed(self.seed),
                self.exp.timeline.clone(),
            )
        };
        let builder = Engine::builder(self.exp.topo.clone())
            .code(self.exp.code, self.exp.num_blocks)
            .failure(failure)
            .timeline(timeline)
            .config(self.exp.config)
            .seed(self.seed)
            .jobs(self.exp.jobs.iter().cloned());
        match self.exp.placement {
            PlacementKind::RackAware => builder.placement(&RackAwarePlacement).build(),
            PlacementKind::RoundRobin => builder.placement(&RoundRobinPlacement).build(),
        }
        .map_err(|e| format!("{}: build: {e}", self.label))
    }

    /// The result through the public harness (`Experiment::run` or
    /// `run_normal_mode`), the reference every other path must match.
    pub fn reference(&self) -> Result<RunResult, String> {
        if self.normal {
            self.exp.run_normal_mode(self.seed)
        } else {
            self.exp.run(self.policy, self.seed)
        }
        .map_err(|e| format!("{}: {e}", self.label))
    }

    /// Checks the result is complete: every job finished and every job
    /// ran one map task per block.
    pub fn check_complete(&self, result: &RunResult) -> Result<(), String> {
        let jobs = self.exp.jobs.len();
        if result.jobs.len() != jobs {
            return Err(format!(
                "{}: {} of {jobs} jobs finished",
                self.label,
                result.jobs.len()
            ));
        }
        let maps = result
            .tasks
            .iter()
            .filter(|t| t.map_locality().is_some())
            .count();
        if maps != self.exp.num_blocks * jobs {
            return Err(format!(
                "{}: {maps} maps ran, expected {} blocks x {jobs} jobs",
                self.label, self.exp.num_blocks
            ));
        }
        Ok(())
    }
}

/// Per-layer measurements of one run, each from its own execution.
#[derive(Debug)]
pub struct LayerRun {
    /// The public harness's result, which every instrumented run matched.
    pub result: RunResult,
    /// Untraced run with the timed scheduler.
    pub instrumented: Duration,
    /// What the scheduler wrapper saw.
    pub sched: SchedStats,
    /// Events of the counting-sink run.
    pub events: CountingSink,
    /// Traced run into a do-nothing sink.
    pub null_sink: Duration,
    /// Traced run into `obs::Aggregator`, including its report.
    pub aggregator: Duration,
    /// Replay of the run's flow schedule.
    pub replay: ReplayStats,
}

/// Runs `spec` once per instrument and checks every result against the
/// public harness's.
pub fn measure_layers(spec: &RunSpec) -> Result<LayerRun, String> {
    let reference = spec.reference()?;
    spec.check_complete(&reference)?;
    let same = |what: &str, result: &RunResult| {
        if *result == reference {
            Ok(())
        } else {
            Err(format!(
                "{}: {what} result differs from Experiment::run",
                spec.label
            ))
        }
    };
    let run_err = |e| format!("{}: run: {e}", spec.label);

    let engine = spec.build()?;
    let (timed, sched) = TimedScheduler::new(spec.policy.scheduler());
    let t = Instant::now();
    let result = engine.run(Box::new(timed)).map_err(run_err)?;
    let instrumented = t.elapsed();
    same("instrumented", &result)?;

    let mut events = CountingSink::default();
    let result = spec
        .build()?
        .run_traced(spec.policy.scheduler(), &mut events)
        .map_err(run_err)?;
    same("counting-sink traced", &result)?;

    let engine = spec.build()?;
    let t = Instant::now();
    let result = engine
        .run_traced(spec.policy.scheduler(), &mut NullSink)
        .map_err(run_err)?;
    let null_sink = t.elapsed();
    same("null-sink traced", &result)?;

    let engine = spec.build()?;
    let mut agg = Aggregator::new(spec.exp.aggregator_config(spec.seed));
    let t = Instant::now();
    let result = engine
        .run_traced(spec.policy.scheduler(), &mut agg)
        .map_err(run_err)?;
    std::hint::black_box(agg.report());
    let aggregator = t.elapsed();
    same("aggregator traced", &result)?;

    let replay = replay_flows(
        &spec.exp.topo.rack_sizes(),
        spec.exp.config.net,
        &events.flow_ops,
    );
    if replay.mismatches > 0 {
        return Err(format!(
            "{}: flow replay missed {} of the trace's operations",
            spec.label, replay.mismatches
        ));
    }
    Ok(LayerRun {
        result: reference,
        instrumented,
        sched: sched.get(),
        events,
        null_sink,
        aggregator,
        replay,
    })
}

/// The experiment one sweep shard describes, built as `sweep::run`
/// builds it (static failure axes and the default or map-only workload;
/// the benchmark uses no other axis values).
pub fn shard_experiment(base: &SweepBase, shard: &Shard) -> Result<(Experiment, u64), String> {
    let stream_seed = shard.stream_seed(base);
    let (n, k) = shard.code;
    let code = CodeParams::new(n, k).map_err(|e| format!("code: {e}"))?;
    let failure = match shard.failure {
        FailureAxis::None => FailureSpec::None,
        FailureAxis::SingleNode => FailureSpec::RandomSingleNode,
        FailureAxis::DoubleNode => FailureSpec::RandomDoubleNode,
        FailureAxis::Rack => FailureSpec::RandomRack,
        FailureAxis::Weibull(_) => return Err("churn shards are not benchmarked".into()),
    };
    let jobs = match shard.workload {
        WorkloadAxis::Default => vec![simulation_default_job()],
        WorkloadAxis::MapOnly { map_secs } => vec![map_only_job(map_secs)],
        WorkloadAxis::Poisson { .. } => return Err("poisson shards are not benchmarked".into()),
    };
    let mut config = base.engine_config();
    config.fetch_policy = shard.fetch;
    config.node_speeds = shard.speeds;
    let exp = Experiment {
        topo: base.topology(),
        code,
        num_blocks: base.num_blocks,
        placement: PlacementKind::RackAware,
        failure,
        timeline: FailureTimeline::new(),
        config,
        jobs,
    };
    Ok((exp, stream_seed))
}
