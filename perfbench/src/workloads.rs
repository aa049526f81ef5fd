//! The four workloads. Each runs as a closed-loop batch in one process:
//! passes back to back until the time budget is spent, every output
//! checked, the first pass's outputs the reference for the later ones.
//! Workload inputs are a pure function of the seed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dfs::cluster::{NodeId, SpeedProfile, Topology};
use dfs::ecstore::FetchPolicy;
use dfs::erasure::CodeParams;
use dfs::mapreduce::{MapLocality, RunResult};
use dfs::textlab::{run_job, CorpusBuilder, Grep, LineCount, MiniGrid, ReadStats, WordCount};
use dfs::{presets, Policy};
use sweep::run::run_sweep;
use sweep::spec::{FailureAxis, Shard, SweepBase, SweepSpec, WorkloadAxis};
use sweep::SweepReport;

use crate::report::{median, quantile, ratio, Outcome};
use crate::sim::{measure_layers, shard_experiment, LayerRun, RunSpec};

/// Workload names, in catalogue order.
const WORKLOADS: &[&str] = &["fig7", "scale_10k", "sweep", "wordcount"];

/// Fewest timed passes an untraced run makes, whatever the budget, so
/// medians (set-up time in particular) rest on several samples.
const MIN_PASSES: usize = 3;

/// Set-up rounds per pass: set-up is short and noisy, so `setup_s` is
/// the median over this many rounds in every pass.
const SETUP_REPS: usize = 5;

/// Fig. 7(a) seeds simulated per pass.
const FIG7_SEEDS: u64 = 8;

/// Arrival-trace and engine seed of the Fig. 7(f) runs. It is fixed, not
/// drawn from the workload seed: across seeds one multi-job LF run takes
/// anywhere from 1.3 s to 5.3 s on a 2-vCPU Xeon host, a spread no affordable
/// number of seeds per pass averages out, while the Fig. 7(a) runs vary
/// little and do follow the workload seed.
const FIG7F_SEED: u64 = 1;

/// Fig. 7(a) reference reductions of normalized runtime, EDF vs LF:
/// the paper's figure and this reproduction's EXPERIMENTS.md entry.
const PAPER_EDF_REDUCTION_PCT: f64 = 32.9;
const EXPERIMENTS_EDF_REDUCTION_PCT: f64 = 34.3;

/// `wordcount` corpus size in lines (about 16 MiB of text).
const WORDCOUNT_LINES: usize = 400_000;
/// `wordcount` block size.
const WORDCOUNT_BLOCK: usize = 64 * 1024;
/// The `Grep` needle.
const GREP_NEEDLE: &str = "whale";

/// How one invocation runs.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Threads for `sweep` (the host's available parallelism).
    pub nproc: usize,
}

/// Runs one workload's untraced (`trace == false`) or traced pass.
pub fn run(workload: &str, ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match (workload, trace) {
        ("fig7", false) => sim_untraced(&fig7_runs(ctx.seed), ctx, &mut out, true),
        ("fig7", true) => sim_traced(&fig7_runs(ctx.seed), ctx, &mut out, true),
        ("scale_10k", false) => sim_untraced(&[scale_10k_run(ctx.seed)?], ctx, &mut out, false),
        ("scale_10k", true) => sim_traced(&[scale_10k_run(ctx.seed)?], ctx, &mut out, false),
        ("sweep", false) => sweep_untraced(ctx, &mut out)?,
        ("sweep", true) => sweep_traced(ctx, &mut out)?,
        ("wordcount", false) => wordcount_untraced(ctx, &mut out)?,
        ("wordcount", true) => wordcount_traced(ctx, &mut out)?,
        _ => {
            return Err(format!(
                "unknown workload {workload:?}; one of {WORKLOADS:?}"
            ))
        }
    }
    Ok(out)
}

/// The `i`-th simulation seed of workload seed `seed`.
fn sub_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(i + 1)
}

/// Runs `pass` at least `min` times, then again while another pass as
/// long as the longest so far still fits in `budget` seconds.
fn repeat(budget: f64, min: usize, mut pass: impl FnMut()) {
    let start = Instant::now();
    let mut passes = 0;
    let mut longest = 0.0f64;
    while passes < min || start.elapsed().as_secs_f64() + longest <= budget {
        let t = Instant::now();
        pass();
        longest = longest.max(secs(t.elapsed()));
        passes += 1;
    }
}

/// Sets `wall_s` to the median pass and prints the sample beside it.
fn set_wall(out: &mut Outcome, walls: &[f64]) {
    out.set("wall_s", median(walls));
    out.extra
        .push(("wall_s.passes", "count", walls.len() as f64));
    out.extra.push(("wall_s.min", "s", quantile(walls, 0.0)));
    out.extra.push(("wall_s.max", "s", quantile(walls, 1.0)));
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

// ---- fig7 and scale_10k ------------------------------------------------

/// Fig. 7(a)'s default point under LF/BDF/EDF with a normal-mode
/// baseline per seed, then Fig. 7(f)'s multi-job default under LF and
/// EDF with its baseline.
fn fig7_runs(seed: u64) -> Vec<RunSpec> {
    let single = presets::simulation_default();
    let mut runs = Vec::new();
    for i in 0..FIG7_SEEDS {
        let s = sub_seed(seed, i);
        for policy in [
            Policy::LocalityFirst,
            Policy::BasicDegradedFirst,
            Policy::EnhancedDegradedFirst,
        ] {
            let label = format!("fig7a/{}/seed={s}", policy.name());
            runs.push(RunSpec::failure(label, single.clone(), policy, s));
        }
        runs.push(RunSpec::normal(
            format!("fig7a/normal/seed={s}"),
            single.clone(),
            s,
        ));
    }
    let (multi, s) = (presets::multi_job_default(FIG7F_SEED), FIG7F_SEED);
    for policy in [Policy::LocalityFirst, Policy::EnhancedDegradedFirst] {
        let label = format!("fig7f/{}/seed={s}", policy.name());
        runs.push(RunSpec::failure(label, multi.clone(), policy, s));
    }
    runs.push(RunSpec::normal(format!("fig7f/normal/seed={s}"), multi, s));
    runs
}

/// One `SweepBase::scale_10k` shard: (8,6), one node failed, a 10 s
/// map-only job under LF, on the shard's stream seed.
fn scale_10k_run(seed: u64) -> Result<RunSpec, String> {
    let base = SweepBase::scale_10k();
    let shard = Shard {
        index: 0,
        policy: Policy::LocalityFirst,
        code: (8, 6),
        failure: FailureAxis::SingleNode,
        workload: WorkloadAxis::MapOnly { map_secs: 10.0 },
        fetch: FetchPolicy::Exact,
        speeds: SpeedProfile::Homogeneous,
        seed,
    };
    let (exp, stream_seed) = shard_experiment(&base, &shard)?;
    Ok(RunSpec::failure(
        format!("scale_10k/LF/seed={seed}"),
        exp,
        Policy::LocalityFirst,
        stream_seed,
    ))
}

/// Model outputs of a set of checked results (`None` where a run failed).
fn sim_figures(runs: &[RunSpec], results: &[Option<RunResult>], out: &mut Outcome, fig7: bool) {
    let mut makespans = Vec::new();
    let mut edf_reads = Vec::new();
    let mut degraded_maps = 0u64;
    for (spec, result) in runs.iter().zip(results) {
        let Some(result) = result else { continue };
        if spec.normal {
            continue;
        }
        makespans.push(result.makespan.as_secs_f64());
        degraded_maps += result.map_count(MapLocality::Degraded) as u64;
        if spec.policy == Policy::EnhancedDegradedFirst {
            edf_reads.extend(result.degraded_read_secs());
        }
    }
    out.counters
        .insert("mapreduce.degraded_maps".into(), degraded_maps);
    out.sim.insert(
        "sim_makespan_s".into(),
        makespans.iter().sum::<f64>() / makespans.len().max(1) as f64,
    );
    if !edf_reads.is_empty() {
        out.sim
            .insert("sim_degraded_read_p99_s".into(), quantile(&edf_reads, 0.99));
    }
    if fig7 {
        // Runs come in groups of four per Fig. 7(a) seed: LF, BDF, EDF,
        // normal.
        let mut reductions = Vec::new();
        for group in results[..4 * FIG7_SEEDS as usize].chunks(4) {
            if let [Some(lf), _, Some(edf), Some(normal)] = group {
                let norm = |r: &RunResult| {
                    r.jobs[0].runtime().as_secs_f64() / normal.jobs[0].runtime().as_secs_f64()
                };
                reductions.push((norm(lf) - norm(edf)) / norm(lf) * 100.0);
            }
        }
        let mean = reductions.iter().sum::<f64>() / reductions.len().max(1) as f64;
        out.sim.insert("edf_reduction_pct".into(), mean);
        out.extra
            .push(("edf_reduction_pct.paper", "%", PAPER_EDF_REDUCTION_PCT));
        out.extra.push((
            "edf_reduction_pct.error_vs_paper",
            "%",
            mean - PAPER_EDF_REDUCTION_PCT,
        ));
        out.extra.push((
            "edf_reduction_pct.error_vs_experiments_md",
            "%",
            mean - EXPERIMENTS_EDF_REDUCTION_PCT,
        ));
    }
}

/// Untraced: each pass times building every run's engine on its own
/// (set-up), then runs every experiment through the public harness
/// (`Experiment::run` or `run_normal_mode`, which build again): the wall
/// time a user of the harness sees. The first pass's results are the
/// reference later passes must reproduce.
fn sim_untraced(runs: &[RunSpec], ctx: &Ctx, out: &mut Outcome, fig7: bool) {
    let mut references: Vec<Option<RunResult>> = Vec::new();
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    repeat(ctx.seconds, MIN_PASSES, || {
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            let built: Result<(), String> = runs.iter().try_for_each(|spec| spec.build().map(drop));
            setups.push(secs(start.elapsed()));
            if let Err(e) = built {
                out.fail(e);
            }
        }
        let start = Instant::now();
        let results: Vec<Result<RunResult, String>> = runs.iter().map(RunSpec::reference).collect();
        walls.push(secs(start.elapsed()));
        let first = references.is_empty();
        for (i, (spec, result)) in runs.iter().zip(results).enumerate() {
            let result = result.and_then(|r| spec.check_complete(&r).map(|()| r));
            if first {
                out.check(result.as_ref().map(drop).map_err(String::clone));
                references.push(result.ok());
                continue;
            }
            out.check(match (result, &references[i]) {
                (Ok(r), Some(reference)) if r == *reference => Ok(()),
                (Ok(_), _) => Err(format!("{}: differs from the first pass", spec.label)),
                (Err(e), _) => Err(e),
            });
        }
    });
    set_wall(out, &walls);
    out.set("setup_s", median(&setups));
    out.counters
        .insert("runs_per_pass".into(), runs.len() as u64);
    sim_figures(runs, &references, out, fig7);
}

/// Sums of one traced pass over every run.
#[derive(Debug, Default, PartialEq)]
struct LayerTotals {
    instrumented: f64,
    assign: f64,
    null_sink: f64,
    aggregator: f64,
    replay: f64,
    counters: BTreeMap<String, u64>,
}

impl LayerTotals {
    fn add(&mut self, layer: &LayerRun) {
        self.instrumented += secs(layer.instrumented);
        self.assign += secs(layer.sched.busy);
        self.null_sink += secs(layer.null_sink);
        self.aggregator += secs(layer.aggregator);
        self.replay += secs(layer.replay.busy);
        let mut bump = |name: String, v: u64| *self.counters.entry(name).or_default() += v;
        bump("scheduler.calls".into(), layer.sched.calls);
        bump("scheduler.maps".into(), layer.sched.maps);
        bump("netsim.updates".into(), layer.replay.updates);
        bump("netsim.flows".into(), layer.replay.flows);
        bump("netsim.cancelled".into(), layer.replay.cancelled);
        bump(
            "netsim.finishes_matched".into(),
            layer.replay.finishes_matched,
        );
        bump("obs.events".into(), layer.events.total());
        for (kind, n) in &layer.events.by_kind {
            bump(format!("obs.events.{kind}"), *n);
        }
    }
}

/// Sets the simulator-layer catalogue metrics from per-pass totals.
fn set_layer_metrics(passes: &[LayerTotals], out: &mut Outcome) {
    let med = |f: fn(&LayerTotals) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let instrumented = med(|t| t.instrumented);
    let assign = med(|t| t.assign);
    let replay = med(|t| t.replay);
    let null_sink = med(|t| t.null_sink);
    let c = &passes[0].counters;
    let count = |name: &str| c.get(name).copied().unwrap_or(0) as f64;
    let calls = count("scheduler.calls");
    let updates = count("netsim.updates");
    let rate_changes = count("obs.events.flow_rate");
    out.set("scheduler.assign_s", assign);
    out.set("scheduler.calls", calls);
    out.set("scheduler.us_per_call", ratio(assign * 1e6, calls));
    out.set(
        "scheduler.maps_per_call",
        ratio(count("scheduler.maps"), calls),
    );
    out.set("scheduler.share", ratio(assign, instrumented));
    out.set("netsim.replay_s", replay);
    out.set("netsim.updates", updates);
    out.set("netsim.flows", count("netsim.flows"));
    out.set("netsim.cancelled", count("netsim.cancelled"));
    out.set("netsim.rate_changes", rate_changes);
    out.set(
        "netsim.rate_changes_per_update",
        ratio(rate_changes, updates),
    );
    out.set("netsim.share", ratio(replay, instrumented));
    out.set("mapreduce.rest_s", instrumented - assign - replay);
    for (name, kind) in [
        ("mapreduce.map_launched", "map_launched"),
        ("mapreduce.degraded_plan", "degraded_plan"),
        ("mapreduce.redundant_fetch_issued", "redundant_fetch_issued"),
        ("mapreduce.fetch_cancelled", "fetch_cancelled"),
    ] {
        out.set(name, count(&format!("obs.events.{kind}")));
    }
    out.set("obs.emit_s", null_sink - instrumented);
    out.set("obs.aggregator_s", med(|t| t.aggregator) - null_sink);
    out.set("obs.events", count("obs.events"));
    out.set(
        "obs.flow_rate_share",
        ratio(rate_changes, count("obs.events")),
    );
    out.extra.push(("instrumented_wall_s", "s", instrumented));
    out.notes.push(
        "mapreduce.rest_s is an estimate: the instrumented wall minus scheduler time minus \
         netsim time taken from a separate replay run"
            .to_string(),
    );
}

/// Fails the run if a traced pass's counters differ from the first's.
fn check_counters_repeat(passes: &[LayerTotals], out: &mut Outcome) {
    for (i, pass) in passes.iter().enumerate().skip(1) {
        if pass.counters != passes[0].counters {
            out.fail(format!(
                "work counters of traced pass {i} differ from pass 0"
            ));
        }
    }
    for (name, value) in &passes[0].counters {
        out.counters.insert(name.clone(), *value);
    }
}

/// Traced: every run once per instrument, repeated for the budget.
fn sim_traced(runs: &[RunSpec], ctx: &Ctx, out: &mut Outcome, fig7: bool) {
    let mut passes = Vec::new();
    let mut results = Vec::new();
    let mut pass_walls = Vec::new();
    repeat(ctx.seconds, 1, || {
        let start = Instant::now();
        let mut totals = LayerTotals::default();
        results.clear();
        for spec in runs {
            let layer = measure_layers(spec);
            out.check(layer.as_ref().map(|_| ()).map_err(String::clone));
            if let Ok(layer) = &layer {
                totals.add(layer);
            }
            results.push(layer.ok().map(|l| l.result));
        }
        passes.push(totals);
        pass_walls.push(secs(start.elapsed()));
    });
    set_layer_metrics(&passes, out);
    check_counters_repeat(&passes, out);
    out.extra
        .push(("traced_pass_wall_s", "s", median(&pass_walls)));
    sim_figures(runs, &results, out, fig7);
}

// ---- sweep --------------------------------------------------------------

/// 24 paper-base shards: LF/BDF/EDF × (20,15) × node/rack failure ×
/// exact/redundant:2 × homogeneous/stragglers:10,0.25, one seed.
fn sweep_spec(seed: u64) -> SweepSpec {
    SweepSpec {
        base: SweepBase::paper_default(),
        policies: vec![
            Policy::LocalityFirst,
            Policy::BasicDegradedFirst,
            Policy::EnhancedDegradedFirst,
        ],
        codes: vec![(20, 15)],
        failures: vec![FailureAxis::SingleNode, FailureAxis::Rack],
        workloads: vec![WorkloadAxis::Default],
        fetch_policies: vec![FetchPolicy::Exact, FetchPolicy::Redundant { extra: 2 }],
        speeds: vec![
            SpeedProfile::Homogeneous,
            SpeedProfile::Stragglers {
                count: 10,
                factor: 0.25,
            },
        ],
        seeds: vec![seed],
    }
}

/// Model outputs of a sweep report: mean shard makespan and the mean
/// EDF-vs-LF makespan reduction over scenarios.
fn sweep_figures(report: &SweepReport, out: &mut Outcome) {
    let makespans: Vec<f64> = report
        .shards
        .iter()
        .filter_map(|s| s.metrics.as_ref().ok().map(|m| m.makespan_secs))
        .collect();
    out.sim.insert(
        "sim_makespan_s".into(),
        makespans.iter().sum::<f64>() / makespans.len().max(1) as f64,
    );
    let lf = report.policies.iter().position(|p| p == "LF");
    let edf = report.policies.iter().position(|p| p == "EDF");
    let reductions: Vec<f64> = report
        .scenarios
        .iter()
        .filter_map(|s| match (s.makespan_secs[lf?], s.makespan_secs[edf?]) {
            (Some(lf), Some(edf)) => Some((lf - edf) / lf * 100.0),
            _ => None,
        })
        .collect();
    out.sim.insert(
        "edf_reduction_pct".into(),
        reductions.iter().sum::<f64>() / reductions.len().max(1) as f64,
    );
    let degraded: usize = report
        .shards
        .iter()
        .filter_map(|s| s.metrics.as_ref().ok().map(|m| m.maps_degraded))
        .sum();
    out.counters
        .insert("mapreduce.degraded_maps".into(), degraded as u64);
}

/// Fails shards that errored or whose row differs from the reference.
fn check_sweep(report: &SweepReport, reference: &SweepReport, out: &mut Outcome) {
    for (i, row) in report.shards.iter().enumerate() {
        out.check(match (&row.metrics, reference.shards.get(i)) {
            (Err(e), _) => Err(format!("shard {i}: {e}")),
            (Ok(_), Some(r)) if r == row => Ok(()),
            _ => Err(format!("shard {i}: row differs from the reference run")),
        });
    }
}

fn sweep_untraced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let spec = sweep_spec(ctx.seed);
    let mut reference: Option<SweepReport> = None;
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    repeat(ctx.seconds, MIN_PASSES, || {
        // Set-up: spec expansion plus building every shard's engine.
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            let built = spec.shards().map_err(|e| e.to_string()).and_then(|shards| {
                shards.iter().try_for_each(|shard| {
                    let (exp, seed) = shard_experiment(&spec.base, shard)?;
                    RunSpec::failure(String::new(), exp, shard.policy, seed)
                        .build()
                        .map(drop)
                })
            });
            setups.push(secs(start.elapsed()));
            if let Err(e) = built {
                out.fail(format!("sweep set-up: {e}"));
            }
        }
        let start = Instant::now();
        match run_sweep(&spec, ctx.nproc) {
            Ok(report) => {
                walls.push(secs(start.elapsed()));
                check_sweep(&report, reference.as_ref().unwrap_or(&report), out);
                reference.get_or_insert(report);
            }
            Err(e) => out.fail(format!("sweep: {e}")),
        }
    });
    set_wall(out, &walls);
    out.set("setup_s", median(&setups));
    let reference = reference.ok_or("no sweep pass completed")?;
    let shards = reference.shards.len() as f64;
    out.extra
        .push(("shards_per_s", "1/s", ratio(shards, median(&walls))));
    out.extra.push(("threads", "count", ctx.nproc as f64));
    out.counters.insert("sweep.shards".into(), shards as u64);
    sweep_figures(&reference, out);
    Ok(())
}

fn sweep_traced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let traced_start = Instant::now();
    let spec = sweep_spec(ctx.seed);
    let start = Instant::now();
    let one = run_sweep(&spec, 1).map_err(|e| e.to_string())?;
    let wall_1t = secs(start.elapsed());
    let start = Instant::now();
    let many = run_sweep(&spec, ctx.nproc).map_err(|e| e.to_string())?;
    let wall_n = secs(start.elapsed());
    check_sweep(&many, &one, out);
    if one.to_json() != many.to_json() {
        out.fail(format!(
            "sweep report differs between 1 and {} threads",
            ctx.nproc
        ));
    }
    out.set("sweep.wall_1t_s", wall_1t);
    out.set(
        "sweep.parallel_eff",
        ratio(wall_1t, ctx.nproc as f64 * wall_n),
    );
    out.extra.push(("sweep.wall_nproc_s", "s", wall_n));
    out.extra.push(("threads", "count", ctx.nproc as f64));

    // Per-layer attribution, shard by shard on this thread.
    let shards = spec.shards().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    for shard in &shards {
        let (exp, seed) = shard_experiment(&spec.base, shard)?;
        let label = format!("sweep/shard{}/{}", shard.index, shard.policy.name());
        runs.push(RunSpec::failure(label, exp, shard.policy, seed));
    }
    let mut totals = LayerTotals::default();
    let mut results = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        let layer = measure_layers(run).and_then(|layer| {
            let swept = many.shards[i].metrics.as_ref().map_err(String::clone)?;
            if layer.result.makespan.as_secs_f64() == swept.makespan_secs {
                Ok(layer)
            } else {
                Err(format!("{}: makespan differs from run_sweep's", run.label))
            }
        });
        out.check(layer.as_ref().map(|_| ()).map_err(String::clone));
        if let Ok(layer) = &layer {
            totals.add(layer);
        }
        results.push(layer.ok().map(|l| l.result));
    }
    let passes = [totals];
    set_layer_metrics(&passes, out);
    check_counters_repeat(&passes, out);
    sim_figures(&runs, &results, out, false);
    out.extra
        .push(("traced_pass_wall_s", "s", secs(traced_start.elapsed())));
    Ok(())
}

// ---- wordcount ----------------------------------------------------------

/// The `wordcount` input and its expected outputs.
struct Corpus {
    /// The text.
    text: Vec<u8>,
    /// Lines in it.
    lines: u64,
    /// Whitespace-separated words in it.
    words: u64,
    /// Lines containing [`GREP_NEEDLE`].
    grep_lines: u64,
    /// The failed node.
    victim: NodeId,
    /// The testbed topology: 12 slaves in 3 racks of 4.
    topo: Topology,
}

impl Corpus {
    /// Generates the corpus for `seed` (input, not timed).
    fn new(seed: u64, lines: usize) -> Corpus {
        let text = CorpusBuilder::new(seed).lines(lines).build();
        let as_str = String::from_utf8_lossy(&text);
        let topo = Topology::homogeneous(3, 4, 4, 1);
        let victim = topo.node((seed % topo.num_nodes() as u64) as usize);
        Corpus {
            lines: as_str.lines().count() as u64,
            words: as_str.split_whitespace().count() as u64,
            grep_lines: as_str.lines().filter(|l| l.contains(GREP_NEEDLE)).count() as u64,
            text,
            victim,
            topo,
        }
    }

    /// Codes the corpus `(12,10)` with 64 KiB blocks and fails the victim.
    fn grid(&self, seed: u64) -> Result<MiniGrid, String> {
        let code = CodeParams::new(12, 10).map_err(|e| e.to_string())?;
        let mut grid = MiniGrid::new(self.topo.clone(), code, WORDCOUNT_BLOCK, &self.text, seed)
            .map_err(|e| e.to_string())?;
        grid.fail_node(self.victim);
        Ok(grid)
    }

    fn mib(&self) -> f64 {
        self.text.len() as f64 / (1024.0 * 1024.0)
    }
}

/// Runs WordCount, LineCount and Grep, checking each total, and returns
/// their combined read statistics.
fn text_jobs(grid: &mut MiniGrid, corpus: &Corpus, out: &mut Outcome) -> ReadStats {
    let mut stats = ReadStats::default();
    let expected = [
        ("WordCount", corpus.words),
        ("LineCount", corpus.lines),
        ("Grep", corpus.grep_lines),
    ];
    let grep = Grep::new(GREP_NEEDLE);
    for (job, (name, want)) in [&WordCount as &dyn dfs::textlab::TextJob, &LineCount, &grep]
        .into_iter()
        .zip(expected)
    {
        out.check(match run_job(grid, job) {
            Ok(o) if o.total() == want => {
                stats.merge(o.stats);
                Ok(())
            }
            Ok(o) => Err(format!("{name}: total {} != expected {want}", o.total())),
            Err(e) => Err(format!("{name}: {e}")),
        });
    }
    stats
}

fn wordcount_untraced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let corpus = Corpus::new(ctx.seed, WORDCOUNT_LINES);
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut stats = Vec::new();
    let mut pass = |out: &mut Outcome| -> Result<(f64, ReadStats), String> {
        // Set-up rounds; the pass reads from the last grid built, so its
        // wall time counts one set-up.
        let mut grid = None;
        let mut setup = 0.0;
        for _ in 0..SETUP_REPS {
            drop(grid.take());
            let start = Instant::now();
            grid = Some(corpus.grid(ctx.seed)?);
            setup = secs(start.elapsed());
            setups.push(setup);
        }
        let mut grid = grid.ok_or("no grid was built")?;
        let start = Instant::now();
        out.check(match grid.read_file() {
            Ok(back) if back == corpus.text => Ok(()),
            Ok(_) => Err("read_file() differs from the corpus".to_string()),
            Err(e) => Err(format!("read_file(): {e}")),
        });
        let mut pass_stats = grid.stats();
        pass_stats.merge(text_jobs(&mut grid, &corpus, out));
        Ok((setup + secs(start.elapsed()), pass_stats))
    };
    repeat(ctx.seconds, MIN_PASSES, || match pass(out) {
        Ok((wall, s)) => {
            walls.push(wall);
            stats.push(s);
        }
        Err(e) => out.fail(e),
    });
    if stats.windows(2).any(|w| w[0] != w[1]) {
        out.fail("wordcount read statistics differ between passes".to_string());
    }
    set_wall(out, &walls);
    out.set("setup_s", median(&setups));
    out.extra.push(("corpus_mib", "MiB", corpus.mib()));
    if let Some(s) = stats.first() {
        out.counters
            .insert("textlab.degraded_reads".into(), s.degraded_reads as u64);
        out.counters.insert(
            "textlab.blocks_transferred".into(),
            s.blocks_transferred as u64,
        );
    }
    Ok(())
}

fn wordcount_traced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let corpus = Corpus::new(ctx.seed, WORDCOUNT_LINES);
    let (mut encode, mut reconstruct, mut jobs) = (Vec::new(), Vec::new(), Vec::new());
    let mut job_stats = Vec::new();
    let mut lost_blocks = 0usize;
    let mut pass_walls = Vec::new();
    let mut pass = |out: &mut Outcome| -> Result<(), String> {
        let pass_start = Instant::now();
        let start = Instant::now();
        let mut grid = corpus.grid(ctx.seed)?;
        encode.push(secs(start.elapsed()));

        // Reconstruct every lost data block at the victim's neighbour.
        let reader = corpus
            .topo
            .node((corpus.victim.index() + 1) % corpus.topo.num_nodes());
        let lost: Vec<(usize, _)> = (0..grid.num_data_blocks())
            .map(|i| (i, grid.store().layout().native_at(i)))
            .filter(|&(_, b)| grid.store().node_of(b) == corpus.victim)
            .collect();
        lost_blocks = lost.len();
        let start = Instant::now();
        let mut rebuilt = Vec::with_capacity(lost.len());
        for &(i, block) in &lost {
            rebuilt.push((
                i,
                grid.degraded_read(block, reader)
                    .map_err(|e| e.to_string())?,
            ));
        }
        reconstruct.push(secs(start.elapsed()));
        for (i, bytes) in rebuilt {
            let lo = i * WORDCOUNT_BLOCK;
            let hi = (lo + WORDCOUNT_BLOCK).min(corpus.text.len());
            let ok = bytes.len() == WORDCOUNT_BLOCK
                && bytes[..hi - lo] == corpus.text[lo..hi]
                && bytes[hi - lo..].iter().all(|&b| b == 0);
            out.check(if ok {
                Ok(())
            } else {
                Err(format!(
                    "degraded_read of block {i} differs from the corpus"
                ))
            });
        }

        let start = Instant::now();
        job_stats.push(text_jobs(&mut grid, &corpus, out));
        jobs.push(secs(start.elapsed()));
        pass_walls.push(secs(pass_start.elapsed()));
        Ok(())
    };
    repeat(ctx.seconds, 1, || {
        if let Err(e) = pass(out) {
            out.fail(e);
        }
    });
    if job_stats.windows(2).any(|w| w[0] != w[1]) {
        out.fail("wordcount read statistics differ between passes".to_string());
    }
    let stats = job_stats.first().copied().unwrap_or_default();
    let block_mib = WORDCOUNT_BLOCK as f64 / (1024.0 * 1024.0);
    out.set(
        "erasure.encode_mib_per_s",
        ratio(corpus.mib(), median(&encode)),
    );
    out.set(
        "erasure.reconstruct_mib_per_s",
        ratio(lost_blocks as f64 * block_mib, median(&reconstruct)),
    );
    out.set("textlab.jobs_s", median(&jobs));
    out.set("textlab.degraded_reads", stats.degraded_reads as f64);
    out.set(
        "textlab.fetch_amplification",
        ratio(stats.blocks_transferred as f64, stats.degraded_reads as f64),
    );
    out.counters
        .insert("textlab.degraded_reads".into(), stats.degraded_reads as u64);
    out.counters.insert(
        "textlab.blocks_transferred".into(),
        stats.blocks_transferred as u64,
    );
    out.counters
        .insert("erasure.lost_blocks_rebuilt".into(), lost_blocks as u64);
    out.extra
        .push(("traced_pass_wall_s", "s", median(&pass_walls)));
    Ok(())
}
