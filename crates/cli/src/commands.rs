//! The CLI subcommands, each a thin shell over the `dfs` library.

use std::error::Error;
use std::fs::File;
use std::io::BufWriter;
use std::sync::Mutex;

use dfs::analysis::ModelParams;
use dfs::cluster::{FailureTimeline, NodeId, SpeedProfile, Topology};
use dfs::ecstore::FetchPolicy;
use dfs::erasure::CodeParams;
use dfs::experiment::{Experiment, ExperimentError, FailureSpec, PlacementKind, Policy};
use dfs::mapreduce::engine::EngineConfig;
use dfs::mapreduce::job::JobSpec;
use dfs::mapreduce::MapLocality;
use dfs::netsim::NetConfig;
use dfs::obs::aggregate::{Aggregator, AggregatorConfig, AggregatorMode};
use dfs::obs::chrome::ChromeTraceSink;
use dfs::obs::jsonl::{parse_line, JsonlSink};
use dfs::obs::schema::{validate_jsonl, TraceSchema, TRACE_SCHEMA_V1};
use dfs::obs::sink::{EventSink, FlowRateFilter, FlowRateFilterConfig};
use dfs::obs::spill::{validate_spill, SpillConfig, SpillSink};
use dfs::presets::MBPS;
use dfs::simkit::report::Table;
use dfs::simkit::time::{SimDuration, SimTime};
use dfs::simkit::SimRng;
use dfs::textlab::{run_job, CorpusBuilder, Grep, LineCount, MiniGrid, WordCount};
use dfs::workloads::{ArrivalTrace, TestbedWorkload};
use sweep::{
    parse_code as parse_sweep_code, parse_policy as parse_sweep_policy, parse_spec_jsonl,
    run_sweep as run_grid_sweep, sweep_seeds, trace_diff_scenario, FailureAxis as SweepFailureAxis,
    SweepBase, SweepSpec, SweepSummary, WorkloadAxis as SweepWorkloadAxis,
};

use crate::args::Args;

/// Placement stream label (DESIGN.md §9, R1): repair planning builds
/// the same placed store the engine would, so it forks placement with
/// the engine's label. Frozen — seeded repair plans replay it.
const PLACEMENT_STREAM: u64 = 1;

/// Top-level usage text.
pub const USAGE: &str = "\
dfs-cli — degraded-first scheduling for MapReduce in erasure-coded clusters

USAGE:
  dfs-cli analyze   [--nodes 40 --racks 4 --slots 4 --map-secs 20 --block-mb 128
                     --bandwidth-mbps 1000 --blocks 1440 --code 16,12]
  dfs-cli simulate  [--policy lf|bdf|edf|delay --seeds 5 --code 20,15 --racks 4
                     --nodes-per-rack 10 --map-slots 4 --blocks 1440 --block-mb 128
                     --bandwidth-mbps 1000 --failure node|double|rack|none
                     --fail-at node3@120s --recover-at node3@300s
                     --fetch-policy exact|redundant:R
                     --node-speeds homogeneous|slowdisk:F,S|stragglers:C,S|hot:C,M
                     --map-secs 20 --reducers 30 --shuffle 0.01
                     --poisson 120,10 --poisson-seed 1 --emit-arrivals out.jsonl
                     --arrivals trace.jsonl
                     --trace out.jsonl --trace-format jsonl|chrome|spill --trace-seed 1
                     --spill-segment-bytes 67108864
                     --flow-rate-min-delta 1e6 --flow-rate-min-interval 5]
  dfs-cli testbed   [--workload wordcount|grep|linecount|all --runs 5]
  dfs-cli repair    [--parallelism 4 --seed 1]
  dfs-cli wordcount [--lines 20000 --fail-node 0 --needle whale]
  dfs-cli obs-report --trace out.jsonl [--bucket-secs 10 --map-slots 160
                     --trace-window 60 --trace-max-windows 1024]
  dfs-cli trace-validate --trace out.jsonl [--spill]
  dfs-cli trace-diff --a a.jsonl --b b.jsonl [--top 10]
  dfs-cli sweep     [--policies lf,edf --codes \"8,6;9,6\" --failures node,rack
                     --workloads maponly:10 --fetch-policies exact,redundant:2
                     --speeds \"homogeneous;stragglers:3,0.25\"
                     --seeds 3 --seed-list 1,5,9
                     --threads 4 --base fig7-small|paper|scale-10k
                     --racks 4 --nodes-per-rack 4 --map-slots 2 --blocks 240
                     --block-mb 128 --node-mbps 1000 --rack-mbps 100
                     --spec grid.jsonl --out report.json --json
                     --diff lf,edf --diff-top 10]
  dfs-cli --help";

type CliResult = Result<(), Box<dyn Error>>;

/// Bytes per `--block-mb` unit.
const MIB: u64 = 1024 * 1024;

/// `dfs-cli analyze`: the Section IV-B closed-form model.
pub fn analyze(args: &Args) -> CliResult {
    args.ensure_known(&[
        "nodes",
        "racks",
        "slots",
        "map-secs",
        "block-mb",
        "bandwidth-mbps",
        "blocks",
        "code",
    ])?;
    let (n, k) = args.get_code_or("code", (16, 12))?;
    let params = ModelParams {
        nodes: args.get_or("nodes", 40usize)?,
        racks: args.get_positive_or("racks", 4usize)?,
        map_slots: args.get_positive_or("slots", 4usize)?,
        map_time_secs: args.get_positive_or("map-secs", 20.0f64)?,
        block_bytes: args.get_scaled_or("block-mb", 128, MIB)?,
        rack_bandwidth_bps: args.get_scaled_or("bandwidth-mbps", 1000, MBPS)?,
        num_blocks: args.get_positive_or("blocks", 1440usize)?,
        n,
        k,
    };
    params.validate()?;
    let mut table = Table::new(&["quantity", "value"]);
    table.row(&[
        "normal-mode runtime (s)".into(),
        format!("{:.1}", params.normal_runtime()),
    ]);
    table.row(&[
        "locality-first runtime (s)".into(),
        format!("{:.1}", params.locality_first_runtime()),
    ]);
    table.row(&[
        "degraded-first runtime (s)".into(),
        format!("{:.1}", params.degraded_first_runtime()),
    ]);
    table.row(&[
        "LF normalized".into(),
        format!("{:.3}", params.locality_first_normalized()),
    ]);
    table.row(&[
        "DF normalized".into(),
        format!("{:.3}", params.degraded_first_normalized()),
    ]);
    table.row(&[
        "DF reduction".into(),
        format!("{:.1}%", params.reduction() * 100.0),
    ]);
    table.row(&[
        "one degraded read, inter-rack (s)".into(),
        format!("{:.1}", params.degraded_read_secs()),
    ]);
    table.print("closed-form analysis (Section IV-B)");
    Ok(())
}

fn parse_policy(raw: &str) -> Result<Policy, String> {
    Ok(match raw {
        "lf" => Policy::LocalityFirst,
        "bdf" => Policy::BasicDegradedFirst,
        "edf" => Policy::EnhancedDegradedFirst,
        "bdf-locality" => Policy::DegradedFirstWith {
            locality_preservation: true,
            rack_awareness: false,
        },
        "bdf-rack" => Policy::DegradedFirstWith {
            locality_preservation: false,
            rack_awareness: true,
        },
        "delay" => Policy::DelayScheduling {
            max_wait: SimDuration::from_secs(6),
        },
        other => {
            return Err(format!(
                "unknown policy {other:?} (lf|bdf|edf|bdf-locality|bdf-rack|delay)"
            ))
        }
    })
}

fn parse_failure(raw: &str) -> Result<FailureSpec, String> {
    Ok(match raw {
        "none" => FailureSpec::None,
        "node" => FailureSpec::RandomSingleNode,
        "double" => FailureSpec::RandomDoubleNode,
        "rack" => FailureSpec::RandomRack,
        other => return Err(format!("unknown failure {other:?} (none|node|double|rack)")),
    })
}

/// Parses one `node3@120s` timeline entry.
fn parse_timeline_entry(raw: &str) -> Result<(NodeId, SimTime), String> {
    let bad = || format!("bad timeline entry {raw:?} (want node3@120s)");
    let (node, at) = raw.split_once('@').ok_or_else(bad)?;
    let idx: u32 = node
        .strip_prefix("node")
        .unwrap_or(node)
        .parse()
        .map_err(|_| bad())?;
    let secs: f64 = at
        .strip_suffix('s')
        .unwrap_or(at)
        .parse()
        .map_err(|_| bad())?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(bad());
    }
    Ok((NodeId(idx), SimTime::from_secs_f64(secs)))
}

/// Builds a mid-run churn timeline from comma-separated `--fail-at` /
/// `--recover-at` values like `node3@120s,node5@200s`.
fn parse_timeline(fail: Option<&str>, recover: Option<&str>) -> Result<FailureTimeline, String> {
    let mut timeline = FailureTimeline::new();
    for raw in fail.iter().flat_map(|s| s.split(',')) {
        let (node, at) = parse_timeline_entry(raw)?;
        timeline = timeline.fail_node_at(node, at);
    }
    for raw in recover.iter().flat_map(|s| s.split(',')) {
        let (node, at) = parse_timeline_entry(raw)?;
        timeline = timeline.recover_node_at(node, at);
    }
    Ok(timeline)
}

/// `dfs-cli simulate`: a configurable failure-mode experiment.
pub fn simulate(args: &Args) -> CliResult {
    args.ensure_known(&[
        "policy",
        "seeds",
        "code",
        "racks",
        "nodes-per-rack",
        "map-slots",
        "blocks",
        "block-mb",
        "bandwidth-mbps",
        "failure",
        "fail-at",
        "recover-at",
        "fetch-policy",
        "node-speeds",
        "map-secs",
        "reduce-secs",
        "reducers",
        "shuffle",
        "trace",
        "trace-format",
        "trace-seed",
        "spill-segment-bytes",
        "flow-rate-min-delta",
        "flow-rate-min-interval",
        "arrivals",
        "poisson",
        "poisson-seed",
        "emit-arrivals",
    ])?;
    let (n, k) = args.get_code_or("code", (20, 15))?;
    let policy = parse_policy(args.get("policy").unwrap_or("edf"))?;
    let timeline = parse_timeline(args.get("fail-at"), args.get("recover-at"))?;
    // With an explicit churn timeline the cluster starts healthy unless
    // a t=0 scenario is also requested.
    let default_failure = if timeline.is_empty() { "node" } else { "none" };
    let failure = parse_failure(args.get("failure").unwrap_or(default_failure))?;
    let fetch_policy = FetchPolicy::parse(args.get("fetch-policy").unwrap_or("exact"))?;
    let node_speeds = SpeedProfile::parse(args.get("node-speeds").unwrap_or("homogeneous"))?;
    let seeds: u64 = args.get_or("seeds", 5u64)?;
    let reducers: usize = args.get_or("reducers", 30usize)?;
    let map_secs = args.get_non_negative_or("map-secs", 20.0)?;
    let reduce_secs = args.get_non_negative_or("reduce-secs", 30.0)?;
    let min_delta = args.get_non_negative_or("flow-rate-min-delta", 0.0)?;
    let min_interval = args.get_non_negative_or("flow-rate-min-interval", 0.0)?;
    let shuffle: f64 = args.get_or("shuffle", 0.01f64)?;

    let mut job = JobSpec::builder("cli")
        .map_time(
            SimDuration::from_secs_f64(map_secs),
            SimDuration::from_secs_f64(map_secs / 20.0),
        )
        .reduce_time(
            SimDuration::from_secs_f64(reduce_secs),
            SimDuration::from_secs_f64(reduce_secs / 15.0),
        )
        .reduce_tasks(reducers)
        .build();
    if reducers == 0 {
        job = JobSpec::builder("cli")
            .map_time(
                SimDuration::from_secs_f64(map_secs),
                SimDuration::from_secs_f64(map_secs / 20.0),
            )
            .map_only()
            .build();
    } else {
        job.shuffle_ratio = shuffle;
    }

    // A multi-job arrival process replaces the single `--map-secs`-style
    // job: either replayed from a recorded trace or freshly generated.
    let arrivals = match (args.get("arrivals"), args.get("poisson")) {
        (Some(_), Some(_)) => {
            return Err("--arrivals and --poisson are mutually exclusive".into());
        }
        (Some(path), None) => {
            let text = std::fs::read_to_string(path)?;
            Some(ArrivalTrace::parse_jsonl(&text)?)
        }
        (None, Some(raw)) => {
            let (mean_secs, count) = parse_poisson(raw)?;
            let seed: u64 = args.get_or("poisson-seed", 1u64)?;
            Some(ArrivalTrace::poisson(seed, count, mean_secs)?)
        }
        (None, None) => None,
    };
    if let Some(path) = args.get("emit-arrivals") {
        let trace = arrivals
            .as_ref()
            .ok_or("--emit-arrivals needs --poisson or --arrivals")?;
        std::fs::write(path, trace.to_jsonl())?;
        println!("arrival trace ({} jobs) written to {path}", trace.len());
    }

    let mut exp = Experiment {
        topo: Topology::homogeneous(
            args.get_positive_or("racks", 4usize)?,
            args.get_positive_or("nodes-per-rack", 10usize)?,
            args.get_positive_or("map-slots", 4u32)?,
            1,
        ),
        code: CodeParams::new(n, k).map_err(|e| e.to_string())?,
        num_blocks: args.get_or("blocks", 1440usize)?,
        placement: PlacementKind::RackAware,
        failure,
        timeline,
        config: EngineConfig {
            block_bytes: args.get_scaled_or("block-mb", 128, MIB)?,
            net: NetConfig {
                node_bps: 1_000_000_000,
                rack_bps: args.get_scaled_or("bandwidth-mbps", 1000, MBPS)?,
            },
            fetch_policy,
            node_speeds,
            ..EngineConfig::default()
        },
        jobs: vec![job],
    };
    if let Some(trace) = &arrivals {
        exp = exp.arrivals(trace);
    }
    let exp = exp;

    let sweeps = sweep_runs(seeds, |seed| {
        let normal = exp.run_normal_mode(seed)?;
        let run = exp.run(policy, seed)?;
        Ok(vec![
            run.jobs[0].runtime().as_secs_f64(),
            run.jobs[0].runtime().as_secs_f64() / normal.jobs[0].runtime().as_secs_f64(),
            run.map_count(MapLocality::Degraded) as f64,
            {
                let reads = run.degraded_read_secs();
                reads.iter().sum::<f64>() / reads.len().max(1) as f64
            },
        ])
    })?;
    let mut table = Table::new(&["metric", "mean", "min", "max"]);
    for (i, name) in [
        "runtime (s)",
        "normalized runtime",
        "degraded tasks",
        "mean degraded read (s)",
    ]
    .iter()
    .enumerate()
    {
        let s = sweeps[i].summary()?;
        table.row(&[
            name.to_string(),
            format!("{:.3}", s.mean),
            format!("{:.3}", s.min),
            format!("{:.3}", s.max),
        ]);
    }
    table.print(&format!(
        "{} over {} seeds, {}x{} nodes, ({n},{k})",
        policy.name(),
        sweeps[0].samples.len(),
        exp.topo.num_racks(),
        exp.topo.num_nodes() / exp.topo.num_racks(),
    ));

    if let Some(path) = args.get("trace") {
        let trace_seed: u64 = args.get_or("trace-seed", 1u64)?;
        let format = args.get("trace-format").unwrap_or("jsonl");
        // Both thresholds zero means no filtering at all, so the default
        // trace stays byte-identical to pre-filter builds.
        let filter = (min_delta > 0.0 || min_interval > 0.0).then(|| FlowRateFilterConfig {
            min_delta_bps: min_delta,
            min_interval: SimDuration::from_secs_f64(min_interval),
        });
        let segment_bytes: u64 = args.get_or("spill-segment-bytes", 64 * 1024 * 1024u64)?;
        write_trace(
            &exp,
            policy,
            trace_seed,
            path,
            format,
            filter,
            segment_bytes,
        )?;
    }
    Ok(())
}

/// [`sweep_seeds`] over runs that can fail. When every seed fails, the
/// error names the lowest failed seed's cause (a bad job spec or layout
/// fails every seed alike).
fn sweep_runs<F>(seeds: u64, run: F) -> Result<Vec<SweepSummary>, String>
where
    F: Fn(u64) -> Result<Vec<f64>, ExperimentError> + Sync,
{
    let first_error: Mutex<Option<(u64, ExperimentError)>> = Mutex::new(None);
    let sweeps = sweep_seeds(seeds, |seed| {
        run(seed)
            .map_err(|e| {
                if let Ok(mut first) = first_error.lock() {
                    if first.as_ref().is_none_or(|(s, _)| seed < *s) {
                        *first = Some((seed, e));
                    }
                }
            })
            .ok()
    });
    sweeps.map_err(|e| match first_error.into_inner() {
        Ok(Some((seed, cause))) => format!("{e}; seed {seed}: {cause}"),
        _ => e.to_string(),
    })
}

/// Parses `--poisson 120,10` (mean inter-arrival seconds, job count).
fn parse_poisson(raw: &str) -> Result<(f64, usize), String> {
    let bad = || format!("bad --poisson {raw:?} (want mean_secs,count e.g. 120,10)");
    let (mean, count) = raw.split_once(',').ok_or_else(bad)?;
    let mean_secs: f64 = mean.trim().parse().map_err(|_| bad())?;
    let count: usize = count.trim().parse().map_err(|_| bad())?;
    Ok((mean_secs, count))
}

/// Re-runs one seed of `exp` with tracing enabled, writing the event
/// stream to `path` in the requested format, optionally thinned through
/// a [`FlowRateFilter`]. The `spill` format treats `path` as a directory
/// of size-bounded segments plus a manifest.
fn write_trace(
    exp: &Experiment,
    policy: Policy,
    seed: u64,
    path: &str,
    format: &str,
    filter: Option<FlowRateFilterConfig>,
    segment_bytes: u64,
) -> CliResult {
    let suppressed = match format {
        "jsonl" => {
            let mut sink = JsonlSink::new(BufWriter::new(File::create(path)?));
            let suppressed = trace_into(exp, policy, seed, &mut sink, filter)?;
            sink.finish()?;
            suppressed
        }
        "chrome" => {
            let file = BufWriter::new(File::create(path)?);
            let mut sink = ChromeTraceSink::new(file, exp.chrome_config());
            let suppressed = trace_into(exp, policy, seed, &mut sink, filter)?;
            sink.finish()?;
            suppressed
        }
        "spill" => {
            let mut sink = SpillSink::create(SpillConfig {
                dir: path.into(),
                max_segment_bytes: segment_bytes,
            })?;
            let suppressed = trace_into(exp, policy, seed, &mut sink, filter)?;
            let manifest = sink.finish()?;
            println!(
                "spilled {} events ({} bytes) across {} segments",
                manifest.total_events,
                manifest.total_bytes,
                manifest.segments.len()
            );
            suppressed
        }
        other => return Err(format!("unknown trace format {other:?} (jsonl|chrome|spill)").into()),
    };
    println!("{format} trace of seed {seed} written to {path}");
    if let Some(dropped) = suppressed {
        println!("flow-rate filter suppressed {dropped} flow_rate events");
    }
    Ok(())
}

/// Runs `exp` traced into `sink`, threading the stream through a
/// [`FlowRateFilter`] when one is configured. Returns the suppressed
/// event count (None when unfiltered).
fn trace_into(
    exp: &Experiment,
    policy: Policy,
    seed: u64,
    sink: &mut dyn EventSink,
    filter: Option<FlowRateFilterConfig>,
) -> Result<Option<u64>, Box<dyn Error>> {
    match filter {
        Some(cfg) => {
            let mut filter = FlowRateFilter::new(sink, cfg);
            exp.run_traced(policy, seed, &mut filter)?;
            Ok(Some(filter.suppressed()))
        }
        None => {
            exp.run_traced(policy, seed, sink)?;
            Ok(None)
        }
    }
}

/// `dfs-cli obs-report`: derived metrics from a JSONL trace file.
pub fn obs_report(args: &Args) -> CliResult {
    args.ensure_known(&[
        "trace",
        "bucket-secs",
        "map-slots",
        "trace-window",
        "trace-max-windows",
    ])?;
    let bucket = SimDuration::from_secs_f64(args.get_non_negative_or("bucket-secs", 10.0)?);
    if bucket.is_zero() {
        return Err("--bucket-secs must be positive".into());
    }
    let path = args
        .get("trace")
        .ok_or("obs-report needs --trace <file.jsonl>")?;
    let text = std::fs::read_to_string(path)?;
    let mode = match args.get("trace-window") {
        Some(w) => {
            let window_secs: u64 = w
                .parse()
                .map_err(|_| format!("bad --trace-window `{w}` (want seconds)"))?;
            if window_secs == 0 {
                return Err("--trace-window must be positive".into());
            }
            let max_windows: usize = args.get_or("trace-max-windows", 1024usize)?;
            if max_windows == 0 {
                return Err("--trace-max-windows must be positive".into());
            }
            AggregatorMode::Windowed {
                window_secs,
                max_windows,
            }
        }
        None => AggregatorMode::Exact,
    };
    let mut agg = Aggregator::new(AggregatorConfig {
        bucket,
        total_map_slots: args.get_or("map-slots", 0u64)?,
        link_capacities_bps: Vec::new(),
        mode,
    });
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (at, event) = parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        agg.record(at, &event);
    }
    let r = agg.report();
    let opt = |x: Option<f64>| x.map_or_else(|| "-".to_string(), |v| format!("{v:.2}"));
    let mut table = Table::new(&["metric", "value"]);
    table.row(&["makespan (s)".into(), format!("{:.1}", r.makespan_secs)]);
    table.row(&[
        "jobs finished / submitted".into(),
        format!("{} / {}", r.jobs_finished, r.jobs_submitted),
    ]);
    table.row(&[
        "maps local/rack/remote/degraded".into(),
        format!(
            "{}/{}/{}/{}",
            r.maps_node_local, r.maps_rack_local, r.maps_remote, r.maps_degraded
        ),
    ]);
    table.row(&["reduces".into(), r.reduces.to_string()]);
    table.row(&[
        "speculative / cancelled".into(),
        format!("{} / {}", r.speculative_launches, r.cancelled_attempts),
    ]);
    table.row(&[
        "nodes failed / recovered".into(),
        format!("{} / {}", r.nodes_failed, r.nodes_recovered),
    ]);
    table.row(&[
        "maps relaunched (churn)".into(),
        r.maps_relaunched.to_string(),
    ]);
    table.row(&["mean normal map (s)".into(), opt(r.mean_normal_map_secs)]);
    table.row(&[
        "mean degraded map (s)".into(),
        opt(r.mean_degraded_map_secs),
    ]);
    table.row(&["mean reduce (s)".into(), opt(r.mean_reduce_secs)]);
    table.row(&[
        "degraded reads (p50/p95/p99 s)".into(),
        format!(
            "{} ({}/{}/{})",
            r.degraded_read_secs.len(),
            opt(r.degraded_read_p50),
            opt(r.degraded_read_p95),
            opt(r.degraded_read_p99)
        ),
    ]);
    table.row(&[
        "job completion latency (p50/p95/p99 s)".into(),
        format!(
            "{} ({}/{}/{})",
            r.job_latency_secs.len(),
            opt(r.job_latency_p50),
            opt(r.job_latency_p95),
            opt(r.job_latency_p99)
        ),
    ]);
    table.row(&[
        "job queueing delay (p50/p95/p99 s)".into(),
        format!(
            "{} ({}/{}/{})",
            r.job_queue_delay_secs.len(),
            opt(r.job_queue_delay_p50),
            opt(r.job_queue_delay_p95),
            opt(r.job_queue_delay_p99)
        ),
    ]);
    table.row(&[
        "peak jobs in flight".into(),
        r.peak_jobs_in_flight.to_string(),
    ]);
    // Redundant-fetch accounting only appears when the trace ran with
    // `--fetch-policy redundant:R`, so exact-policy reports keep their
    // pre-PR9 bytes.
    if r.redundant_fetches_issued > 0 || r.fetch_cancel_wins > 0 {
        table.row(&[
            "redundant fetches (reads / extra flows)".into(),
            format!(
                "{} / {}",
                r.redundant_fetches_issued, r.redundant_extra_flows
            ),
        ]);
        table.row(&[
            "fetch cancel wins / cancelled MB".into(),
            format!(
                "{} / {:.1}",
                r.fetch_cancel_wins,
                r.redundant_cancelled_bytes as f64 / (1024.0 * 1024.0)
            ),
        ]);
    }
    table.row(&[
        "fetch/map overlap (s)".into(),
        format!(
            "{:.1} of {:.1} ({})",
            r.overlap_secs,
            r.degraded_fetch_active_secs,
            opt(r.overlap_fraction())
        ),
    ]);
    if !r.slot_utilization.is_empty() {
        let peak = r.slot_utilization.iter().fold(0.0f64, |a, &b| a.max(b));
        table.row(&[
            format!("peak slot utilization ({:.0}s buckets)", r.bucket_secs),
            format!("{peak:.2}"),
        ]);
    }
    if let Some(top) = r
        .link_utilization
        .iter()
        .max_by(|a, b| a.mean_bps.total_cmp(&b.mean_bps))
    {
        table.row(&[
            "busiest link (mean / peak Mb/s)".into(),
            format!(
                "link {} ({:.1} / {:.1})",
                top.link,
                top.mean_bps / 1e6,
                top.peak_bps / 1e6
            ),
        ]);
    }
    table.print(&format!("trace summary of {path}"));
    Ok(())
}

/// `dfs-cli trace-validate`: check a JSONL trace against the schema.
/// With `--spill`, `--trace` names a spill directory: the manifest is
/// cross-checked against the segments and every segment is then
/// schema-validated.
pub fn trace_validate(args: &Args) -> CliResult {
    args.ensure_known(&["trace", "spill"])?;
    let path = args
        .get("trace")
        .ok_or("trace-validate needs --trace <file.jsonl | spill-dir>")?;
    let schema = TraceSchema::parse(TRACE_SCHEMA_V1)?;
    if args.flag("spill") {
        let dir = std::path::Path::new(path);
        let manifest = validate_spill(dir)?;
        let mut count = 0;
        for seg in &manifest.segments {
            let text = std::fs::read_to_string(dir.join(&seg.file))?;
            count += validate_jsonl(&schema, &text).map_err(|e| format!("{}: {e}", seg.file))?;
        }
        println!(
            "{path}: manifest consistent, {count} events across {} segments valid \
             against trace schema v1",
            manifest.segments.len()
        );
        return Ok(());
    }
    let text = std::fs::read_to_string(path)?;
    let count = validate_jsonl(&schema, &text)?;
    println!("{path}: {count} events valid against trace schema v1");
    Ok(())
}

/// `dfs-cli trace-diff`: lane-by-lane comparison of two JSONL traces,
/// attributing the makespan delta to concrete tasks and flows.
pub fn trace_diff(args: &Args) -> CliResult {
    args.ensure_known(&["a", "b", "top"])?;
    let path_a = args.get("a").ok_or("trace-diff needs --a <a.jsonl>")?;
    let path_b = args.get("b").ok_or("trace-diff needs --b <b.jsonl>")?;
    let top: usize = args.get_or("top", 10usize)?;
    let text_a = std::fs::read_to_string(path_a)?;
    let text_b = std::fs::read_to_string(path_b)?;
    let diff = dfs::obs::diff::diff_jsonl(&text_a, &text_b, top)?;
    print!("{}", dfs::obs::diff::render(&diff));
    Ok(())
}

/// `dfs-cli sweep`: the sharded deterministic parameter-sweep engine.
///
/// Expands a (policy × code × failure × workload × seed) grid, runs
/// every shard on a thread pool, and prints a merged comparison report
/// that is byte-identical for any thread count.
pub fn sweep_grid(args: &Args) -> CliResult {
    args.ensure_known(&[
        "spec",
        "policies",
        "codes",
        "failures",
        "workloads",
        "fetch-policies",
        "speeds",
        "seeds",
        "seed-list",
        "threads",
        "base",
        "racks",
        "nodes-per-rack",
        "map-slots",
        "reduce-slots",
        "blocks",
        "block-mb",
        "node-mbps",
        "rack-mbps",
        "out",
        "json",
        "diff",
        "diff-top",
    ])?;
    let spec = if let Some(path) = args.get("spec") {
        let text = std::fs::read_to_string(path)?;
        parse_spec_jsonl(&text)?
    } else {
        let mut base = match args.get("base").unwrap_or("fig7-small") {
            "fig7-small" => SweepBase::fig7_small(),
            "paper" => SweepBase::paper_default(),
            "scale-10k" => SweepBase::scale_10k(),
            other => {
                return Err(format!("unknown base {other:?} (fig7-small|paper|scale-10k)").into())
            }
        };
        base.racks = args.get_or("racks", base.racks)?;
        base.nodes_per_rack = args.get_or("nodes-per-rack", base.nodes_per_rack)?;
        base.map_slots = args.get_or("map-slots", base.map_slots)?;
        base.reduce_slots = args.get_or("reduce-slots", base.reduce_slots)?;
        base.num_blocks = args.get_or("blocks", base.num_blocks)?;
        base.block_bytes = args.get_scaled_or("block-mb", base.block_bytes / MIB, MIB)?;
        base.node_mbps = args.get_or("node-mbps", base.node_mbps)?;
        base.rack_mbps = args.get_or("rack-mbps", base.rack_mbps)?;

        let mut policies = Vec::new();
        for token in args.get("policies").unwrap_or("lf,edf").split(',') {
            policies.push(parse_sweep_policy(token.trim())?);
        }
        let mut codes = Vec::new();
        for token in args.get("codes").unwrap_or("8,6;9,6").split(';') {
            codes.push(parse_sweep_code(token.trim())?);
        }
        let mut failures = Vec::new();
        for token in args.get("failures").unwrap_or("node,rack").split(',') {
            failures.push(SweepFailureAxis::parse(token.trim())?);
        }
        let mut workloads = Vec::new();
        for token in args.get("workloads").unwrap_or("maponly:10").split(',') {
            workloads.push(SweepWorkloadAxis::parse(token.trim())?);
        }
        let mut fetch_policies = Vec::new();
        for token in args.get("fetch-policies").unwrap_or("exact").split(',') {
            fetch_policies.push(FetchPolicy::parse(token.trim())?);
        }
        // Speed profiles embed commas (`stragglers:3,0.25`), so the
        // axis separator is `;` like `--codes`.
        let mut speeds = Vec::new();
        for token in args.get("speeds").unwrap_or("homogeneous").split(';') {
            speeds.push(SpeedProfile::parse(token.trim())?);
        }
        let seeds: Vec<u64> = match args.get("seed-list") {
            Some(raw) => {
                let mut seeds = Vec::new();
                for token in raw.split(',') {
                    seeds.push(
                        token
                            .trim()
                            .parse::<u64>()
                            .map_err(|e| format!("bad seed {token:?}: {e}"))?,
                    );
                }
                seeds
            }
            None => (1..=args.get_or("seeds", 3u64)?).collect(),
        };
        SweepSpec {
            base,
            policies,
            codes,
            failures,
            workloads,
            fetch_policies,
            speeds,
            seeds,
        }
    };
    let threads = args.get_or(
        "threads",
        std::thread::available_parallelism().map_or(4, |n| n.get()),
    )?;
    let report = run_grid_sweep(&spec, threads)?;
    if let Some(path) = args.get("out") {
        std::fs::write(path, report.to_json())?;
        eprintln!(
            "sweep report ({} shards, {} ok) written to {path}",
            report.shards.len(),
            report.shards_ok()
        );
    }
    if args.flag("json") {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.human());
    }
    // `--diff lf,edf`: re-run the grid's first scenario under the two
    // named policies with tracing and attribute the makespan delta.
    if let Some(pair) = args.get("diff") {
        let (a, b) = pair
            .split_once(',')
            .ok_or_else(|| format!("bad --diff {pair:?} (want two policies, e.g. lf,edf)"))?;
        let policy_a = parse_sweep_policy(a.trim())?;
        let policy_b = parse_sweep_policy(b.trim())?;
        let top: usize = args.get_or("diff-top", 10usize)?;
        println!(
            "\ntrace diff of first scenario: {} vs {}",
            policy_a.name(),
            policy_b.name()
        );
        print!("{}", trace_diff_scenario(&spec, policy_a, policy_b, top)?);
    }
    Ok(())
}

/// `dfs-cli testbed`: the Section VI configuration.
pub fn testbed(args: &Args) -> CliResult {
    args.ensure_known(&["workload", "runs"])?;
    let runs: u64 = args.get_or("runs", 5u64)?;
    let workloads: Vec<TestbedWorkload> = match args.get("workload").unwrap_or("all") {
        "wordcount" => vec![TestbedWorkload::WordCount],
        "grep" => vec![TestbedWorkload::Grep],
        "linecount" => vec![TestbedWorkload::LineCount],
        "all" => TestbedWorkload::ALL.to_vec(),
        other => return Err(format!("unknown workload {other:?}").into()),
    };
    let mut table = Table::new(&["job", "LF mean (s)", "EDF mean (s)", "reduction"]);
    for w in workloads {
        let exp = dfs::presets::testbed(&[w]);
        let sweeps = sweep_runs(runs, |seed| {
            let lf = exp.run(Policy::LocalityFirst, seed)?;
            let edf = exp.run(Policy::EnhancedDegradedFirst, seed)?;
            Ok(vec![
                lf.jobs[0].runtime().as_secs_f64(),
                edf.jobs[0].runtime().as_secs_f64(),
            ])
        })?;
        table.row(&[
            w.name().to_string(),
            format!("{:.1}", sweeps[0].mean()),
            format!("{:.1}", sweeps[1].mean()),
            format!("{:.1}%", sweeps[1].mean_reduction_vs(&sweeps[0]) * 100.0),
        ]);
    }
    table.print("testbed mode (12 slaves / 3 racks, (12,10), 240 x 64 MB blocks)");
    Ok(())
}

/// `dfs-cli repair`: plan and simulate one failed node's repair.
pub fn repair(args: &Args) -> CliResult {
    args.ensure_known(&["parallelism", "seed"])?;
    let parallelism: usize = args.get_positive_or("parallelism", 4usize)?;
    let seed: u64 = args.get_or("seed", 1u64)?;
    let exp = dfs::presets::simulation_default();
    let scenario = exp.failure_for_seed(seed);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut placement_rng = rng.fork(PLACEMENT_STREAM);
    let layout =
        dfs::ecstore::StripeLayout::new(exp.code, exp.num_blocks).map_err(|e| e.to_string())?;
    let store = dfs::ecstore::BlockStore::place(
        &exp.topo,
        layout,
        &dfs::ecstore::RackAwarePlacement,
        &mut placement_rng,
    )
    .map_err(|e| e.to_string())?;
    let state = dfs::cluster::ClusterState::from_scenario(&exp.topo, &scenario);
    let plan = dfs::repair::RepairPlan::plan(&store, &exp.topo, &state, &mut rng)?;
    let report = dfs::repair::simulate(
        &plan,
        &exp.topo,
        exp.config.net,
        exp.config.block_bytes,
        parallelism,
    );
    let mut table = Table::new(&["quantity", "value"]);
    table.row(&["failure".into(), scenario.to_string()]);
    table.row(&["lost blocks".into(), plan.tasks.len().to_string()]);
    table.row(&[
        "network transfers".into(),
        plan.network_block_count().to_string(),
    ]);
    table.row(&[
        "cross-rack transfers".into(),
        plan.cross_rack_block_count(&exp.topo).to_string(),
    ]);
    table.row(&[
        "bytes moved".into(),
        format!("{:.1} GB", report.bytes_transferred as f64 / 1e9),
    ]);
    table.row(&[
        "repair makespan".into(),
        format!(
            "{:.1} s at parallelism {parallelism}",
            report.makespan.as_secs_f64()
        ),
    ]);
    table.print("full-node repair");
    Ok(())
}

/// `dfs-cli wordcount`: the real-bytes demo over the erasure-coded grid.
pub fn wordcount(args: &Args) -> CliResult {
    args.ensure_known(&["lines", "fail-node", "needle", "seed"])?;
    let lines: usize = args.get_or("lines", 20_000usize)?;
    let seed: u64 = args.get_or("seed", 7u64)?;
    let topo = Topology::homogeneous(3, 4, 4, 1);
    let victim = match args.get("fail-node") {
        Some(raw) => {
            let idx: u32 = raw
                .parse()
                .map_err(|_| format!("bad --fail-node {raw:?}"))?;
            let nodes = topo.num_nodes();
            if idx as usize >= nodes {
                return Err(format!(
                    "--fail-node {idx} is out of range: the grid has nodes 0..{nodes}"
                )
                .into());
            }
            Some(NodeId(idx))
        }
        None => None,
    };
    let text = CorpusBuilder::new(seed).lines(lines).build();
    let params = CodeParams::new(12, 10).map_err(|e| e.to_string())?;
    let mut grid = MiniGrid::new(topo, params, 16 * 1024, &text, seed)?;
    if let Some(node) = victim {
        grid.fail_node(node);
    }
    let wc = run_job(&mut grid, &WordCount)?;
    let lc = run_job(&mut grid, &LineCount)?;
    let needle = args.get("needle").unwrap_or("whale").to_string();
    let grep = run_job(&mut grid, &Grep::new(&needle))?;
    let mut table = Table::new(&["job", "keys", "total", "degraded reads"]);
    table.row(&[
        "WordCount".into(),
        wc.results.len().to_string(),
        wc.total().to_string(),
        wc.stats.degraded_reads.to_string(),
    ]);
    table.row(&[
        "LineCount".into(),
        lc.results.len().to_string(),
        lc.total().to_string(),
        lc.stats.degraded_reads.to_string(),
    ]);
    table.row(&[
        format!("Grep({needle})"),
        grep.results.len().to_string(),
        grep.total().to_string(),
        grep.stats.degraded_reads.to_string(),
    ]);
    table.print(&format!(
        "real map/reduce over {} bytes erasure-coded across 12 nodes",
        grid.file_len()
    ));
    Ok(())
}
