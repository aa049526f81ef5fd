//! Cross-validation of the Section IV-B closed-form model against the
//! discrete event simulator, under the model's own assumptions
//! (map-only job, deterministic map time, single node failure, uniform
//! random degraded-read sources).

use dfs::analysis::ModelParams;
use dfs::cluster::Topology;
use dfs::erasure::CodeParams;
use dfs::experiment::{Experiment, FailureSpec, PlacementKind, Policy};
use dfs::mapreduce::engine::EngineConfig;
use dfs::mapreduce::job::JobSpec;
use dfs::netsim::NetConfig;
use dfs::simkit::time::SimDuration;
use sweep::sweep_seeds_scalar;

/// A small analysis-compatible setting: N=20, R=4, L=2, T=10s,
/// (8,6), F=480, W=200 Mbps, S=128MB.
fn setting() -> (ModelParams, Experiment) {
    let params = ModelParams {
        nodes: 20,
        racks: 4,
        map_slots: 2,
        map_time_secs: 10.0,
        block_bytes: 64 * 1024 * 1024,
        rack_bandwidth_bps: 200_000_000,
        num_blocks: 480,
        n: 8,
        k: 6,
    };
    let exp = Experiment {
        topo: Topology::homogeneous(4, 5, 2, 1),
        code: CodeParams::new(8, 6).unwrap(),
        num_blocks: 480,
        placement: PlacementKind::RackAware,
        failure: FailureSpec::RandomSingleNode,
        timeline: dfs::cluster::FailureTimeline::new(),
        config: EngineConfig {
            block_bytes: params.block_bytes,
            net: NetConfig {
                node_bps: 1_000_000_000,
                rack_bps: params.rack_bandwidth_bps,
            },
            // The model has no heartbeat quantization (a freed slot is
            // refilled instantly); shrink the heartbeat so the simulator
            // approximates that assumption.
            heartbeat_period: SimDuration::from_millis(500),
            ..EngineConfig::default()
        },
        jobs: vec![JobSpec::builder("analysis")
            .map_time(SimDuration::from_secs(10), SimDuration::ZERO)
            .map_only()
            .build()],
    };
    (params, exp)
}

#[test]
fn normal_mode_runtime_matches_ft_over_nl() {
    let (params, exp) = setting();
    // Analysis: F*T/(N*L) = 480*10/(20*2) = 120s.
    let predicted = params.normal_runtime();
    let sim = exp.run_normal_mode(1).expect("normal run");
    let actual = sim.jobs[0].runtime().as_secs_f64();
    // The simulator adds heartbeat latency (3s period) and a little
    // non-locality; stay within 15%.
    let ratio = actual / predicted;
    assert!(
        (0.9..1.15).contains(&ratio),
        "normal-mode: sim {actual:.1}s vs model {predicted:.1}s"
    );
}

#[test]
fn locality_first_matches_model_band() {
    let (params, exp) = setting();
    let predicted = params.locality_first_normalized();
    let sweep = sweep_seeds_scalar(6, |seed| {
        exp.normalized_runtime(Policy::LocalityFirst, seed).ok()
    })
    .expect("a seed runs");
    let simulated = sweep.mean();
    let ratio = simulated / predicted;
    assert!(
        (0.75..1.3).contains(&ratio),
        "LF: sim {simulated:.3} vs model {predicted:.3}"
    );
}

#[test]
fn degraded_first_matches_model_band() {
    let (params, exp) = setting();
    let predicted = params.degraded_first_normalized();
    let sweep = sweep_seeds_scalar(6, |seed| {
        exp.normalized_runtime(Policy::BasicDegradedFirst, seed)
            .ok()
    })
    .expect("a seed runs");
    let simulated = sweep.mean();
    let ratio = simulated / predicted;
    assert!(
        (0.75..1.35).contains(&ratio),
        "DF: sim {simulated:.3} vs model {predicted:.3}"
    );
}

#[test]
fn model_and_sim_agree_on_the_winner() {
    let (params, exp) = setting();
    assert!(params.degraded_first_runtime() < params.locality_first_runtime());
    let lf = sweep_seeds_scalar(5, |s| exp.normalized_runtime(Policy::LocalityFirst, s).ok())
        .expect("a seed runs");
    let df = sweep_seeds_scalar(5, |s| {
        exp.normalized_runtime(Policy::BasicDegradedFirst, s).ok()
    })
    .expect("a seed runs");
    assert!(
        df.mean() < lf.mean(),
        "sim contradicts the model: DF {:.3} vs LF {:.3}",
        df.mean(),
        lf.mean()
    );
}
