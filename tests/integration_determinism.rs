//! Reproducibility: a run is a pure function of its configuration and
//! seed, across repeats and across thread schedules.

use dfs::experiment::Policy;
use dfs::presets;
use sweep::sweep_seeds_scalar;

#[test]
fn identical_seeds_reproduce_bit_identically() {
    let exp = presets::small_default();
    for policy in [Policy::LocalityFirst, Policy::EnhancedDegradedFirst] {
        let a = exp.run(policy, 11).expect("a");
        let b = exp.run(policy, 11).expect("b");
        assert_eq!(a, b, "{} replay diverged", policy.name());
    }
}

#[test]
fn different_seeds_differ() {
    let exp = presets::small_default();
    let a = exp.run(Policy::LocalityFirst, 1).expect("a");
    let b = exp.run(Policy::LocalityFirst, 2).expect("b");
    assert_ne!(a, b, "different seeds should vary placement/failure");
}

#[test]
fn parallel_sweep_is_deterministic() {
    let exp = presets::small_default();
    let run = || {
        sweep_seeds_scalar(6, |seed| {
            exp.normalized_runtime(Policy::EnhancedDegradedFirst, seed)
                .ok()
        })
        .expect("a seed runs")
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.samples, b.samples,
        "thread scheduling leaked into results"
    );
}

#[test]
fn runs_across_threads_match_runs_in_sequence() {
    let exp = presets::small_default();
    let sequential: Vec<f64> = (0..4)
        .map(|seed| {
            exp.normalized_runtime(Policy::BasicDegradedFirst, seed)
                .expect("seq run")
        })
        .collect();
    let parallel = sweep_seeds_scalar(4, |seed| {
        exp.normalized_runtime(Policy::BasicDegradedFirst, seed)
            .ok()
    })
    .expect("a seed runs");
    assert_eq!(parallel.samples, sequential);
}

/// FNV-1a over the full `Debug` rendering of a run (which prints every
/// task record and f64 in round-trippable form), so any behavioral
/// drift — scheduling order, rates, timestamps — changes the digest.
fn run_digest(exp: &dfs::experiment::Experiment, policy: Policy, seed: u64) -> u64 {
    let result = exp.run(policy, seed).expect("run");
    fnv1a(&format!("{result:?}|{:016x}", result.makespan.as_micros()))
}

/// 64-bit FNV-1a over the bytes of `rendered`.
fn fnv1a(rendered: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in rendered.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn fixed_seed_goldens_are_stable() {
    // Golden digests of fixed-seed runs, captured from the current
    // implementation after verifying it bit-identical to the original
    // naive kernels (fairshare, calendar, GF(256) all rewritten since).
    // A mismatch means simulation behavior changed — any intentional
    // change must re-derive these constants and say so in review.
    let small = presets::small_default();
    let paper = presets::simulation_default();
    let cases: [(&dfs::experiment::Experiment, Policy, u64, u64); 4] = [
        (&small, Policy::BasicDegradedFirst, 0, GOLDEN_SMALL_BDF_0),
        (&small, Policy::LocalityFirst, 7, GOLDEN_SMALL_LF_7),
        (&paper, Policy::LocalityFirst, 1, GOLDEN_PAPER_LF_1),
        (&paper, Policy::EnhancedDegradedFirst, 1, GOLDEN_PAPER_EDF_1),
    ];
    let digests: Vec<u64> = cases
        .iter()
        .map(|&(exp, policy, seed, _)| run_digest(exp, policy, seed))
        .collect();
    for (&(_, policy, seed, want), &got) in cases.iter().zip(&digests) {
        assert_eq!(
            got,
            want,
            "golden digest drifted for {} seed {seed}: got {got:#018x}",
            policy.name()
        );
    }
}

const GOLDEN_SMALL_BDF_0: u64 = 0x83a5_8443_7634_7632;
const GOLDEN_SMALL_LF_7: u64 = 0xbecb_4a36_5a46_6844;
const GOLDEN_PAPER_LF_1: u64 = 0x46a3_44ff_0b31_248a;
const GOLDEN_PAPER_EDF_1: u64 = 0x5b65_6de0_21bc_1371;

/// A failure timeline whose events all fire at t=0 is just another way
/// of writing a static failure scenario: expressing the goldens' seeds
/// that way must reproduce the same digests bit for bit.
#[test]
fn timeline_at_zero_reproduces_scenario_goldens() {
    use dfs::cluster::FailureTimeline;
    use dfs::experiment::FailureSpec;
    use dfs::simkit::time::SimTime;

    let cases: [(Policy, u64, u64); 2] = [
        (Policy::BasicDegradedFirst, 0, GOLDEN_SMALL_BDF_0),
        (Policy::LocalityFirst, 7, GOLDEN_SMALL_LF_7),
    ];
    for (policy, seed, want) in cases {
        let mut exp = presets::small_default();
        let scenario = exp.failure_for_seed(seed);
        let mut timeline = FailureTimeline::new();
        for node in scenario.failed_nodes(&exp.topo) {
            timeline = timeline.fail_node_at(node, SimTime::ZERO);
        }
        exp.failure = FailureSpec::None;
        exp.timeline = timeline;
        let got = run_digest(&exp, policy, seed);
        assert_eq!(
            got,
            want,
            "t=0 timeline diverged from the scenario golden for {} seed {seed}",
            policy.name()
        );
    }
}

#[test]
fn textlab_grid_is_deterministic() {
    use dfs::cluster::{NodeId, Topology};
    use dfs::erasure::CodeParams;
    use dfs::textlab::{run_job, CorpusBuilder, MiniGrid, WordCount};

    let text = CorpusBuilder::new(31).lines(1500).build();
    let make = || {
        let topo = Topology::homogeneous(2, 3, 2, 1);
        let mut g = MiniGrid::new(topo, CodeParams::new(4, 2).unwrap(), 2048, &text, 9).unwrap();
        g.fail_node(NodeId(1));
        g
    };
    let a = run_job(&mut make(), &WordCount).unwrap();
    let b = run_job(&mut make(), &WordCount).unwrap();
    assert_eq!(a, b);
}

/// Golden digests of the three text jobs' full `JobOutput` (every key,
/// count and read statistic) on the CLI's testbed setup: a 20k-line
/// corpus coded (12,10) in 16 KiB blocks with one node failed. A
/// mismatch means record splitting, the reduce or the degraded-read
/// path changed what a job reports.
#[test]
fn text_job_output_goldens_are_stable() {
    use dfs::cluster::{NodeId, Topology};
    use dfs::erasure::CodeParams;
    use dfs::textlab::{run_job, CorpusBuilder, Grep, LineCount, MiniGrid, TextJob, WordCount};

    let text = CorpusBuilder::new(1).lines(20_000).build();
    let topo = Topology::homogeneous(3, 4, 4, 1);
    let mut grid =
        MiniGrid::new(topo, CodeParams::new(12, 10).unwrap(), 16 * 1024, &text, 7).unwrap();
    grid.fail_node(NodeId(2));
    let grep = Grep::new("whale");
    let cases: [(&dyn TextJob, u64); 3] = [
        (&WordCount, GOLDEN_WORDCOUNT),
        (&LineCount, GOLDEN_LINECOUNT),
        (&grep, GOLDEN_GREP),
    ];
    for (job, want) in cases {
        let output = run_job(&mut grid, job).expect("job runs");
        assert!(
            output.stats.degraded_reads > 0,
            "{} read no lost block",
            job.name()
        );
        let got = fnv1a(&format!("{output:?}"));
        assert_eq!(got, want, "{} output drifted: got {got:#018x}", job.name());
    }
}

const GOLDEN_WORDCOUNT: u64 = 0x39c4_f067_2f61_8cd3;
const GOLDEN_LINECOUNT: u64 = 0x83fb_a770_f7c3_3968;
const GOLDEN_GREP: u64 = 0x7907_2aa9_ca8a_c4df;
