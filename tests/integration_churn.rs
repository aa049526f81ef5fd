//! Mid-run failure injection through the full stack: the churn preset
//! (healthy start, one node failing at 25 s and recovering at 60 s)
//! completes under every policy with lost work re-queued, its traces
//! validate against schema v1 including the node lifecycle events, and
//! the obs aggregator reports the churn counters. The engine's own count
//! of degraded queueings matches the trace on every path that queues
//! degraded work.

use std::collections::BTreeSet;

use dfs::cluster::FailureTimeline;
use dfs::ecstore::FetchPolicy;
use dfs::experiment::{Experiment, FailureSpec, Policy};
use dfs::mapreduce::MapLocality;
use dfs::obs::aggregate::Aggregator;
use dfs::obs::event::SimEvent;
use dfs::obs::jsonl::JsonlSink;
use dfs::obs::schema::{validate_jsonl, TraceSchema, TRACE_SCHEMA_V1};
use dfs::obs::sink::VecSink;
use dfs::presets;
use dfs::simkit::time::SimTime;

const POLICIES: [Policy; 3] = [
    Policy::LocalityFirst,
    Policy::BasicDegradedFirst,
    Policy::EnhancedDegradedFirst,
];

#[test]
fn churn_run_completes_with_requeues_under_every_policy() {
    let exp = presets::churn_default();
    for policy in POLICIES {
        let label = policy.name();
        let mut sink = VecSink::new();
        let result = exp
            .run_traced(policy, 1, &mut sink)
            .unwrap_or_else(|e| panic!("{label}: churn run failed: {e}"));

        // Every block is processed exactly once despite the mid-run kill.
        assert_eq!(result.tasks.len(), exp.num_blocks, "{label}: task records");
        let blocks: BTreeSet<_> = result
            .tasks
            .iter()
            .filter_map(|t| match t.detail {
                dfs::mapreduce::metrics::TaskDetail::Map { block, .. } => Some(block),
                _ => None,
            })
            .collect();
        assert_eq!(blocks.len(), exp.num_blocks, "{label}: unique blocks");
        assert!(
            result.makespan.as_secs_f64() > 60.0,
            "{label}: run must outlive the recovery point"
        );

        // The failure killed running attempts and re-queued their work.
        let count = |pred: &dyn Fn(&SimEvent) -> bool| -> usize {
            sink.events.iter().filter(|(_, e)| pred(e)).count()
        };
        assert_eq!(
            count(&|e| matches!(e, SimEvent::NodeFailed { .. })),
            1,
            "{label}: one failure"
        );
        assert_eq!(
            count(&|e| matches!(e, SimEvent::NodeRecovered { .. })),
            1,
            "{label}: one recovery"
        );
        let cancelled = count(&|e| matches!(e, SimEvent::MapCancelled { .. }));
        assert!(cancelled > 0, "{label}: no attempts were killed");
        let queued = count(&|e| matches!(e, SimEvent::TaskQueued { .. }));
        assert!(
            queued > exp.num_blocks,
            "{label}: lost work was not re-queued ({queued} queued)"
        );
        let launched = count(&|e| matches!(e, SimEvent::MapLaunched { .. }));
        let done = count(&|e| matches!(e, SimEvent::MapDone { .. }));
        assert_eq!(
            launched,
            done + cancelled,
            "{label}: every launch must terminate exactly once"
        );
    }
}

#[test]
fn churn_trace_validates_against_schema_v1() {
    let exp = presets::churn_default();
    for policy in POLICIES {
        let label = policy.name();
        let mut sink = JsonlSink::new(Vec::new());
        exp.run_traced(policy, 1, &mut sink)
            .unwrap_or_else(|e| panic!("{label}: churn run failed: {e}"));
        let text = String::from_utf8(sink.finish().expect("in-memory sink")).expect("utf8");
        let schema = TraceSchema::parse(TRACE_SCHEMA_V1).expect("schema parses");
        let validated = validate_jsonl(&schema, &text)
            .unwrap_or_else(|e| panic!("{label}: churn trace rejected: {e}"));
        assert_eq!(validated, text.lines().count(), "{label}: all lines valid");
        assert!(
            text.lines().any(|l| l.contains("\"node_failed\"")),
            "{label}: trace must record the failure"
        );
        assert!(
            text.lines().any(|l| l.contains("\"node_recovered\"")),
            "{label}: trace must record the recovery"
        );
    }
}

#[test]
fn aggregator_reports_churn_counters() {
    let exp = presets::churn_default();
    let mut agg = Aggregator::new(exp.aggregator_config(1));
    exp.run_traced(Policy::EnhancedDegradedFirst, 1, &mut agg)
        .expect("churn run");
    let r = agg.report();
    assert_eq!(r.nodes_failed, 1);
    assert_eq!(r.nodes_recovered, 1);
    assert!(r.maps_relaunched > 0, "re-queued maps must be counted");
    assert!(
        r.maps_degraded > 0,
        "work lost with its input block should rerun degraded"
    );
}

#[test]
fn churn_runs_are_deterministic() {
    let exp = presets::churn_default();
    let a = exp.run(Policy::LocalityFirst, 3).expect("a");
    let b = exp.run(Policy::LocalityFirst, 3).expect("b");
    assert_eq!(a, b, "churn replay diverged");
}

/// `RunResult::tasks_queued_degraded` is counted by the engine whether
/// or not the run is traced. Checks, under every policy, that it equals
/// the `TaskQueued { degraded: true }` events of a traced run of the
/// same seed, and returns how many policies queued more degraded work
/// than ran degraded (churn re-queueing lost or unassigned maps).
fn degraded_queueings_match_the_trace(name: &str, exp: &Experiment) -> usize {
    let mut requeued = 0;
    for policy in POLICIES {
        let label = format!("{name} {}", policy.name());
        let untraced = exp
            .run(policy, 1)
            .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
        let mut sink = VecSink::new();
        let traced = exp
            .run_traced(policy, 1, &mut sink)
            .unwrap_or_else(|e| panic!("{label}: traced run failed: {e}"));
        assert_eq!(untraced, traced, "{label}: tracing changed the result");
        let events = sink
            .events
            .iter()
            .filter(|(_, e)| matches!(e, SimEvent::TaskQueued { degraded: true, .. }))
            .count();
        assert_eq!(untraced.tasks_queued_degraded, events, "{label}");
        if untraced.tasks_queued_degraded > untraced.map_count(MapLocality::Degraded) {
            requeued += 1;
        }
    }
    requeued
}

#[test]
fn degraded_queueings_match_the_trace_under_static_failures() {
    let mut rack = presets::simulation_default();
    rack.failure = FailureSpec::RandomRack;
    degraded_queueings_match_the_trace("simulation_default", &presets::simulation_default());
    degraded_queueings_match_the_trace("rack failure", &rack);
}

#[test]
fn degraded_queueings_match_the_trace_for_multiple_jobs() {
    degraded_queueings_match_the_trace("multi_job_default", &presets::multi_job_default(1));
}

#[test]
fn degraded_queueings_match_the_trace_under_churn() {
    let mut speculation = presets::straggler_default(FetchPolicy::Exact);
    speculation.config.speculative = true;
    speculation.timeline =
        FailureTimeline::new().fail_node_at(speculation.topo.node(1), SimTime::from_secs(575));
    let requeued = degraded_queueings_match_the_trace("churn_default", &presets::churn_default())
        + degraded_queueings_match_the_trace("speculation churn", &speculation);
    assert!(
        requeued > 0,
        "no run queued more degraded work than ran degraded"
    );
}
