//! Redundant degraded reads end to end: cancel-on-quorum semantics,
//! lifecycle balance under cancellation, determinism, the straggler
//! tail cut that motivates the policy, and the build-time fetch-count
//! ceiling.

use std::collections::BTreeMap;

use dfs::ecstore::FetchPolicy;
use dfs::experiment::{Experiment, Policy};
use dfs::obs::event::{DegradedPhase, Locality, SimEvent};
use dfs::obs::sink::VecSink;
use dfs::presets;
use dfs::simkit::time::SimTime;
use proptest::prelude::*;

fn trace(exp: &Experiment, policy: Policy, seed: u64) -> Vec<(SimTime, SimEvent)> {
    let mut sink = VecSink::new();
    exp.run_traced(policy, seed, &mut sink).expect("traced run");
    sink.events
}

/// The cancel-on-quorum contract, checked against a full event stream:
/// every cancelled fetch is a real in-flight flow that is torn down
/// (`FlowFinished { cancelled: true }`), and no attempt cancels more
/// flows than the redundant extras it issued.
fn assert_quorum_cancel_semantics(events: &[(SimTime, SimEvent)]) {
    let mut started = BTreeMap::new();
    let mut finished = BTreeMap::new();
    let mut extras_issued = 0u64;
    let mut cancel_wins = Vec::new();
    for (_, ev) in events {
        match ev {
            SimEvent::FlowStarted { flow, .. } => {
                started.insert(*flow, ());
            }
            SimEvent::FlowFinished { flow, cancelled } => {
                finished.insert(*flow, *cancelled);
            }
            SimEvent::RedundantFetchIssued { extra, .. } => extras_issued += u64::from(*extra),
            SimEvent::FetchCancelled { flow, .. } => cancel_wins.push(*flow),
            _ => {}
        }
    }
    for flow in &cancel_wins {
        assert!(
            started.contains_key(flow),
            "cancelled flow {flow} never started"
        );
        assert_eq!(
            finished.get(flow),
            Some(&true),
            "cancelled flow {flow} must finish as cancelled"
        );
    }
    assert!(
        (cancel_wins.len() as u64) <= extras_issued,
        "{} quorum cancels but only {extras_issued} redundant extras issued — \
         a needed fetch was cancelled",
        cancel_wins.len()
    );
    // Flow lifecycles stay balanced even with mid-transfer teardown.
    assert_eq!(
        started.len(),
        finished.len(),
        "every started flow must finish"
    );
}

#[test]
fn redundant_fetch_cancels_at_quorum_on_stragglers() {
    let exp = presets::straggler_default(FetchPolicy::Redundant { extra: 2 });
    let events = trace(&exp, Policy::EnhancedDegradedFirst, 1);
    let issued = events
        .iter()
        .filter(|(_, e)| matches!(e, SimEvent::RedundantFetchIssued { .. }))
        .count();
    let cancelled = events
        .iter()
        .filter(|(_, e)| matches!(e, SimEvent::FetchCancelled { .. }))
        .count();
    assert!(issued > 0, "straggler preset must issue redundant fetches");
    assert!(cancelled > 0, "some extras must lose the race and cancel");
    assert_quorum_cancel_semantics(&events);
}

#[test]
fn surplus_fetches_finishing_with_the_quorum_are_silent() {
    // When a redundant extra finishes in the same network drain as the
    // flow that completes its attempt's quorum, it has delivered: it is
    // neither a cancel win (no `FetchCancelled`) nor a second quorum
    // step. A second step would take `pending_flows` below zero, which
    // the engine refuses with a panic, so the run completing is part of
    // the check. The preset is map-only without speculation or churn,
    // so flows start in the order their attempts launch: none for a
    // node-local attempt, one for a rack-local or remote one, and a
    // degraded one's same-rack plus cross-rack sources.
    let exp = presets::straggler_default(FetchPolicy::Redundant { extra: 2 });
    let events = trace(&exp, Policy::EnhancedDegradedFirst, 1);
    let mut launched = Vec::new(); // (job, task, flows wanted)
    let mut extra = BTreeMap::new(); // (job, task) -> extras issued
    let mut quorum_at = BTreeMap::new(); // (job, task) -> decode begins
    let mut started = Vec::new(); // flow ids, in start order
    let mut finished = BTreeMap::new(); // flow -> (at, cancelled)
    let mut cancel_wins = BTreeMap::new(); // flow -> ()
    for &(at, ref ev) in &events {
        match *ev {
            SimEvent::MapLaunched {
                job,
                task,
                locality,
                speculative,
                ..
            } => {
                assert!(!speculative, "the preset does not speculate");
                let flows = match locality {
                    Locality::NodeLocal | Locality::Degraded => 0,
                    Locality::RackLocal | Locality::Remote => 1,
                };
                launched.push(((job, task), flows));
            }
            SimEvent::DegradedPlan {
                job,
                task,
                same_rack,
                cross_rack,
                ..
            } => {
                let last = launched.last_mut().expect("a plan follows its launch");
                assert_eq!(last.0, (job, task));
                last.1 = same_rack + cross_rack;
            }
            SimEvent::RedundantFetchIssued {
                job,
                task,
                extra: n,
                ..
            } => {
                extra.insert((job, task), n);
            }
            SimEvent::PhaseBegin {
                job,
                task,
                phase: DegradedPhase::Decode,
                ..
            } => assert!(
                quorum_at.insert((job, task), at).is_none(),
                "attempt {job}/{task} reached its quorum twice"
            ),
            SimEvent::FlowStarted { flow, .. } => started.push(flow),
            SimEvent::FlowFinished { flow, cancelled } => {
                finished.insert(flow, (at, cancelled));
            }
            SimEvent::FetchCancelled { flow, .. } => {
                cancel_wins.insert(flow, ());
            }
            _ => {}
        }
    }
    let mut flows = started.into_iter();
    let mut surplus_in_quorum_drain = 0;
    for (attempt, wanted) in launched {
        let mine: Vec<u64> = flows.by_ref().take(wanted as usize).collect();
        assert_eq!(mine.len(), wanted as usize, "flows of {attempt:?}");
        let Some(&extra) = extra.get(&attempt) else {
            continue;
        };
        let quorum = quorum_at[&attempt];
        let need = mine.len() - extra as usize;
        let delivered: Vec<u64> = mine
            .iter()
            .copied()
            .filter(|f| matches!(finished[f], (at, false) if at <= quorum))
            .collect();
        assert!(delivered.len() >= need, "{attempt:?} decoded short");
        surplus_in_quorum_drain += delivered.len() - need;
        for f in &mine {
            // Exactly the flows still in flight at the quorum are cancel
            // wins; a surplus that delivered is silent.
            let in_flight = !delivered.contains(f);
            assert_eq!(
                cancel_wins.contains_key(f),
                in_flight,
                "flow {f} of {attempt:?}"
            );
            if in_flight {
                assert_eq!(finished[f], (quorum, true), "flow {f} of {attempt:?}");
            }
        }
    }
    assert!(flows.next().is_none(), "every flow belongs to an attempt");
    assert!(
        surplus_in_quorum_drain > 0,
        "no redundant fetch finished in its quorum's drain; the case is not exercised"
    );
}

#[test]
fn exact_fetch_never_emits_redundant_events() {
    let exp = presets::straggler_default(FetchPolicy::Exact);
    let events = trace(&exp, Policy::EnhancedDegradedFirst, 1);
    assert!(!events.iter().any(|(_, e)| matches!(
        e,
        SimEvent::RedundantFetchIssued { .. } | SimEvent::FetchCancelled { .. }
    )));
}

#[test]
fn map_lifecycles_balance_under_redundant_fetch() {
    let exp = presets::straggler_default(FetchPolicy::Redundant { extra: 2 });
    let events = trace(&exp, Policy::EnhancedDegradedFirst, 2);
    let count = |pred: fn(&SimEvent) -> bool| events.iter().filter(|(_, e)| pred(e)).count();
    let launched = count(|e| matches!(e, SimEvent::MapLaunched { .. }));
    let done = count(|e| matches!(e, SimEvent::MapDone { .. }));
    let killed = count(|e| matches!(e, SimEvent::MapCancelled { .. }));
    assert_eq!(launched, done + killed, "map attempts must all resolve");
}

#[test]
fn traced_equals_untraced_under_redundant_fetch() {
    let exp = presets::straggler_default(FetchPolicy::Redundant { extra: 2 });
    let mut sink = VecSink::new();
    let traced = exp
        .run_traced(Policy::EnhancedDegradedFirst, 3, &mut sink)
        .expect("traced");
    let untraced = exp.run(Policy::EnhancedDegradedFirst, 3).expect("untraced");
    assert_eq!(traced, untraced, "tracing must not perturb the simulation");
}

#[test]
fn redundant_fetch_reruns_bit_identically() {
    let exp = presets::straggler_default(FetchPolicy::Redundant { extra: 2 });
    for policy in [Policy::LocalityFirst, Policy::EnhancedDegradedFirst] {
        let a = exp.run(policy, 11).expect("a");
        let b = exp.run(policy, 11).expect("b");
        assert_eq!(a, b, "{} replay diverged", policy.name());
    }
}

/// The headline claim: on a heterogeneous cluster, racing two extra
/// sources and cancelling at the decode quorum cuts the degraded-read
/// tail. Pooled over seeds so one lucky straggler draw can't pass or
/// fail the test.
#[test]
fn redundant_fetch_cuts_the_straggler_tail() {
    let pooled = |fetch: FetchPolicy| {
        let exp = presets::straggler_default(fetch);
        let mut reads = Vec::new();
        for seed in 1..=6 {
            let run = exp.run(Policy::EnhancedDegradedFirst, seed).expect("run");
            reads.extend(run.degraded_read_secs());
        }
        reads.sort_unstable_by(f64::total_cmp);
        reads
    };
    let exact = pooled(FetchPolicy::Exact);
    let redundant = pooled(FetchPolicy::Redundant { extra: 2 });
    assert_eq!(exact.len(), redundant.len(), "same degraded work");
    let p99 = |reads: &[f64]| reads[(reads.len() * 99).div_ceil(100).saturating_sub(1)];
    assert!(
        p99(&redundant) < p99(&exact),
        "redundant p99 {:.1} s should beat exact p99 {:.1} s on stragglers",
        p99(&redundant),
        p99(&exact)
    );
}

/// Requesting more fetch sources than any degraded stripe can have
/// survivors is a configuration error caught at build, not a panic (or
/// a silent clamp) at the first degraded read.
#[test]
fn fetch_count_beyond_survivor_ceiling_fails_at_build() {
    let mut exp = presets::small_default();
    // (8,6): a degraded stripe keeps at most n - 1 = 7 live blocks.
    exp.config.degraded_fetch_blocks = Some(8);
    let err = exp
        .run(Policy::EnhancedDegradedFirst, 1)
        .expect_err("build must reject an unsatisfiable fetch count");
    let msg = err.to_string();
    assert!(
        msg.contains("survivor") && msg.contains("ceiling"),
        "unexpected error: {msg}"
    );
    // One below the ceiling is legal and runs.
    exp.config.degraded_fetch_blocks = Some(7);
    exp.run(Policy::EnhancedDegradedFirst, 1)
        .expect("n - 1 fetches is satisfiable");
}

/// Satellite to the quorum-cancel work: a node dying mid-run while its
/// blocks are being fetched redundantly must not double-count the
/// affected attempts (dead-source flows are pruned when the quorum is
/// still satisfiable; the attempt is killed and requeued only when it
/// is not). Double-counting in either direction would unbalance the
/// attempt ledger or complete a task twice.
#[test]
fn mid_run_node_death_during_redundant_fetch_stays_balanced() {
    use dfs::cluster::FailureTimeline;
    use dfs::experiment::FailureSpec;

    let mut exp = presets::straggler_default(FetchPolicy::Redundant { extra: 2 });
    // Keep the t=0 failure (so degraded redundant fetches are plentiful)
    // and kill a second node mid-run, while fetches are in flight.
    let second = exp.topo.node(9);
    exp.failure = FailureSpec::RandomSingleNode;
    exp.timeline = FailureTimeline::new().fail_node_at(second, SimTime::from_secs(60));

    let mut sink = VecSink::new();
    let result = exp
        .run_traced(Policy::EnhancedDegradedFirst, 4, &mut sink)
        .expect("churned redundant run");
    assert_eq!(result.tasks.len(), 240, "every task completes exactly once");
    assert!(result.makespan.as_secs_f64() > 60.0, "failure was mid-run");

    let events = sink.events;
    assert_quorum_cancel_semantics(&events);
    let count = |pred: fn(&SimEvent) -> bool| events.iter().filter(|(_, e)| pred(e)).count();
    let launched = count(|e| matches!(e, SimEvent::MapLaunched { .. }));
    let done = count(|e| matches!(e, SimEvent::MapDone { .. }));
    let killed = count(|e| matches!(e, SimEvent::MapCancelled { .. }));
    assert_eq!(launched, done + killed, "attempt ledger must balance");

    // At least one redundant attempt straddles the failure instant and
    // still completes without being cancelled — the prune path, not a
    // kill-and-requeue.
    let fail_at = SimTime::from_secs(60);
    let mut straddlers = 0;
    for (at, ev) in &events {
        if let SimEvent::RedundantFetchIssued {
            job,
            task,
            speculative,
            ..
        } = ev
        {
            if *at >= fail_at {
                continue;
            }
            let finished_after = events.iter().any(|(t, e)| {
                matches!(e, SimEvent::MapDone { job: j, task: k, speculative: s, .. }
                         if j == job && k == task && s == speculative && *t > fail_at)
            });
            let never_killed = !events.iter().any(|(_, e)| {
                matches!(e, SimEvent::MapCancelled { job: j, task: k, speculative: s, .. }
                         if j == job && k == task && s == speculative)
            });
            if finished_after && never_killed {
                straddlers += 1;
            }
        }
    }
    assert!(
        straddlers > 0,
        "no redundant attempt survived the mid-run failure — prune path untested"
    );

    let rerun = exp.run(Policy::EnhancedDegradedFirst, 4).expect("rerun");
    assert_eq!(result, rerun, "churn + redundancy must stay deterministic");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cancel-on-quorum holds for any redundancy level and seed, and
    /// the run stays a pure function of its configuration.
    #[test]
    fn quorum_cancel_semantics_hold_for_any_redundancy(
        extra in 1u32..=3,
        seed in 1u64..=50,
    ) {
        let exp = presets::straggler_default(FetchPolicy::Redundant { extra: extra as usize });
        let events = trace(&exp, Policy::EnhancedDegradedFirst, seed);
        assert_quorum_cancel_semantics(&events);
        let a = exp.run(Policy::EnhancedDegradedFirst, seed).expect("a");
        let b = exp.run(Policy::EnhancedDegradedFirst, seed).expect("b");
        prop_assert_eq!(a, b);
    }
}
