//! Speculation under mid-run churn: a node failure that strikes while
//! map tasks run a primary and a speculative backup attempt. Pins the
//! two lifecycle paths no other test reaches — killing a backup, and a
//! backup winning after its primary was killed — and checks from the
//! trace that every launched attempt ends exactly once and every task
//! completes exactly once. (Debug builds also assert at the end of
//! every run that each live node got all its slots back.)

use std::collections::BTreeMap;

use dfs::cluster::FailureTimeline;
use dfs::ecstore::FetchPolicy;
use dfs::experiment::{Experiment, Policy};
use dfs::obs::event::SimEvent;
use dfs::obs::sink::VecSink;
use dfs::presets;
use dfs::simkit::time::SimTime;

/// The straggler preset with speculation on and one extra node failing
/// mid-run, late enough that backups are in flight when it strikes.
fn scenario(fetch: FetchPolicy, node: usize, fail_secs: u64) -> Experiment {
    let mut exp = presets::straggler_default(fetch);
    exp.config.speculative = true;
    exp.timeline =
        FailureTimeline::new().fail_node_at(exp.topo.node(node), SimTime::from_secs(fail_secs));
    exp
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// What the trace says about the map attempts of one run.
#[derive(Debug, Default)]
struct AttemptLedger {
    launched: usize,
    done: usize,
    cancelled: usize,
    /// Backups cancelled while their task was still running: killed by
    /// the node failure rather than beaten by the primary.
    backup_kills: usize,
    /// Backups that won after their primary had been killed.
    orphan_backup_wins: usize,
}

fn ledger(events: &[(SimTime, SimEvent)], num_tasks: usize) -> AttemptLedger {
    let mut l = AttemptLedger::default();
    // Per (job, task): the live primary and backup, and completions.
    let mut live: BTreeMap<(u32, u32), [bool; 2]> = BTreeMap::new();
    let mut completions: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    for (at, ev) in events {
        match *ev {
            SimEvent::MapLaunched {
                job,
                task,
                speculative,
                ..
            } => {
                l.launched += 1;
                let slot = &mut live.entry((job, task)).or_default()[usize::from(speculative)];
                assert!(
                    !*slot,
                    "{at}: second live attempt in one slot of {job}/{task}"
                );
                *slot = true;
            }
            SimEvent::MapDone {
                job,
                task,
                speculative,
                ..
            } => {
                l.done += 1;
                let slots = live.get_mut(&(job, task)).expect("done map was launched");
                assert!(slots[usize::from(speculative)], "{at}: winner not live");
                slots[usize::from(speculative)] = false;
                if speculative && !slots[0] {
                    l.orphan_backup_wins += 1;
                }
                *completions.entry((job, task)).or_default() += 1;
            }
            SimEvent::MapCancelled {
                job,
                task,
                speculative,
                ..
            } => {
                l.cancelled += 1;
                let slots = live
                    .get_mut(&(job, task))
                    .expect("cancelled map was launched");
                assert!(
                    slots[usize::from(speculative)],
                    "{at}: cancelled attempt not live"
                );
                slots[usize::from(speculative)] = false;
                if speculative && !completions.contains_key(&(job, task)) {
                    l.backup_kills += 1;
                }
            }
            _ => {}
        }
    }
    assert!(
        live.values().all(|s| *s == [false, false]),
        "an attempt was still live when the run ended"
    );
    assert_eq!(completions.len(), num_tasks, "every task completes");
    assert!(
        completions.values().all(|&n| n == 1),
        "a task completed more than once"
    );
    l
}

#[test]
fn backups_survive_and_die_with_their_primaries_under_churn() {
    // (fetch policy, failing node, failure time, makespan µs, result
    // digest, trace digest)
    let cases: [(FetchPolicy, usize, u64, u64, u64, u64); 2] = [
        (
            FetchPolicy::Exact,
            1,
            575,
            1_003_093_552,
            0xcf7b_41b2_8373_4334,
            0xfafd_6cbc_db14_e7ba,
        ),
        (
            FetchPolicy::Redundant { extra: 2 },
            5,
            501,
            839_090_026,
            0xb8f9_45dd_98fd_52e6,
            0x3fe0_117a_f66b_b08a,
        ),
    ];
    for (fetch, node, at, want_makespan, want_result, want_trace) in cases {
        let label = format!("{fetch:?} node {node} @ {at} s");
        let exp = scenario(fetch, node, at);
        let mut sink = VecSink::new();
        let result = exp
            .run_traced(Policy::EnhancedDegradedFirst, 1, &mut sink)
            .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
        let l = ledger(&sink.events, exp.num_blocks);
        assert!(l.backup_kills > 0, "{label}: no backup was killed");
        assert!(
            l.orphan_backup_wins > 0,
            "{label}: no backup won after its primary was killed"
        );
        assert_eq!(
            l.launched,
            l.done + l.cancelled,
            "{label}: launched != done + cancelled"
        );
        assert_eq!(l.done, exp.num_blocks, "{label}: completions");

        let makespan = result.makespan.as_micros();
        let result_digest = fnv1a(format!("{result:?}").as_bytes());
        let trace_digest = fnv1a(format!("{:?}", sink.events).as_bytes());
        assert_eq!(makespan, want_makespan, "{label}: makespan drifted");
        assert_eq!(result_digest, want_result, "{label}: result digest drifted");
        assert_eq!(trace_digest, want_trace, "{label}: trace digest drifted");
    }
}
