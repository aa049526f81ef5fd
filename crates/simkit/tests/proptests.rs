//! Property-based tests for the simulation core: calendar ordering,
//! time arithmetic, and statistics invariants.

use proptest::prelude::*;
use simkit::calendar::{Calendar, EventId};
use simkit::stats::{percentile_sorted, Boxplot, OnlineStats, Summary};
use simkit::time::{SimDuration, SimTime};

/// One step of a calendar run. Times come from a narrow range so that
/// ties and out-of-order in-order schedules are common.
#[derive(Clone, Debug)]
enum CalOp {
    Schedule(u64),
    ScheduleInOrder(u64),
    /// Cancels handle `pick % issued`, live or stale.
    Cancel(usize),
    Pop,
}

fn cal_op() -> impl Strategy<Value = CalOp> {
    prop_oneof![
        3 => (0u64..20).prop_map(CalOp::Schedule),
        4 => (0u64..20).prop_map(CalOp::ScheduleInOrder),
        2 => any::<usize>().prop_map(CalOp::Cancel),
        3 => Just(CalOp::Pop),
    ]
}

proptest! {
    #[test]
    fn calendar_matches_a_sorted_model_through_both_queues(
        ops in proptest::collection::vec(cal_op(), 1..120),
    ) {
        // The model keeps the pending events as `(time, seq, payload)`
        // sorted, where `seq` is the schedule order; both schedule paths
        // must pop in that order whatever the interleaving.
        let mut cal = Calendar::new();
        let mut model: Vec<(u64, usize, usize)> = Vec::new();
        let mut handles: Vec<EventId> = Vec::new();
        for op in ops {
            match op {
                CalOp::Schedule(t) | CalOp::ScheduleInOrder(t) => {
                    let payload = handles.len();
                    let id = if matches!(op, CalOp::Schedule(_)) {
                        cal.schedule(SimTime::from_micros(t), payload)
                    } else {
                        cal.schedule_in_order(SimTime::from_micros(t), payload)
                    };
                    handles.push(id);
                    let at = model.partition_point(|&(mt, mseq, _)| (mt, mseq) < (t, payload));
                    model.insert(at, (t, payload, payload));
                }
                CalOp::Cancel(pick) => {
                    if handles.is_empty() {
                        continue;
                    }
                    let payload = pick % handles.len();
                    let pending = model.iter().position(|&(_, _, p)| p == payload);
                    prop_assert_eq!(cal.cancel(handles[payload]), pending.is_some());
                    if let Some(at) = pending {
                        model.remove(at);
                    }
                }
                CalOp::Pop => {
                    let got = cal.pop().map(|(t, id, p)| (t.as_micros(), id, p));
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    prop_assert_eq!(got, want.map(|(t, _, p)| (t, handles[p], p)));
                }
            }
            prop_assert_eq!(cal.len(), model.len());
            prop_assert_eq!(cal.is_empty(), model.is_empty());
        }
        let rest: Vec<usize> = std::iter::from_fn(|| cal.pop().map(|(_, _, p)| p)).collect();
        let want: Vec<usize> = model.iter().map(|&(_, _, p)| p).collect();
        prop_assert_eq!(rest, want);
    }

    #[test]
    fn calendar_pops_sorted_and_complete(times in proptest::collection::vec(0u64..1_000_000, 0..200)) {
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime::from_micros(t), i);
        }
        prop_assert_eq!(cal.len(), times.len());
        let mut popped = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some((t, _, payload)) = cal.pop() {
            prop_assert!(t >= last, "time went backwards");
            last = t;
            popped.push(payload);
        }
        prop_assert_eq!(popped.len(), times.len());
        popped.sort_unstable();
        prop_assert_eq!(popped, (0..times.len()).collect::<Vec<_>>());
    }

    #[test]
    fn calendar_ties_resolve_fifo(count in 1usize..100) {
        let mut cal = Calendar::new();
        for i in 0..count {
            cal.schedule(SimTime::from_secs(42), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| cal.pop().map(|(_, _, p)| p)).collect();
        prop_assert_eq!(order, (0..count).collect::<Vec<_>>());
    }

    #[test]
    fn calendar_cancellation_removes_exactly_the_cancelled(
        times in proptest::collection::vec(0u64..1000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut cal = Calendar::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, cal.schedule(SimTime::from_micros(t), i)))
            .collect();
        let mut kept = Vec::new();
        for (i, id) in &ids {
            if cancel_mask.get(*i).copied().unwrap_or(false) {
                prop_assert!(cal.cancel(*id));
            } else {
                kept.push(*i);
            }
        }
        let mut popped: Vec<usize> =
            std::iter::from_fn(|| cal.pop().map(|(_, _, p)| p)).collect();
        popped.sort_unstable();
        kept.sort_unstable();
        prop_assert_eq!(popped, kept);
    }

    #[test]
    fn time_arithmetic_round_trips(a in 0u64..u32::MAX as u64, b in 0u64..u32::MAX as u64) {
        let t = SimTime::from_micros(a);
        let d = SimDuration::from_micros(b);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d).duration_since(t), d);
        prop_assert_eq!(SimDuration::from_micros(a).as_micros(), a);
    }

    #[test]
    fn online_stats_match_batch(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let online: OnlineStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((online.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert_eq!(online.count(), xs.len() as u64);
        prop_assert_eq!(online.min(), xs.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(online.max(), xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }

    #[test]
    fn merge_equals_sequential(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..100),
        split in 0usize..100,
    ) {
        let split = split.min(xs.len());
        let seq: OnlineStats = xs.iter().copied().collect();
        let mut a: OnlineStats = xs[..split].iter().copied().collect();
        let b: OnlineStats = xs[split..].iter().copied().collect();
        a.merge(&b);
        prop_assert_eq!(a.count(), seq.count());
        prop_assert!((a.mean() - seq.mean()).abs() < 1e-9);
        prop_assert!((a.variance() - seq.variance()).abs() < 1e-6);
    }

    #[test]
    fn summary_quartiles_are_ordered(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::from_samples(&xs).unwrap();
        prop_assert!(s.min <= s.q1);
        prop_assert!(s.q1 <= s.median);
        prop_assert!(s.median <= s.q3);
        prop_assert!(s.q3 <= s.max);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
    }

    #[test]
    fn boxplot_partitions_samples(xs in proptest::collection::vec(-1e3f64..1e3, 4..100)) {
        let b = Boxplot::from_samples(&xs).unwrap();
        // Outliers plus in-fence samples cover everything.
        let in_fence = xs
            .iter()
            .filter(|&&x| x >= b.whisker_low && x <= b.whisker_high)
            .count();
        prop_assert_eq!(in_fence + b.outliers.len(), xs.len());
        // Whiskers are real samples.
        prop_assert!(xs.contains(&b.whisker_low));
        prop_assert!(xs.contains(&b.whisker_high));
    }

    #[test]
    fn percentiles_monotone(xs in proptest::collection::vec(-1e6f64..1e6, 1..100), p1 in 0.0f64..=1.0, p2 in 0.0f64..=1.0) {
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(percentile_sorted(&sorted, lo).unwrap() <= percentile_sorted(&sorted, hi).unwrap());
    }
}
