//! The workspace's one parallel-run pool, and the multi-seed sampler
//! built on it.
//!
//! `run_indexed` runs `f(0..count)` on scoped OS threads: workers
//! claim indices from an atomic cursor and write results into
//! pre-allocated per-index slots, so the output is a pure function of
//! `f` — independent of thread count, scheduling and finish order.
//! Grid sweeps ([`crate::run_sweep`]) and per-figure seed sweeps
//! ([`sweep_seeds`]) both run on it.
//!
//! The paper reports each configuration as a boxplot over 30 randomized
//! runs; [`sweep_seeds`] fans those runs out and summarizes them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use dfs::simkit::stats::{percentile_sorted, Boxplot, StatsError, Summary};

use crate::error::SweepError;

/// Runs `f(i)` for every `i` in `0..count` on up to `threads` OS
/// threads and returns the results in index order.
///
/// The result is identical for any `threads` (0 is treated as 1).
///
/// # Panics
///
/// Re-raises a panic from `f` once every worker has stopped.
pub(crate) fn run_indexed<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(count).max(1);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let value = f(i);
                // A poisoned slot only means another worker panicked
                // mid-store; the stored value is still ours to replace.
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
            });
        }
    });
    // `scope` re-raises any worker panic, so every slot is filled here.
    slots
        .into_iter()
        .filter_map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

/// Summary of a multi-seed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// One value per seed, in seed order.
    pub samples: Vec<f64>,
}

impl SweepSummary {
    /// Wraps raw samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn new(samples: Vec<f64>) -> SweepSummary {
        assert!(!samples.is_empty(), "empty sweep");
        SweepSummary { samples }
    }

    /// The sample mean.
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// The sample median. Total-order sorting keeps this well-defined
    /// even if a run produced a NaN sample; use [`SweepSummary::summary`]
    /// when such samples must be rejected instead.
    pub fn median(&self) -> f64 {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        // Non-empty by constructor, so the fallback is unreachable.
        percentile_sorted(&sorted, 0.50).unwrap_or(f64::NAN)
    }

    /// Five-number summary.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NonFinite`] if any sample is NaN or
    /// infinite (the constructor guarantees non-emptiness).
    pub fn summary(&self) -> Result<Summary, StatsError> {
        Summary::from_samples(&self.samples)
    }

    /// Boxplot (1.5·IQR whiskers), the paper's plotted form.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SweepSummary::summary`].
    pub fn boxplot(&self) -> Result<Boxplot, StatsError> {
        Boxplot::from_samples(&self.samples)
    }

    /// Mean relative reduction versus a baseline sweep, seed by seed —
    /// how the paper quotes "EDF reduces the runtime of LF by X%".
    ///
    /// # Panics
    ///
    /// Panics if the sweeps have different lengths.
    pub fn mean_reduction_vs(&self, baseline: &SweepSummary) -> f64 {
        assert_eq!(
            self.samples.len(),
            baseline.samples.len(),
            "sweeps cover different seed sets"
        );
        let reductions: Vec<f64> = self
            .samples
            .iter()
            .zip(&baseline.samples)
            .map(|(s, b)| (b - s) / b)
            .collect();
        reductions.iter().sum::<f64>() / reductions.len() as f64
    }
}

/// Runs `f(seed)` for every seed in `0..count` on one thread per core
/// and returns one [`SweepSummary`] per position of the vectors `f`
/// yields (e.g. one per policy, sharing a single normal-mode baseline
/// run), each in seed order. Seeds whose run fails (e.g. a random
/// failure scenario that destroys a stripe) return `None` and are
/// skipped for every position; the paper's 30 "random configurations"
/// likewise only include valid ones.
///
/// # Errors
///
/// [`SweepError::NoSamples`] when `count` is 0 or every seed fails.
///
/// # Panics
///
/// Panics if seeds return vectors of differing lengths.
pub fn sweep_seeds<F>(count: u64, f: F) -> Result<Vec<SweepSummary>, SweepError>
where
    F: Fn(u64) -> Option<Vec<f64>> + Sync,
{
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    sweep_seeds_on(count, threads, f)
}

/// [`sweep_seeds`] for runs that yield one value per seed.
///
/// # Errors
///
/// As [`sweep_seeds`].
pub fn sweep_seeds_scalar<F>(count: u64, f: F) -> Result<SweepSummary, SweepError>
where
    F: Fn(u64) -> Option<f64> + Sync,
{
    Ok(sweep_seeds(count, |seed| f(seed).map(|x| vec![x]))?.swap_remove(0))
}

/// [`sweep_seeds`] on an explicit number of threads.
fn sweep_seeds_on<F>(count: u64, threads: usize, f: F) -> Result<Vec<SweepSummary>, SweepError>
where
    F: Fn(u64) -> Option<Vec<f64>> + Sync,
{
    let rows: Vec<Vec<f64>> = run_indexed(count as usize, threads, |i| f(i as u64))
        .into_iter()
        .flatten()
        .collect();
    let Some(width) = rows.first().map(Vec::len) else {
        return Err(SweepError::NoSamples { seeds: count });
    };
    assert!(
        rows.iter().all(|r| r.len() == width),
        "seeds returned vectors of different lengths"
    );
    Ok((0..width)
        .map(|i| SweepSummary::new(rows.iter().map(|r| r[i]).collect()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_is_independent_of_thread_count() {
        let square = |i: usize| i * i;
        let expected: Vec<usize> = (0..37).map(square).collect();
        for threads in [0, 1, 2, 4, 64] {
            assert_eq!(
                run_indexed(37, threads, square),
                expected,
                "{threads} threads"
            );
        }
        assert!(run_indexed(0, 4, square).is_empty());
    }

    #[test]
    fn sweep_vec_transposes() {
        let sweeps = sweep_seeds(4, |seed| Some(vec![seed as f64, seed as f64 * 10.0])).unwrap();
        assert_eq!(sweeps.len(), 2);
        assert_eq!(sweeps[0].samples, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(sweeps[1].samples, vec![0.0, 10.0, 20.0, 30.0]);
    }

    #[test]
    fn sweep_vec_skips_failed_seeds() {
        let sweeps = sweep_seeds(4, |seed| (seed != 1).then(|| vec![seed as f64])).unwrap();
        assert_eq!(sweeps[0].samples, vec![0.0, 2.0, 3.0]);
    }

    #[test]
    fn sweep_preserves_seed_order() {
        let s = sweep_seeds_scalar(16, |seed| Some(seed as f64)).unwrap();
        assert_eq!(s.samples, (0..16).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_skips_failures() {
        let s = sweep_seeds_scalar(10, |seed| (seed % 2 == 0).then_some(seed as f64)).unwrap();
        assert_eq!(s.samples, vec![0.0, 2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn sweep_rejects_total_failure() {
        assert_eq!(
            sweep_seeds_scalar(3, |_| None),
            Err(SweepError::NoSamples { seeds: 3 })
        );
        assert_eq!(
            sweep_seeds(0, |seed| Some(vec![seed as f64])),
            Err(SweepError::NoSamples { seeds: 0 })
        );
    }

    #[test]
    fn sweep_is_independent_of_thread_count() {
        let exp = dfs::presets::small_default();
        let run = |threads| {
            sweep_seeds_on(4, threads, |seed| {
                exp.normalized_runtime(dfs::Policy::EnhancedDegradedFirst, seed)
                    .ok()
                    .map(|x| vec![x])
            })
        };
        let one = run(1).unwrap();
        assert_eq!(one[0].samples.len(), 4);
        assert_eq!(run(3).unwrap(), one);
    }

    #[test]
    fn summary_statistics() {
        let s = SweepSummary::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.summary().unwrap().count, 4);
        let b = s.boxplot().unwrap();
        assert!(b.outliers.is_empty());
    }

    #[test]
    fn reduction_vs_baseline() {
        let baseline = SweepSummary::new(vec![10.0, 20.0]);
        let improved = SweepSummary::new(vec![8.0, 15.0]);
        // (0.2 + 0.25) / 2
        assert!((improved.mean_reduction_vs(&baseline) - 0.225).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different seed sets")]
    fn reduction_requires_matching_lengths() {
        let a = SweepSummary::new(vec![1.0]);
        let b = SweepSummary::new(vec![1.0, 2.0]);
        let _ = a.mean_reduction_vs(&b);
    }
}
