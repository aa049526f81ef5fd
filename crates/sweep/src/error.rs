//! Typed errors for sweep specification and execution.
//!
//! Sweep entry points never panic on bad user input: every way a spec
//! can be malformed maps to a [`SweepError`] variant, and per-shard
//! simulation failures are captured in the report rather than aborting
//! the whole grid.

use std::fmt;

/// Why a sweep could not be expanded or executed.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// A grid axis has no values.
    EmptyAxis {
        /// Which axis ("policies", "codes", ...).
        axis: &'static str,
    },
    /// A grid axis lists the same value twice, which would make merged
    /// rows ambiguous.
    DuplicateAxisValue {
        /// Which axis.
        axis: &'static str,
        /// The repeated value's canonical label.
        value: String,
    },
    /// The expanded grid exceeds the shard cap.
    TooManyShards {
        /// Shards the grid would expand to.
        shards: usize,
        /// The cap ([`crate::SweepSpec::MAX_SHARDS`]).
        cap: usize,
    },
    /// An `(n, k)` pair is not a valid erasure code.
    BadCode {
        /// Requested total blocks per stripe.
        n: usize,
        /// Requested data blocks per stripe.
        k: usize,
        /// The coding layer's reason.
        reason: String,
    },
    /// A valid code cannot be placed on the sweep's base topology
    /// (rack-aware placement caps each rack at n−k stripe blocks and
    /// requires n−k ≥ 2 and n ≤ nodes).
    CodeTopology {
        /// Requested total blocks per stripe.
        n: usize,
        /// Requested data blocks per stripe.
        k: usize,
        /// Racks in the base topology.
        racks: usize,
        /// Total nodes in the base topology.
        nodes: usize,
        /// Which placement constraint failed, with a suggested fix.
        reason: String,
    },
    /// A base-configuration field is out of range.
    BadBase {
        /// Which field.
        field: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A Weibull churn axis has an invalid parameter.
    BadChurn {
        /// Which parameter.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A workload axis has an invalid parameter.
    BadWorkload {
        /// Human-readable reason.
        reason: String,
    },
    /// A fetch-policy or speed-profile axis value is invalid.
    BadAxisValue {
        /// Which axis ("fetch", "speeds").
        axis: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// A directly-requested shard run (e.g. a trace diff) failed.
    ShardRun {
        /// Human-readable reason.
        reason: String,
    },
    /// The thread count is zero.
    NoThreads,
    /// A seed sweep produced no sample: it had no seeds, or every seed
    /// failed.
    NoSamples {
        /// Seeds the sweep ran.
        seeds: u64,
    },
    /// A JSONL spec line could not be parsed.
    Spec {
        /// 1-based line number.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::EmptyAxis { axis } => {
                write!(f, "sweep axis `{axis}` has no values")
            }
            SweepError::DuplicateAxisValue { axis, value } => {
                write!(f, "sweep axis `{axis}` lists `{value}` more than once")
            }
            SweepError::TooManyShards { shards, cap } => {
                write!(
                    f,
                    "grid expands to {shards} shards, exceeding the cap of {cap}"
                )
            }
            SweepError::BadCode { n, k, reason } => {
                write!(f, "invalid code ({n},{k}): {reason}")
            }
            SweepError::CodeTopology {
                n,
                k,
                racks,
                nodes,
                reason,
            } => {
                write!(
                    f,
                    "code ({n},{k}) cannot be placed on {racks} racks / {nodes} nodes: {reason}"
                )
            }
            SweepError::BadBase { field, value } => {
                write!(
                    f,
                    "base configuration field `{field}` must be positive, got {value}"
                )
            }
            SweepError::BadChurn { field, value } => {
                write!(
                    f,
                    "weibull churn parameter `{field}` must be positive and finite, got {value}"
                )
            }
            SweepError::BadWorkload { reason } => {
                write!(f, "invalid workload axis: {reason}")
            }
            SweepError::BadAxisValue { axis, reason } => {
                write!(f, "invalid {axis} axis value: {reason}")
            }
            SweepError::ShardRun { reason } => {
                write!(f, "shard run failed: {reason}")
            }
            SweepError::NoThreads => write!(f, "thread count must be at least 1"),
            SweepError::NoSamples { seeds: 0 } => write!(f, "a seed sweep needs at least one seed"),
            SweepError::NoSamples { seeds } => {
                write!(f, "every one of the {seeds} seeds failed to run")
            }
            SweepError::Spec { line, reason } => {
                write!(f, "spec line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for SweepError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let cases: Vec<(SweepError, &str)> = vec![
            (SweepError::EmptyAxis { axis: "codes" }, "codes"),
            (
                SweepError::DuplicateAxisValue {
                    axis: "policies",
                    value: "LF".into(),
                },
                "LF",
            ),
            (
                SweepError::TooManyShards {
                    shards: 70_000,
                    cap: 65_536,
                },
                "65536",
            ),
            (
                SweepError::BadCode {
                    n: 3,
                    k: 9,
                    reason: "k >= n".into(),
                },
                "(3,9)",
            ),
            (
                SweepError::CodeTopology {
                    n: 12,
                    k: 10,
                    racks: 4,
                    nodes: 16,
                    reason: "at most 8 of the 12 stripe blocks fit".into(),
                },
                "(12,10)",
            ),
            (
                SweepError::BadBase {
                    field: "racks",
                    value: 0,
                },
                "racks",
            ),
            (
                SweepError::BadChurn {
                    field: "lifetime_shape",
                    value: -1.0,
                },
                "lifetime_shape",
            ),
            (
                SweepError::BadWorkload {
                    reason: "zero jobs".into(),
                },
                "zero jobs",
            ),
            (
                SweepError::BadAxisValue {
                    axis: "fetch",
                    reason: "extra must be >= 1".into(),
                },
                "fetch",
            ),
            (
                SweepError::ShardRun {
                    reason: "stripe destroyed".into(),
                },
                "stripe destroyed",
            ),
            (SweepError::NoThreads, "at least 1"),
            (SweepError::NoSamples { seeds: 0 }, "at least one seed"),
            (SweepError::NoSamples { seeds: 3 }, "3 seeds failed"),
            (
                SweepError::Spec {
                    line: 3,
                    reason: "bad axis".into(),
                },
                "line 3",
            ),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(text.contains(needle), "{text} should mention {needle}");
        }
    }
}
