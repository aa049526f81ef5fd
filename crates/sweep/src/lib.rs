//! Sharded deterministic parameter sweeps over the experiment harness.
//!
//! The paper's evaluation is a grid: scheduling policy × erasure code ×
//! failure pattern × workload × seed. [`SweepSpec`] describes that grid
//! once; [`SweepSpec::shards`] expands it into an ordered shard list;
//! [`run_sweep`] executes the shards on the work-stealing pool of OS
//! threads in [`pool`] and merges the results into one [`SweepReport`]
//! (JSON and a human table) with LF/EDF/BDF deltas per grid axis.
//!
//! # Determinism contract
//!
//! The merged report is **byte-identical** regardless of thread count
//! and shard execution order:
//!
//! * every shard derives its RNG stream seed from an FNV-1a hash of its
//!   canonical *scenario key* — the (base, code, failure, workload,
//!   seed) coordinates, **excluding the policy** — so the value of a
//!   coordinate, not its position in the grid, decides the stream, and
//!   LF/BDF/EDF shards of the same scenario resolve the same failure
//!   (the paper compares policies under identical conditions);
//! * shards write into pre-allocated result slots indexed by grid
//!   position, so the merge consumes results in grid order no matter
//!   which worker finished first;
//! * report rendering walks the grid order and formats floats with
//!   fixed precision — no hashing, no wall-clock, no thread identity.
//!
//! The same pool backs [`sweep_seeds`], the per-figure multi-seed
//! sampler (boxplots over seeds for a fixed configuration).
//!
//! # Quickstart
//!
//! ```
//! use sweep::{run_sweep, FailureAxis, SweepBase, SweepSpec, WorkloadAxis};
//! use dfs::cluster::SpeedProfile;
//! use dfs::ecstore::FetchPolicy;
//! use dfs::Policy;
//!
//! let spec = SweepSpec {
//!     base: SweepBase::fig7_small(),
//!     policies: vec![Policy::LocalityFirst, Policy::EnhancedDegradedFirst],
//!     codes: vec![(8, 6)],
//!     failures: vec![FailureAxis::SingleNode],
//!     workloads: vec![WorkloadAxis::MapOnly { map_secs: 10.0 }],
//!     fetch_policies: vec![FetchPolicy::Exact],
//!     speeds: vec![SpeedProfile::Homogeneous],
//!     seeds: vec![1],
//! };
//! let report = run_sweep(&spec, 2).unwrap();
//! assert_eq!(report.shards.len(), 2);
//! // Same grid, different thread count: byte-identical report.
//! assert_eq!(report.to_json(), run_sweep(&spec, 1).unwrap().to_json());
//! ```

pub mod error;
pub mod pool;
pub mod report;
pub mod run;
pub mod spec;

pub use error::SweepError;
pub use pool::{sweep_seeds, sweep_seeds_scalar, SweepSummary};
pub use report::{ScenarioRow, ShardRow, SweepReport};
pub use run::{run_sweep, trace_diff_scenario, ShardMetrics};
pub use spec::{
    fnv1a, parse_code, parse_policy, parse_spec_jsonl, policy_label, FailureAxis, Shard, SweepBase,
    SweepSpec, WorkloadAxis,
};
