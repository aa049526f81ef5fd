//! `dfs` — degraded-first scheduling for MapReduce in erasure-coded
//! storage clusters.
//!
//! This is the top-level crate of the reproduction of *Li, Lee, Hu —
//! "Degraded-First Scheduling for MapReduce in Erasure-Coded Storage
//! Clusters" (DSN 2014)*. It ties together:
//!
//! * [`erasure`] — the Reed–Solomon coding substrate (HDFS-RAID's role);
//! * [`cluster`] / [`ecstore`] — topology, placement, failure modes and
//!   degraded-read planning;
//! * [`netsim`] / [`simkit`] — the flow-level network and the
//!   discrete event core;
//! * [`mapreduce`] — the heartbeat-driven MapReduce engine;
//! * [`scheduler`] — the paper's policies (LF / BDF / EDF);
//! * [`obs`] — structured tracing: JSONL / Chrome-trace export and
//!   derived metrics from any run;
//! * [`workloads`] — the evaluation's job mixes;
//! * [`textlab`] — a real-bytes data path standing in for the Hadoop
//!   testbed.
//!
//! The crate's own modules add the experiment harness used by every
//! figure reproduction:
//!
//! * [`experiment`] — describe a cluster + workload + failure once, then
//!   run it under any policy and any seed, normalized against normal
//!   mode;
//! * [`presets`] — the paper's configurations (simulation default,
//!   heterogeneous, extreme case, 13-node testbed).
//!
//! Multi-seed sampling and grid sweeps live in the `sweep` crate.
//!
//! # Quickstart
//!
//! ```
//! use dfs::experiment::Policy;
//! use dfs::presets;
//!
//! // A scaled-down simulation cluster (the full paper-size preset is
//! // `presets::simulation_default()`).
//! let exp = presets::small_default();
//! let lf = exp.normalized_runtime(Policy::LocalityFirst, 1).unwrap();
//! let edf = exp.normalized_runtime(Policy::EnhancedDegradedFirst, 1).unwrap();
//! assert!(edf <= lf, "EDF {edf} should not exceed LF {lf}");
//! ```

pub mod experiment;
pub mod presets;

pub use experiment::{Experiment, ExperimentError, FailureSpec, Policy};

// Re-export the full stack for downstream users and the bench harness.
pub use analysis;
pub use cluster;
pub use ecstore;
pub use erasure;
pub use mapreduce;
pub use netsim;
pub use obs;
pub use repair;
pub use scheduler;
pub use simkit;
pub use textlab;
pub use workloads;
