//! `mapreduce` — a discrete event MapReduce execution engine for
//! erasure-coded storage clusters, reproducing the simulator of Section V
//! of the degraded-first scheduling paper (DSN 2014).
//!
//! The engine models:
//!
//! * a master that assigns tasks only in response to periodic slave
//!   **heartbeats** (3 s, as in the paper's simulator);
//! * per-node **map and reduce slots**;
//! * map tasks classified as node-local, rack-local, remote, or
//!   **degraded** (input block lost to a node failure, reconstructed via
//!   a degraded read of `k` surviving blocks);
//! * block fetches, degraded reads and **shuffle** traffic all competing
//!   on the shared [`netsim`] network;
//! * a FIFO multi-job queue.
//!
//! Scheduling policy is pluggable through [`sched::MapScheduler`]; the
//! paper's three policies (locality-first, basic degraded-first,
//! enhanced degraded-first) live in the `scheduler` crate.
//!
//! # Example
//!
//! A tiny run with an inline locality-first-like policy:
//!
//! ```
//! use cluster::{FailureScenario, Topology};
//! use ecstore::placement::RackAwarePlacement;
//! use erasure::CodeParams;
//! use mapreduce::engine::{Engine, EngineConfig};
//! use mapreduce::job::JobSpec;
//! use mapreduce::sched::{Heartbeat, MapScheduler};
//! use simkit::time::SimDuration;
//!
//! struct Greedy;
//! impl MapScheduler for Greedy {
//!     fn assign_maps(&mut self, hb: &mut Heartbeat<'_>) {
//!         while hb.free_map_slots() > 0 {
//!             let Some(job) = hb.jobs().first().copied() else { break };
//!             if hb.take_node_local(job).is_none()
//!                 && hb.take_rack_local(job).is_none()
//!                 && hb.take_remote(job).is_none()
//!                 && hb.take_degraded(job).is_none()
//!             {
//!                 break;
//!             }
//!         }
//!     }
//!     fn name(&self) -> &'static str {
//!         "greedy"
//!     }
//! }
//!
//! let topo = Topology::homogeneous(2, 2, 2, 1);
//! let job = JobSpec::builder("demo")
//!     .map_time(SimDuration::from_secs(5), SimDuration::ZERO)
//!     .map_only()
//!     .build();
//! let engine = Engine::builder(topo)
//!     .code(CodeParams::new(4, 2).unwrap(), 8)
//!     .placement(&RackAwarePlacement)
//!     .failure(FailureScenario::none())
//!     .config(EngineConfig::default())
//!     .seed(7)
//!     .job(job)
//!     .build()
//!     .unwrap();
//! let result = engine.run(Box::new(Greedy)).unwrap();
//! assert_eq!(result.jobs.len(), 1);
//! ```

mod attempt;
pub mod engine;
pub mod job;
pub mod metrics;
mod pools;
pub mod sched;

pub use engine::{Engine, EngineBuilder, EngineConfig, RunError};
pub use job::{JobId, JobSpec, MapLocality, MapTaskId};
pub use metrics::{JobResult, RunResult, TaskRecord};
pub use sched::{Heartbeat, MapScheduler};
