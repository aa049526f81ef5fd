//! End-to-end and per-layer benchmark of the degraded-first scheduling
//! simulator.
//!
//! The untraced pass of a workload reports what a user of the simulator
//! sees (host wall time, set-up time, peak memory). The traced pass
//! attributes that time to layers from outside the engine, by timing
//! calls into each layer's public functions; see [`layers`].

pub mod layers;
pub mod report;
pub mod sim;
pub mod workloads;
