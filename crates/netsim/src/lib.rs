//! `netsim` — a flow-level network simulator for two-level (rack/core)
//! cluster topologies with max-min fair bandwidth sharing.
//!
//! The paper's CSIM simulator models the network as links that transfers
//! hold for a duration; its motivating example divides a rack's download
//! bandwidth among concurrent degraded reads ("this doubles the download
//! time, from 10s to 20s"). This crate reproduces that behaviour exactly
//! with a fluid-flow model: every active flow traverses a path of links
//! (source NIC → source rack uplink → destination rack downlink →
//! destination NIC), and rates are assigned by progressive filling
//! (max-min fairness). Rates only change when a flow starts or ends, so
//! between those instants progress is linear and completion times are
//! exact. Every start, cancel and completion at one instant is settled
//! by a single reallocation, the next time rates are needed.
//!
//! # Example
//!
//! ```
//! use netsim::{NetConfig, Network};
//! use simkit::time::SimTime;
//!
//! // Two racks of two nodes, 1 Gbps everywhere.
//! let mut net = Network::new(&[2, 2], NetConfig::uniform(1_000_000_000));
//! let now = SimTime::ZERO;
//! let flows = net.start_flows(now, &[(0, 2, 128 * 1024 * 1024)]); // cross-rack
//! let done_at = net.next_completion().unwrap();
//! let finished = net.drain_finished(done_at);
//! assert_eq!(finished.len(), 1);
//! assert_eq!(finished[0].0, flows[0]);
//! ```

pub mod fairshare;
pub mod network;

pub use network::{
    FlowId, FlowIds, FlowLogEntry, FlowLogKind, FlowRoute, FlowStats, NetConfig, Network,
    UtilizationSample,
};
