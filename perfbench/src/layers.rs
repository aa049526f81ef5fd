//! Per-layer instruments, all built from outside the engine: a timing
//! wrapper around the scheduling policy, counting and do-nothing event
//! sinks, and a replay of a traced flow schedule through `netsim`.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use dfs::mapreduce::sched::{Heartbeat, MapScheduler};
use dfs::netsim::{FlowId, NetConfig, Network};
use dfs::obs::event::SimEvent;
use dfs::obs::sink::EventSink;
use dfs::simkit::time::SimTime;

/// What the scheduler wrapper measured.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SchedStats {
    /// `assign_maps` calls (one per served heartbeat).
    pub calls: u64,
    /// Map slots the policy filled across those calls.
    pub maps: u64,
    /// Host time spent inside the wrapped policy.
    pub busy: Duration,
}

/// Wraps a policy and times each `assign_maps` call. The engine owns the
/// boxed scheduler, so the numbers are published through a shared cell.
pub struct TimedScheduler {
    inner: Box<dyn MapScheduler>,
    stats: Rc<Cell<SchedStats>>,
}

impl TimedScheduler {
    /// Wraps `inner`; read the totals from the returned cell after the run.
    pub fn new(inner: Box<dyn MapScheduler>) -> (TimedScheduler, Rc<Cell<SchedStats>>) {
        let stats = Rc::new(Cell::new(SchedStats::default()));
        let wrapper = TimedScheduler {
            inner,
            stats: Rc::clone(&stats),
        };
        (wrapper, stats)
    }
}

impl MapScheduler for TimedScheduler {
    fn assign_maps(&mut self, hb: &mut Heartbeat<'_>) {
        let free_before = hb.free_map_slots();
        let start = Instant::now();
        self.inner.assign_maps(hb);
        let busy = start.elapsed();
        let mut s = self.stats.get();
        s.calls += 1;
        s.maps += u64::from(free_before - hb.free_map_slots());
        s.busy += busy;
        self.stats.set(s);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A sink that drops every event; it measures the cost of emitting.
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&mut self, at: SimTime, event: &SimEvent) {
        std::hint::black_box((at, event));
    }
}

/// One network operation recovered from a trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlowOp {
    /// A `flow_started` event.
    Start {
        /// When.
        at: SimTime,
        /// Trace flow id.
        flow: u64,
        /// Source node.
        src: usize,
        /// Destination node.
        dst: usize,
        /// Payload size.
        bytes: u64,
    },
    /// A `flow_finished` event.
    Finish {
        /// When.
        at: SimTime,
        /// Trace flow id.
        flow: u64,
        /// True if the flow was torn down early.
        cancelled: bool,
    },
    /// One or more `flow_rate` events: a reallocation happened, so the
    /// starts or finishes on either side came from separate calls.
    Realloc,
}

/// Counts events by kind and keeps the flow schedule for [`replay_flows`].
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Events seen, by `SimEvent::kind`.
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Flow starts, finishes and reallocation boundaries in trace order.
    pub flow_ops: Vec<FlowOp>,
}

impl CountingSink {
    /// Events of one kind.
    pub fn count(&self, kind: &str) -> u64 {
        self.by_kind.get(kind).copied().unwrap_or(0)
    }

    /// All events.
    pub fn total(&self) -> u64 {
        self.by_kind.values().sum()
    }
}

impl EventSink for CountingSink {
    fn record(&mut self, at: SimTime, event: &SimEvent) {
        *self.by_kind.entry(event.kind()).or_default() += 1;
        match *event {
            SimEvent::FlowStarted {
                flow,
                src,
                dst,
                bytes,
                ..
            } => self.flow_ops.push(FlowOp::Start {
                at,
                flow,
                src: src as usize,
                dst: dst as usize,
                bytes,
            }),
            SimEvent::FlowFinished { flow, cancelled } => self.flow_ops.push(FlowOp::Finish {
                at,
                flow,
                cancelled,
            }),
            SimEvent::FlowRate { .. } if self.flow_ops.last() != Some(&FlowOp::Realloc) => {
                self.flow_ops.push(FlowOp::Realloc);
            }
            _ => {}
        }
    }
}

/// What a flow replay did and whether it agreed with the trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReplayStats {
    /// Host time of the replay.
    pub busy: Duration,
    /// `start_flows`, `cancel_flow` and `drain_finished` calls, each of
    /// which reallocates rates.
    pub updates: u64,
    /// Flows started.
    pub flows: u64,
    /// Flows cancelled.
    pub cancelled: u64,
    /// Trace completions the replay reproduced at the same instant.
    pub finishes_matched: u64,
    /// Trace operations the replay could not reproduce exactly.
    pub mismatches: u64,
}

/// Replays a traced flow schedule through a fresh [`Network`] built like
/// the engine's, checking that every completion happens at exactly the
/// traced instant and every cancellation finds a live flow.
pub fn replay_flows(rack_sizes: &[usize], net: NetConfig, ops: &[FlowOp]) -> ReplayStats {
    let start = Instant::now();
    let mut network = Network::new(rack_sizes, net);
    let mut ids: Vec<Option<FlowId>> = Vec::new();
    let mut stats = ReplayStats::default();
    let mut specs: Vec<(usize, usize, u64)> = Vec::new();
    let mut i = 0;
    while i < ops.len() {
        match ops[i] {
            FlowOp::Realloc => i += 1,
            FlowOp::Start { at, .. } => {
                // One batch: consecutive starts at one instant with no
                // reallocation between them.
                specs.clear();
                let mut traced = Vec::new();
                while let Some(&FlowOp::Start {
                    at: t,
                    flow,
                    src,
                    dst,
                    bytes,
                }) = ops.get(i)
                {
                    if t != at {
                        break;
                    }
                    specs.push((src, dst, bytes));
                    traced.push(flow);
                    i += 1;
                }
                let started = network.start_flows(at, &specs);
                stats.updates += 1;
                stats.flows += started.len() as u64;
                for (flow, id) in traced.into_iter().zip(started) {
                    if id.as_u64() != flow {
                        stats.mismatches += 1;
                    }
                    let slot = flow as usize;
                    if ids.len() <= slot {
                        ids.resize(slot + 1, None);
                    }
                    ids[slot] = Some(id);
                }
            }
            FlowOp::Finish {
                at,
                flow,
                cancelled: true,
            } => {
                i += 1;
                stats.cancelled += 1;
                stats.updates += 1;
                let id = ids.get(flow as usize).copied().flatten();
                if id.and_then(|id| network.cancel_flow(at, id)).is_none() {
                    stats.mismatches += 1;
                }
            }
            FlowOp::Finish { at, .. } => {
                let mut expected = Vec::new();
                while let Some(&FlowOp::Finish {
                    at: t,
                    flow,
                    cancelled: false,
                }) = ops.get(i)
                {
                    if t != at {
                        break;
                    }
                    expected.push(flow);
                    i += 1;
                }
                while !expected.is_empty() {
                    if network.next_completion() != Some(at) {
                        stats.mismatches += expected.len() as u64;
                        break;
                    }
                    let done = network.drain_finished(at);
                    stats.updates += 1;
                    if done.is_empty() {
                        stats.mismatches += expected.len() as u64;
                        break;
                    }
                    for (id, _) in done {
                        match expected.iter().position(|&f| f == id.as_u64()) {
                            Some(pos) => {
                                expected.swap_remove(pos);
                                stats.finishes_matched += 1;
                            }
                            None => stats.mismatches += 1,
                        }
                    }
                }
            }
        }
    }
    stats.busy = start.elapsed();
    stats
}
