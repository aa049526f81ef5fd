//! The structured event vocabulary of the simulator.
//!
//! Events use plain integers for every identifier (job, task, node, flow,
//! link) so this crate sits below the domain crates in the dependency
//! graph: `mapreduce`, `netsim` and `repair` translate their typed ids
//! into these records, never the other way around.

/// Locality class of a map attempt, mirroring
/// `mapreduce::job::MapLocality` without depending on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Locality {
    /// Input block stored on the executing node.
    NodeLocal,
    /// Input block stored in the executing node's rack.
    RackLocal,
    /// Input block fetched from another rack.
    Remote,
    /// Input block lost; reconstructed via a degraded read.
    Degraded,
}

impl Locality {
    /// Stable snake_case name used in serialized traces.
    pub fn name(self) -> &'static str {
        match self {
            Locality::NodeLocal => "node_local",
            Locality::RackLocal => "rack_local",
            Locality::Remote => "remote",
            Locality::Degraded => "degraded",
        }
    }
}

/// One phase of a degraded read, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DegradedPhase {
    /// Downloading the `k` surviving blocks of the stripe.
    FetchK,
    /// Erasure-decoding the lost block from the `k` fetched blocks.
    Decode,
    /// Running the map function over the reconstructed block.
    Process,
}

impl DegradedPhase {
    /// Stable snake_case name used in serialized traces.
    pub fn name(self) -> &'static str {
        match self {
            DegradedPhase::FetchK => "fetch_k",
            DegradedPhase::Decode => "decode",
            DegradedPhase::Process => "process",
        }
    }
}

/// The links a flow traverses: at most two endpoint links and two rack
/// links, mirroring `netsim`'s inline `Path` without depending on it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct LinkSet {
    /// Number of meaningful entries in `links`.
    pub len: u8,
    /// Link indices, valid in `[0, len)`.
    pub links: [u32; 4],
}

impl LinkSet {
    /// The traversed link indices as a slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.links[..self.len as usize]
    }

    /// Builds a set from a slice of at most four link indices.
    ///
    /// # Panics
    ///
    /// Panics if `links` has more than four entries.
    pub fn from_slice(links: &[u32]) -> LinkSet {
        assert!(links.len() <= 4, "flows traverse at most 4 links");
        let mut set = LinkSet {
            len: links.len() as u8,
            links: [0; 4],
        };
        set.links[..links.len()].copy_from_slice(links);
        set
    }
}

/// The lane an event belongs to: a totally ordered sub-stream of the
/// trace. Within one lane, timestamps are monotone non-decreasing (a
/// property the proptest suite enforces).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lane {
    /// Job lifecycle events of one job.
    Job(u32),
    /// Attempt lifecycle of one map attempt `(job, task, speculative)`.
    Map(u32, u32, bool),
    /// Lifecycle of one reduce task `(job, index)`.
    Reduce(u32, u32),
    /// Lifecycle of one network flow.
    Flow(u64),
    /// Failure/recovery of one node.
    Node(u32),
    /// One repair task.
    Repair(u32),
}

impl std::fmt::Display for Lane {
    /// Compact human-readable label used by `trace-diff` output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Lane::Job(job) => write!(f, "job {job}"),
            Lane::Map(job, task, false) => write!(f, "map {job}/{task}"),
            Lane::Map(job, task, true) => write!(f, "map {job}/{task} (spec)"),
            Lane::Reduce(job, index) => write!(f, "reduce {job}/{index}"),
            Lane::Flow(flow) => write!(f, "flow {flow}"),
            Lane::Node(node) => write!(f, "node {node}"),
            Lane::Repair(task) => write!(f, "repair {task}"),
        }
    }
}

/// A structured simulation event. Paired with a
/// [`simkit::SimTime`](simkit::time::SimTime) timestamp when recorded
/// through an [`EventSink`](crate::sink::EventSink).
#[derive(Clone, Debug, PartialEq)]
pub enum SimEvent {
    /// A job entered the queue.
    JobSubmitted {
        /// Job id.
        job: u32,
        /// Number of map tasks.
        maps: u32,
        /// Number of reduce tasks.
        reduces: u32,
    },
    /// A job launched its first map task.
    JobStarted {
        /// Job id.
        job: u32,
    },
    /// A job's last task completed.
    JobFinished {
        /// Job id.
        job: u32,
    },
    /// A map task became schedulable (at job arrival).
    TaskQueued {
        /// Owning job.
        job: u32,
        /// Map task index within the job.
        task: u32,
        /// True if the input block is lost and the task will run degraded.
        degraded: bool,
    },
    /// A map attempt was assigned a slot.
    MapLaunched {
        /// Owning job.
        job: u32,
        /// Map task index within the job.
        task: u32,
        /// Executing node.
        node: u32,
        /// Locality class at launch.
        locality: Locality,
        /// True for a speculative (backup) attempt.
        speculative: bool,
    },
    /// A map task completed; carries the *winning* attempt's view.
    MapDone {
        /// Owning job.
        job: u32,
        /// Map task index within the job.
        task: u32,
        /// Node of the winning attempt.
        node: u32,
        /// Locality class of the winning attempt.
        locality: Locality,
        /// True if the winner was the speculative attempt.
        speculative: bool,
    },
    /// A losing attempt was cancelled after the other attempt won.
    MapCancelled {
        /// Owning job.
        job: u32,
        /// Map task index within the job.
        task: u32,
        /// Node of the cancelled attempt.
        node: u32,
        /// True if the cancelled attempt was the speculative one.
        speculative: bool,
    },
    /// A degraded read was planned; counts classify the `k` sources by
    /// distance from the reader.
    DegradedPlan {
        /// Owning job.
        job: u32,
        /// Map task index within the job.
        task: u32,
        /// Reading (executing) node.
        node: u32,
        /// Sources already stored on the reader (no transfer).
        local: u32,
        /// Sources in the reader's rack.
        same_rack: u32,
        /// Sources in other racks.
        cross_rack: u32,
    },
    /// A redundant degraded read was issued: the attempt requested
    /// `extra` survivor fetches beyond the count it needs to decode
    /// (MDS-Queue style), and will cancel the stragglers on quorum.
    RedundantFetchIssued {
        /// Owning job.
        job: u32,
        /// Map task index within the job.
        task: u32,
        /// Reading (executing) node.
        node: u32,
        /// True if the attempt is speculative.
        speculative: bool,
        /// Redundant fetches actually issued beyond the needed count.
        extra: u32,
    },
    /// An in-flight redundant fetch was cancelled — either because the
    /// decode quorum completed without it, or because its source node
    /// failed while enough other sources survived.
    FetchCancelled {
        /// Owning job.
        job: u32,
        /// Map task index within the job.
        task: u32,
        /// Reading (executing) node.
        node: u32,
        /// True if the attempt is speculative.
        speculative: bool,
        /// The cancelled flow.
        flow: u64,
    },
    /// A degraded-read phase began on the attempt's lane.
    PhaseBegin {
        /// Owning job.
        job: u32,
        /// Map task index within the job.
        task: u32,
        /// Executing node.
        node: u32,
        /// True if the attempt is speculative.
        speculative: bool,
        /// The phase starting.
        phase: DegradedPhase,
    },
    /// A degraded-read phase ended on the attempt's lane.
    PhaseEnd {
        /// Owning job.
        job: u32,
        /// Map task index within the job.
        task: u32,
        /// Executing node.
        node: u32,
        /// True if the attempt is speculative.
        speculative: bool,
        /// The phase ending.
        phase: DegradedPhase,
    },
    /// A reduce task was assigned a slot.
    ReduceLaunched {
        /// Owning job.
        job: u32,
        /// Reduce partition index.
        index: u32,
        /// Executing node.
        node: u32,
    },
    /// A reduce task received its last shuffle byte.
    ReduceShuffled {
        /// Owning job.
        job: u32,
        /// Reduce partition index.
        index: u32,
        /// Executing node.
        node: u32,
    },
    /// A reduce task finished.
    ReduceDone {
        /// Owning job.
        job: u32,
        /// Reduce partition index.
        index: u32,
        /// Executing node.
        node: u32,
    },
    /// A network flow was registered.
    FlowStarted {
        /// Flow id.
        flow: u64,
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Payload size.
        bytes: u64,
        /// Links the flow traverses (empty for loopback).
        links: LinkSet,
    },
    /// The max-min fair share reallocation changed a flow's rate. The
    /// network reallocates once per batch of same-instant flow starts,
    /// cancels and completions, so a flow gets at most one `flow_rate`
    /// per reallocation, carrying the rate that holds after it; rates
    /// that would have lasted zero time inside a batch are never
    /// emitted.
    FlowRate {
        /// Flow id.
        flow: u64,
        /// New rate in bits per second.
        rate_bps: f64,
    },
    /// A flow completed or was cancelled.
    FlowFinished {
        /// Flow id.
        flow: u64,
        /// True if torn down before delivering all bytes.
        cancelled: bool,
    },
    /// A node failed — at t=0 under a static failure scenario, or
    /// mid-run when a failure timeline fires.
    NodeFailed {
        /// The failed node.
        node: u32,
    },
    /// A node's data was fully restored by repair.
    NodeRecovered {
        /// The recovered node.
        node: u32,
    },
    /// A repair task (reconstruction of one lost block) started.
    RepairStarted {
        /// Repair task index within the plan.
        task: u32,
        /// Stripe being repaired.
        stripe: u32,
        /// Position of the lost block within the stripe.
        pos: u32,
        /// Node receiving the reconstructed block.
        replacement: u32,
    },
    /// A repair task delivered its reconstructed block.
    RepairFinished {
        /// Repair task index within the plan.
        task: u32,
    },
}

impl SimEvent {
    /// Stable snake_case event kind, the `"ev"` field of JSONL traces.
    pub fn kind(&self) -> &'static str {
        match self {
            SimEvent::JobSubmitted { .. } => "job_submitted",
            SimEvent::JobStarted { .. } => "job_started",
            SimEvent::JobFinished { .. } => "job_finished",
            SimEvent::TaskQueued { .. } => "task_queued",
            SimEvent::MapLaunched { .. } => "map_launched",
            SimEvent::MapDone { .. } => "map_done",
            SimEvent::MapCancelled { .. } => "map_cancelled",
            SimEvent::DegradedPlan { .. } => "degraded_plan",
            SimEvent::RedundantFetchIssued { .. } => "redundant_fetch_issued",
            SimEvent::FetchCancelled { .. } => "fetch_cancelled",
            SimEvent::PhaseBegin { .. } => "phase_begin",
            SimEvent::PhaseEnd { .. } => "phase_end",
            SimEvent::ReduceLaunched { .. } => "reduce_launched",
            SimEvent::ReduceShuffled { .. } => "reduce_shuffled",
            SimEvent::ReduceDone { .. } => "reduce_done",
            SimEvent::FlowStarted { .. } => "flow_started",
            SimEvent::FlowRate { .. } => "flow_rate",
            SimEvent::FlowFinished { .. } => "flow_finished",
            SimEvent::NodeFailed { .. } => "node_failed",
            SimEvent::NodeRecovered { .. } => "node_recovered",
            SimEvent::RepairStarted { .. } => "repair_started",
            SimEvent::RepairFinished { .. } => "repair_finished",
        }
    }

    /// The lane this event belongs to.
    pub fn lane(&self) -> Lane {
        match *self {
            SimEvent::JobSubmitted { job, .. }
            | SimEvent::JobStarted { job }
            | SimEvent::JobFinished { job } => Lane::Job(job),
            // Queued/done/plan events sit on the original attempt's lane;
            // a speculative winner additionally closes its own lane via
            // the cancel of the loser, checked by the invariant tests.
            SimEvent::TaskQueued { job, task, .. } => Lane::Map(job, task, false),
            SimEvent::MapLaunched {
                job,
                task,
                speculative,
                ..
            }
            | SimEvent::MapDone {
                job,
                task,
                speculative,
                ..
            }
            | SimEvent::MapCancelled {
                job,
                task,
                speculative,
                ..
            }
            | SimEvent::RedundantFetchIssued {
                job,
                task,
                speculative,
                ..
            }
            | SimEvent::FetchCancelled {
                job,
                task,
                speculative,
                ..
            }
            | SimEvent::PhaseBegin {
                job,
                task,
                speculative,
                ..
            }
            | SimEvent::PhaseEnd {
                job,
                task,
                speculative,
                ..
            } => Lane::Map(job, task, speculative),
            SimEvent::DegradedPlan { job, task, .. } => Lane::Map(job, task, false),
            SimEvent::ReduceLaunched { job, index, .. }
            | SimEvent::ReduceShuffled { job, index, .. }
            | SimEvent::ReduceDone { job, index, .. } => Lane::Reduce(job, index),
            SimEvent::FlowStarted { flow, .. }
            | SimEvent::FlowRate { flow, .. }
            | SimEvent::FlowFinished { flow, .. } => Lane::Flow(flow),
            SimEvent::NodeFailed { node } | SimEvent::NodeRecovered { node } => Lane::Node(node),
            SimEvent::RepairStarted { task, .. } | SimEvent::RepairFinished { task } => {
                Lane::Repair(task)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_snake_case_and_distinct() {
        let events = [
            SimEvent::JobSubmitted {
                job: 0,
                maps: 1,
                reduces: 1,
            },
            SimEvent::JobStarted { job: 0 },
            SimEvent::JobFinished { job: 0 },
            SimEvent::TaskQueued {
                job: 0,
                task: 0,
                degraded: false,
            },
            SimEvent::MapLaunched {
                job: 0,
                task: 0,
                node: 0,
                locality: Locality::NodeLocal,
                speculative: false,
            },
            SimEvent::MapDone {
                job: 0,
                task: 0,
                node: 0,
                locality: Locality::NodeLocal,
                speculative: false,
            },
            SimEvent::FlowStarted {
                flow: 0,
                src: 0,
                dst: 1,
                bytes: 1,
                links: LinkSet::default(),
            },
            SimEvent::NodeFailed { node: 0 },
        ];
        let mut kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        for k in &kinds {
            assert!(
                k.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "kind {k} not snake_case"
            );
        }
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), events.len());
    }

    #[test]
    fn lanes_group_lifecycles() {
        let launch = SimEvent::MapLaunched {
            job: 2,
            task: 7,
            node: 3,
            locality: Locality::Degraded,
            speculative: false,
        };
        let done = SimEvent::MapDone {
            job: 2,
            task: 7,
            node: 9,
            locality: Locality::Degraded,
            speculative: false,
        };
        assert_eq!(launch.lane(), done.lane());
        let spec = SimEvent::MapLaunched {
            job: 2,
            task: 7,
            node: 9,
            locality: Locality::Remote,
            speculative: true,
        };
        assert_ne!(launch.lane(), spec.lane());
    }

    #[test]
    fn link_set_round_trips() {
        let set = LinkSet::from_slice(&[4, 80, 81, 5]);
        assert_eq!(set.as_slice(), &[4, 80, 81, 5]);
        assert_eq!(LinkSet::default().as_slice(), &[] as &[u32]);
    }
}
