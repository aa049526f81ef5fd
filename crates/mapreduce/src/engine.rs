//! The discrete event MapReduce engine.
//!
//! One [`Engine`] owns a placed [`BlockStore`], a failure-mode
//! [`ClusterState`], a [`netsim::Network`] and a FIFO job queue, and
//! replays the paper's simulator flow: slaves heartbeat the master every
//! 3 s; the master answers with task assignments chosen by the pluggable
//! [`MapScheduler`]; map tasks fetch their input (a network flow for
//! rack-local/remote tasks, `k` parallel flows for degraded tasks),
//! process for a sampled duration, and feed shuffle flows to reducers;
//! reducers process once every map's intermediate output has arrived.

use cluster::{
    ClusterState, FailureEventKind, FailureScenario, FailureTimeline, NodeId, NodeSpeeds,
    SpeedProfile, TimelineEvent, Topology,
};
use ecstore::placement::{PlacementError, PlacementPolicy};
use ecstore::{BlockStore, DegradedReadError, FetchPolicy, SourceSelection, StripeLayout};
use erasure::CodeParams;
use netsim::{FlowId, FlowLogEntry, FlowLogKind, NetConfig, Network};
use obs::event::{DegradedPhase, LinkSet, SimEvent};
use obs::sink::{EventSink, Recorder};
use simkit::calendar::Calendar;
use simkit::time::{SimDuration, SimTime};
use simkit::SimRng;

use crate::attempt::Attempt;
use crate::job::{JobId, JobSpec, MapLocality, MapTaskId};
use crate::metrics::{JobResult, RunResult, TaskDetail, TaskRecord};
use crate::pools::NormalPools;
use crate::sched::{Heartbeat, MapScheduler};

/// Maps the engine's locality to the observation vocabulary.
pub(crate) fn obs_locality(locality: MapLocality) -> obs::event::Locality {
    match locality {
        MapLocality::NodeLocal => obs::event::Locality::NodeLocal,
        MapLocality::RackLocal => obs::event::Locality::RackLocal,
        MapLocality::Remote => obs::event::Locality::Remote,
        MapLocality::Degraded => obs::event::Locality::Degraded,
    }
}

/// Converts one netsim flow-log entry into the trace vocabulary.
fn flow_log_event(entry: &FlowLogEntry) -> SimEvent {
    let flow = entry.flow.as_u64();
    match entry.kind {
        FlowLogKind::Started {
            src,
            dst,
            bytes,
            route,
        } => SimEvent::FlowStarted {
            flow,
            src: src as u32,
            dst: dst as u32,
            bytes,
            links: LinkSet::from_slice(route.as_slice()),
        },
        FlowLogKind::RateChanged { rate_bps } => SimEvent::FlowRate { flow, rate_bps },
        FlowLogKind::Finished { cancelled } => SimEvent::FlowFinished { flow, cancelled },
    }
}

/// Tunables shared by every experiment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineConfig {
    /// Slave heartbeat period (paper: 3 s).
    pub heartbeat_period: SimDuration,
    /// Input block size in bytes (paper default: 128 MB; testbed 64 MB).
    pub block_bytes: u64,
    /// Network link capacities.
    pub net: NetConfig,
    /// How degraded reads pick their `k` sources.
    pub source_selection: SourceSelection,
    /// Fraction of a job's maps that must finish before its reducers may
    /// launch (Hadoop's slowstart, default 0.05).
    pub reduce_slowstart: f64,
    /// Lower truncation for sampled task durations.
    pub task_time_floor: SimDuration,
    /// Safety valve: abort after this many events.
    pub max_events: u64,
    /// Send an extra out-of-band heartbeat the moment a task finishes
    /// (Hadoop's `mapreduce.tasktracker.outofband.heartbeat`), so freed
    /// slots refill without waiting for the periodic beat.
    pub oob_heartbeats: bool,
    /// Record rack-downlink utilization over time in the run result
    /// (the paper's "unused network resources" motivation).
    pub log_network_utilization: bool,
    /// Enable speculative execution (Hadoop's straggler mitigation): a
    /// slave with a free slot and no assignable task may launch a backup
    /// copy of the longest-running map; the first copy to finish wins.
    pub speculative: bool,
    /// A running map becomes a speculation candidate once its elapsed
    /// time exceeds this multiple of the job's mean completed-map
    /// runtime.
    pub speculative_threshold: f64,
    /// Blocks a degraded read downloads. `None` = the code's `k`
    /// (conventional RS). Set to a smaller count to model degraded-read
    /// optimized constructions such as Azure's LRC (paper footnote 1) —
    /// e.g. `Some(6)` for LRC(12,2,2)'s local-group repair.
    pub degraded_fetch_blocks: Option<usize>,
    /// Whether degraded reads fetch exactly their quorum or issue
    /// redundant extra fetches and cancel the stragglers once the
    /// quorum completes (the MDS-Queue redundant-request policy).
    pub fetch_policy: FetchPolicy,
    /// Heterogeneous per-node service speeds, sampled once at build on
    /// a dedicated rng stream. `Homogeneous` (the default) draws
    /// nothing, so existing seeds stay byte-identical.
    pub node_speeds: SpeedProfile,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            heartbeat_period: SimDuration::from_secs(3),
            block_bytes: 128 * 1024 * 1024,
            net: NetConfig::gigabit(),
            source_selection: SourceSelection::UniformRandom,
            reduce_slowstart: 0.05,
            task_time_floor: SimDuration::from_millis(100),
            max_events: 50_000_000,
            oob_heartbeats: false,
            log_network_utilization: false,
            speculative: false,
            speculative_threshold: 1.5,
            degraded_fetch_blocks: None,
            fetch_policy: FetchPolicy::Exact,
            node_speeds: SpeedProfile::Homogeneous,
        }
    }
}

impl EngineConfig {
    /// Rejects tunables that would silently corrupt a run: a NaN or
    /// out-of-range `reduce_slowstart` makes the slowstart comparison
    /// permanently false (reducers never launch), a zero
    /// `heartbeat_period` spins the calendar at one instant forever, a
    /// sub-1.0 `speculative_threshold` back-ups tasks that are ahead of
    /// the mean. The engine builder calls this; it is public so callers
    /// can fail fast when assembling configs from user input.
    pub fn validate(&self) -> Result<(), String> {
        if self.heartbeat_period == SimDuration::ZERO {
            return Err("heartbeat_period must be positive".into());
        }
        if self.block_bytes == 0 {
            return Err("block_bytes must be positive".into());
        }
        if !self.reduce_slowstart.is_finite() || !(0.0..=1.0).contains(&self.reduce_slowstart) {
            return Err(format!(
                "reduce_slowstart must be a finite fraction in [0, 1], got {}",
                self.reduce_slowstart
            ));
        }
        if !self.speculative_threshold.is_finite() || self.speculative_threshold < 1.0 {
            return Err(format!(
                "speculative_threshold must be finite and at least 1.0, got {}",
                self.speculative_threshold
            ));
        }
        if self.max_events == 0 {
            return Err("max_events must be positive".into());
        }
        if self.degraded_fetch_blocks == Some(0) {
            return Err("degraded_fetch_blocks must be at least 1".into());
        }
        if self.fetch_policy == (FetchPolicy::Redundant { extra: 0 }) {
            return Err("redundant fetch policy needs extra >= 1 (that is just exact)".into());
        }
        self.node_speeds.validate()?;
        Ok(())
    }
}

/// Errors constructing an [`Engine`].
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// Block placement failed.
    Placement(PlacementError),
    /// The native block count is not a multiple of `k`.
    Layout(String),
    /// A stripe lost more than `n − k` blocks; the file is unreadable.
    DataLoss {
        /// The unrecoverable stripe index.
        stripe: usize,
    },
    /// No jobs were submitted.
    NoJobs,
    /// Jobs have reduce tasks but the cluster has no live reduce slots.
    NoReduceSlots,
    /// A required builder field was not set.
    Missing(&'static str),
    /// An [`EngineConfig`] field is out of range (see
    /// [`EngineConfig::validate`]).
    Config(String),
    /// The failure scenario or timeline references nodes or racks the
    /// topology does not have.
    Failure(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Placement(e) => write!(f, "placement failed: {e}"),
            BuildError::Layout(e) => write!(f, "bad layout: {e}"),
            BuildError::DataLoss { stripe } => {
                write!(
                    f,
                    "stripe {stripe} is unrecoverable under this failure scenario"
                )
            }
            BuildError::NoJobs => write!(f, "no jobs submitted"),
            BuildError::NoReduceSlots => write!(f, "jobs need reduce slots but none are alive"),
            BuildError::Missing(what) => write!(f, "builder field not set: {what}"),
            BuildError::Config(msg) => write!(f, "invalid engine config: {msg}"),
            BuildError::Failure(msg) => write!(f, "invalid failure description: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Errors during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The event calendar drained with unfinished jobs (a scheduling
    /// deadlock — e.g. a policy that never assigns some task).
    Stalled {
        /// Simulated time at the stall.
        at: SimTime,
    },
    /// `max_events` exceeded.
    EventBudgetExceeded,
    /// A mid-run failure destroyed a stripe that an unfinished map still
    /// needs (the live counterpart of [`BuildError::DataLoss`]).
    DataLoss {
        /// The unrecoverable stripe index.
        stripe: usize,
        /// When the fatal failure struck.
        at: SimTime,
    },
    /// A degraded read could not be planned mid-run: churn left a
    /// stripe with fewer live survivors than the configured fetch
    /// count. (Build-time validation bounds the count by `n - 1`, but
    /// additional mid-run failures can shrink the survivor set below
    /// that.)
    DegradedPlan {
        /// Why planning failed.
        error: DegradedReadError,
        /// When the failed plan was attempted.
        at: SimTime,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Stalled { at } => {
                write!(f, "simulation stalled at {at} with unfinished jobs")
            }
            RunError::EventBudgetExceeded => write!(f, "event budget exceeded"),
            RunError::DataLoss { stripe, at } => {
                write!(f, "stripe {stripe} became unrecoverable at {at}")
            }
            RunError::DegradedPlan { error, at } => {
                write!(f, "degraded read planning failed at {at}: {error}")
            }
        }
    }
}

impl std::error::Error for RunError {}

#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Event {
    Heartbeat {
        node: NodeId,
        /// Periodic beats reschedule themselves; out-of-band beats do not.
        periodic: bool,
    },
    NetCheck,
    JobArrival(JobId),
    MapDone {
        job: JobId,
        task: MapTaskId,
        speculative: bool,
    },
    ReduceDone {
        job: JobId,
        index: usize,
    },
    /// A scheduled mid-run node failure (from the [`FailureTimeline`]).
    NodeFails(NodeId),
    /// A scheduled mid-run node recovery.
    NodeRecovers(NodeId),
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum FlowPurpose {
    MapFetch {
        job: JobId,
        task: MapTaskId,
        speculative: bool,
    },
    Shuffle {
        job: JobId,
        reduce: usize,
        /// Which map's intermediate output the flow carries — needed to
        /// invalidate in-flight copies when the output's node fails.
        map: MapTaskId,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct MapRt {
    pub(crate) block: ecstore::BlockRef,
    pub(crate) holder: NodeId,
    pub(crate) degraded: bool,
    /// The live attempts, indexed by the `speculative` flag: the primary
    /// in slot 0, its speculative backup in slot 1. A finished map holds
    /// neither.
    pub(crate) attempts: [Option<Attempt>; 2],
    /// True once either attempt finished.
    pub(crate) done: bool,
}

#[derive(Debug, Clone)]
struct RedRt {
    assigned_to: Option<NodeId>,
    assigned_at: SimTime,
    shuffles_done: usize,
    /// Which maps' outputs have arrived (indexed by map task id); the
    /// count in `shuffles_done` is derived from it. Kept per-map so a
    /// node failure can claw back exactly the lost outputs.
    shuffled: Vec<bool>,
    input_ready_at: SimTime,
    processing: bool,
    /// Scheduled completion while processing (for churn cancellation).
    proc_event: Option<simkit::EventId>,
    done: bool,
}

#[derive(Debug)]
pub(crate) struct JobRt {
    pub(crate) id: JobId,
    pub(crate) spec: JobSpec,
    pub(crate) submitted: bool,
    pub(crate) started_at: Option<SimTime>,
    pub(crate) finished_at: Option<SimTime>,
    pub(crate) maps: Vec<MapRt>,
    /// Unassigned normal tasks, pooled by the node holding their block.
    pub(crate) normal: NormalPools,
    /// Unassigned degraded tasks.
    pub(crate) degraded_pool: Vec<MapTaskId>,
    pub(crate) launched_maps: usize,
    pub(crate) launched_degraded: usize,
    pub(crate) completed_maps: usize,
    /// Sum of completed map runtimes in seconds (speculation threshold).
    pub(crate) completed_map_runtime_secs: f64,
    reduces: Vec<RedRt>,
    next_reduce: usize,
    completed_reduces: usize,
    /// Reducers whose node failed mid-run, waiting for re-assignment
    /// ahead of never-launched ones (they bypass slowstart — they
    /// already passed it once).
    requeued_reduces: Vec<usize>,
    /// `(map, executing node, runtime secs)` of completed maps, for
    /// late-assigned reducers to fetch from; the runtime lets a node
    /// failure reverse the completion bookkeeping exactly.
    completed_map_outputs: Vec<(MapTaskId, NodeId, f64)>,
}

impl JobRt {
    fn is_finished(&self) -> bool {
        self.finished_at.is_some()
    }

    fn shuffle_bytes_per_reducer(&self, block_bytes: u64) -> u64 {
        if self.spec.num_reduce_tasks == 0 {
            return 0;
        }
        ((self.spec.shuffle_ratio * block_bytes as f64) / self.spec.num_reduce_tasks as f64).round()
            as u64
    }
}

/// Builds an [`Engine`]. See the [crate docs](crate) for an example.
pub struct EngineBuilder<'a> {
    topo: Topology,
    code: Option<(CodeParams, usize)>,
    placement: Option<&'a dyn PlacementPolicy>,
    failure: FailureScenario,
    timeline: FailureTimeline,
    config: EngineConfig,
    seed: u64,
    jobs: Vec<JobSpec>,
}

/// Placement stream label: block placement draws its randomness from
/// a dedicated fork of the seed root (DESIGN.md §9, R1), so placement
/// is a pure function of the seed regardless of what the engine or
/// speed sampling consumes. Values are frozen — goldens replay them.
const PLACEMENT_STREAM: u64 = 1;
/// Engine stream label: the scheduler/engine sampling sequence.
const TASK_STREAM: u64 = 2;
/// Node-speed stream label: heterogeneous speed profiles sample here,
/// so enabling a profile never perturbs placement or task sampling.
const SPEED_STREAM: u64 = 3;

impl<'a> EngineBuilder<'a> {
    /// Sets the `(n, k)` code and the native block count `F`.
    pub fn code(mut self, params: CodeParams, num_native: usize) -> Self {
        self.code = Some((params, num_native));
        self
    }

    /// Sets the placement policy.
    pub fn placement(mut self, policy: &'a dyn PlacementPolicy) -> Self {
        self.placement = Some(policy);
        self
    }

    /// Sets the failure scenario (default: normal mode).
    pub fn failure(mut self, scenario: FailureScenario) -> Self {
        self.failure = scenario;
        self
    }

    /// Sets the mid-run failure timeline (default: no churn). Composes
    /// with [`EngineBuilder::failure`]: the scenario fixes the t=0
    /// state, the timeline changes it while the run is in flight.
    /// Timeline entries at exactly t=0 are folded into the initial
    /// state, so a timeline that only fails nodes at time zero behaves
    /// bit-for-bit like the equivalent scenario.
    pub fn timeline(mut self, timeline: FailureTimeline) -> Self {
        self.timeline = timeline;
        self
    }

    /// Sets the engine configuration.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the run seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds one job to the FIFO queue.
    pub fn job(mut self, spec: JobSpec) -> Self {
        self.jobs.push(spec);
        self
    }

    /// Adds several jobs.
    pub fn jobs(mut self, specs: impl IntoIterator<Item = JobSpec>) -> Self {
        self.jobs.extend(specs);
        self
    }

    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// See [`BuildError`] — notably [`BuildError::DataLoss`] when the
    /// failure scenario destroys a stripe.
    pub fn build(self) -> Result<Engine, BuildError> {
        self.config.validate().map_err(BuildError::Config)?;
        self.failure
            .validate(&self.topo)
            .map_err(|e| BuildError::Failure(e.to_string()))?;
        self.timeline
            .validate(&self.topo)
            .map_err(|e| BuildError::Failure(e.to_string()))?;
        let (params, num_native) = self.code.ok_or(BuildError::Missing("code"))?;
        // A stripe that lost its read target keeps at most n - 1 live
        // blocks, so any larger fetch count can never be satisfied.
        if let Some(fetch) = self.config.degraded_fetch_blocks {
            let ceiling = params.n() - 1;
            if fetch > ceiling {
                return Err(BuildError::Config(format!(
                    "degraded_fetch_blocks {fetch} exceeds the n - 1 = {ceiling} survivor \
                     ceiling of the ({}, {}) code",
                    params.n(),
                    params.k()
                )));
            }
        }
        let policy = self.placement.ok_or(BuildError::Missing("placement"))?;
        if self.jobs.is_empty() {
            return Err(BuildError::NoJobs);
        }
        // Specs may come from replayed (possibly hand-edited) arrival
        // traces, so field validation happens here, not in the builder.
        for (i, spec) in self.jobs.iter().enumerate() {
            spec.validate()
                .map_err(|msg| BuildError::Config(format!("job {i} ({:?}): {msg}", spec.name)))?;
        }
        let layout =
            StripeLayout::new(params, num_native).map_err(|e| BuildError::Layout(e.to_string()))?;
        let mut root = SimRng::seed_from_u64(self.seed);
        let mut placement_rng = root.fork(PLACEMENT_STREAM);
        let rng = root.fork(TASK_STREAM);
        // Speeds get their own stream so enabling a profile never
        // perturbs placement or the engine's sampling sequence;
        // `Homogeneous` draws nothing at all.
        let speeds = self
            .config
            .node_speeds
            .sample(self.topo.num_nodes(), &mut root.fork(SPEED_STREAM));
        let store = BlockStore::place(&self.topo, layout, policy, &mut placement_rng)
            .map_err(BuildError::Placement)?;
        let mut cstate = ClusterState::from_scenario(&self.topo, &self.failure);
        // Timeline entries at t=0 are initial conditions, not mid-run
        // churn: fold them into the starting state (in insertion order)
        // so they behave exactly like the scenario path.
        let mut timeline: Vec<TimelineEvent> = Vec::new();
        for ev in self.timeline.events() {
            if ev.at == SimTime::ZERO {
                match ev.kind {
                    FailureEventKind::Fail => cstate.fail_node(ev.node),
                    FailureEventKind::Recover => cstate.recover_node(ev.node),
                }
            } else {
                timeline.push(*ev);
            }
        }

        // In failure mode every stripe must still be recoverable.
        for s in 0..store.layout().num_stripes() {
            let stripe = ecstore::StripeId(s as u32);
            if !store.is_recoverable(stripe, &cstate) {
                return Err(BuildError::DataLoss { stripe: s });
            }
        }

        let live_reduce_slots: u32 = cstate
            .alive_nodes()
            .iter()
            .map(|&n| self.topo.spec(n).reduce_slots)
            .sum();
        if self.jobs.iter().any(|j| j.num_reduce_tasks > 0) && live_reduce_slots == 0 {
            return Err(BuildError::NoReduceSlots);
        }

        let num_nodes = self.topo.num_nodes();
        let jobs: Vec<JobRt> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let id = JobId(i as u32);
                let mut maps = Vec::with_capacity(store.layout().num_native());
                let mut node_local_pool = vec![Vec::new(); num_nodes];
                let mut degraded_pool = Vec::new();
                for (t, block) in store.layout().native_blocks().enumerate() {
                    let holder = store.node_of(block);
                    let degraded = !cstate.is_alive(holder);
                    if degraded {
                        degraded_pool.push(MapTaskId(t));
                    } else {
                        node_local_pool[holder.index()].push(MapTaskId(t));
                    }
                    maps.push(MapRt {
                        block,
                        holder,
                        degraded,
                        attempts: [None, None],
                        done: false,
                    });
                }
                let num_maps = maps.len();
                JobRt {
                    id,
                    spec: spec.clone(),
                    submitted: false,
                    started_at: None,
                    finished_at: None,
                    maps,
                    normal: NormalPools::new(&self.topo, node_local_pool),
                    degraded_pool,
                    launched_maps: 0,
                    launched_degraded: 0,
                    completed_maps: 0,
                    completed_map_runtime_secs: 0.0,
                    reduces: vec![
                        RedRt {
                            assigned_to: None,
                            assigned_at: SimTime::ZERO,
                            shuffles_done: 0,
                            shuffled: vec![false; num_maps],
                            input_ready_at: SimTime::ZERO,
                            processing: false,
                            proc_event: None,
                            done: false,
                        };
                        spec.num_reduce_tasks
                    ],
                    next_reduce: 0,
                    completed_reduces: 0,
                    requeued_reduces: Vec::new(),
                    completed_map_outputs: Vec::new(),
                }
            })
            .collect();

        let free_map: Vec<u32> = self
            .topo
            .node_ids()
            .map(|n| {
                if cstate.is_alive(n) {
                    self.topo.spec(n).map_slots
                } else {
                    0
                }
            })
            .collect();
        let free_reduce: Vec<u32> = self
            .topo
            .node_ids()
            .map(|n| {
                if cstate.is_alive(n) {
                    self.topo.spec(n).reduce_slots
                } else {
                    0
                }
            })
            .collect();

        let mut net = Network::tagged(&self.topo.rack_sizes(), self.config.net);
        if self.config.log_network_utilization {
            net.enable_utilization_log();
        }
        let num_racks = self.topo.num_racks();
        let num_jobs = jobs.len();
        Ok(Engine {
            topo: self.topo,
            store,
            cstate,
            cfg: self.config,
            speeds,
            rng,
            net,
            cal: Calendar::new(),
            now: SimTime::ZERO,
            jobs,
            unfinished_jobs: num_jobs,
            fifo: Vec::new(),
            free_map,
            free_reduce,
            drained: Vec::new(),
            last_degraded_assign: vec![None; num_racks],
            net_check: None,
            records: Vec::new(),
            tasks_queued_degraded: 0,
            events_processed: 0,
            obs_job_started: vec![false; num_jobs],
            timeline,
            hb_active: vec![false; num_nodes],
            fatal: None,
        })
    }
}

/// The discrete event MapReduce simulator. Construct with
/// [`Engine::builder`], consume with [`Engine::run`].
pub struct Engine {
    pub(crate) topo: Topology,
    pub(crate) store: BlockStore,
    pub(crate) cstate: ClusterState,
    pub(crate) cfg: EngineConfig,
    /// Per-node cpu/disk multipliers sampled from `cfg.node_speeds`.
    pub(crate) speeds: NodeSpeeds,
    pub(crate) rng: SimRng,
    /// Every flow is tagged with what it carries.
    pub(crate) net: Network<FlowPurpose>,
    pub(crate) cal: Calendar<Event>,
    pub(crate) now: SimTime,
    pub(crate) jobs: Vec<JobRt>,
    /// Jobs without `finished_at`; the run ends when it reaches zero.
    unfinished_jobs: usize,
    /// Submitted, unfinished jobs in FIFO order.
    pub(crate) fifo: Vec<JobId>,
    pub(crate) free_map: Vec<u32>,
    free_reduce: Vec<u32>,
    /// The flows of the drain being handled, FlowId-sorted. A flow
    /// cancelled while its completion waits here loses its purpose, so
    /// the completion is skipped.
    drained: Vec<(FlowId, Option<FlowPurpose>)>,
    pub(crate) last_degraded_assign: Vec<Option<SimTime>>,
    net_check: Option<(simkit::EventId, SimTime)>,
    records: Vec<TaskRecord>,
    /// [`RunResult::tasks_queued_degraded`], bumped wherever a
    /// `TaskQueued { degraded: true }` event is (or would be) emitted.
    pub(crate) tasks_queued_degraded: usize,
    events_processed: u64,
    /// Jobs whose `JobStarted` trace event has been emitted (tracing only).
    pub(crate) obs_job_started: Vec<bool>,
    /// Mid-run churn still to schedule (t=0 entries were folded into
    /// `cstate` at build time).
    timeline: Vec<TimelineEvent>,
    /// Whether a periodic heartbeat chain is live per node. A beat that
    /// fires on a dead node ends its chain; recovery restarts it only
    /// if no stale chain survived the outage.
    hb_active: Vec<bool>,
    /// A fatal condition detected inside an event handler (mid-run data
    /// loss); the main loop aborts with it after the handler returns.
    pub(crate) fatal: Option<RunError>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("nodes", &self.topo.num_nodes())
            .field("jobs", &self.jobs.len())
            .field("events_processed", &self.events_processed)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Starts building an engine for the given topology.
    pub fn builder<'a>(topo: Topology) -> EngineBuilder<'a> {
        EngineBuilder {
            topo,
            code: None,
            placement: None,
            failure: FailureScenario::none(),
            timeline: FailureTimeline::new(),
            config: EngineConfig::default(),
            seed: 0,
            jobs: Vec::new(),
        }
    }

    /// The placed block store.
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The failure-mode cluster state.
    pub fn cluster_state(&self) -> &ClusterState {
        &self.cstate
    }

    /// Runs the simulation to completion under `scheduler`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Stalled`] if a policy deadlocks the run, or
    /// [`RunError::EventBudgetExceeded`] past `max_events`.
    pub fn run(self, scheduler: Box<dyn MapScheduler>) -> Result<RunResult, RunError> {
        self.run_inner(scheduler, Recorder::off())
    }

    /// Like [`Engine::run`], but streams every structured
    /// [`SimEvent`] of the run into `sink`. The returned
    /// [`RunResult`] is identical to an untraced run with the same
    /// seed and configuration.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::run`].
    pub fn run_traced(
        self,
        scheduler: Box<dyn MapScheduler>,
        sink: &mut dyn EventSink,
    ) -> Result<RunResult, RunError> {
        self.run_inner(scheduler, Recorder::on(sink))
    }

    fn run_inner(
        mut self,
        mut scheduler: Box<dyn MapScheduler>,
        mut rec: Recorder<'_>,
    ) -> Result<RunResult, RunError> {
        if rec.is_enabled() {
            self.net.enable_flow_log();
            for node in self.topo.node_ids() {
                if !self.cstate.is_alive(node) {
                    rec.emit(SimTime::ZERO, || SimEvent::NodeFailed { node: node.0 });
                }
            }
        }
        // Initial heartbeats, de-phased across the period so slaves do
        // not all report at once. The offsets ascend and every later
        // periodic beat is one period after the instant it is scheduled
        // at, so the whole periodic chain goes through the calendar's
        // in-order lane.
        let alive = self.cstate.alive_nodes();
        let n = alive.len().max(1) as u64;
        for (i, node) in alive.iter().enumerate() {
            let offset = SimDuration::from_micros(
                self.cfg.heartbeat_period.as_micros() * (i as u64 + 1) / n,
            );
            self.hb_active[node.index()] = true;
            self.cal.schedule_in_order(
                SimTime::ZERO + offset,
                Event::Heartbeat {
                    node: *node,
                    periodic: true,
                },
            );
        }
        for job in &self.jobs {
            self.cal
                .schedule(job.spec.submit_at, Event::JobArrival(job.id));
        }
        for ev in std::mem::take(&mut self.timeline) {
            let event = match ev.kind {
                FailureEventKind::Fail => Event::NodeFails(ev.node),
                FailureEventKind::Recover => Event::NodeRecovers(ev.node),
            };
            self.cal.schedule(ev.at, event);
        }

        while let Some((t, _, ev)) = self.cal.pop() {
            debug_assert!(t >= self.now, "event time went backwards");
            self.now = t;
            self.events_processed += 1;
            if self.events_processed > self.cfg.max_events {
                return Err(RunError::EventBudgetExceeded);
            }
            match ev {
                Event::Heartbeat { node, periodic } => {
                    self.on_heartbeat(node, periodic, scheduler.as_mut(), &mut rec)
                }
                Event::NetCheck => self.on_net_check(&mut rec),
                Event::JobArrival(job) => {
                    let j = &mut self.jobs[job.index()];
                    j.submitted = true;
                    self.tasks_queued_degraded += j.maps.iter().filter(|m| m.degraded).count();
                    self.fifo.push(job);
                    if rec.is_enabled() {
                        let j = &self.jobs[job.index()];
                        let (maps, reduces) = (j.maps.len() as u32, j.spec.num_reduce_tasks as u32);
                        rec.emit(self.now, || SimEvent::JobSubmitted {
                            job: job.0,
                            maps,
                            reduces,
                        });
                        for (idx, m) in self.jobs[job.index()].maps.iter().enumerate() {
                            rec.emit(self.now, || SimEvent::TaskQueued {
                                job: job.0,
                                task: idx as u32,
                                degraded: m.degraded,
                            });
                        }
                    }
                }
                Event::MapDone {
                    job,
                    task,
                    speculative,
                } => self.on_map_done(job, task, speculative, &mut rec),
                Event::ReduceDone { job, index } => self.on_reduce_done(job, index, &mut rec),
                Event::NodeFails(node) => self.on_node_fails(node, &mut rec),
                Event::NodeRecovers(node) => self.on_node_recovers(node, &mut rec),
            }
            self.net
                .drain_flow_log(|entry| rec.emit(entry.at, || flow_log_event(&entry)));
            if let Some(err) = self.fatal.take() {
                return Err(err);
            }
            if self.unfinished_jobs == 0 {
                debug_assert!(
                    self.topo.node_ids().all(|n| !self.cstate.is_alive(n)
                        || (self.free_map[n.index()] == self.topo.spec(n).map_slots
                            && self.free_reduce[n.index()] == self.topo.spec(n).reduce_slots)),
                    "a live node did not get all its slots back by the end of the run"
                );
                let makespan = self.now.duration_since(SimTime::ZERO);
                let jobs = self
                    .jobs
                    .iter()
                    .map(|j| JobResult {
                        id: j.id,
                        name: j.spec.name.clone(),
                        submitted_at: j.spec.submit_at,
                        started_at: j.started_at.expect("finished job started"),
                        finished_at: j.finished_at.expect("finished job has end"),
                    })
                    .collect();
                return Ok(RunResult {
                    jobs,
                    tasks: std::mem::take(&mut self.records),
                    makespan,
                    utilization: self.net.utilization_log().to_vec(),
                    tasks_queued_degraded: self.tasks_queued_degraded,
                });
            }
        }
        Err(RunError::Stalled { at: self.now })
    }

    // ---- event handlers ------------------------------------------------

    fn on_heartbeat(
        &mut self,
        slave: NodeId,
        periodic: bool,
        scheduler: &mut dyn MapScheduler,
        rec: &mut Recorder<'_>,
    ) {
        if !self.cstate.is_alive(slave) {
            // The node died after this beat was scheduled. The periodic
            // chain ends here; `on_node_recovers` restarts it unless a
            // still-scheduled beat survived the outage.
            if periodic {
                self.hb_active[slave.index()] = false;
            }
            return;
        }
        let assigned = {
            let mut hb = Heartbeat::new(self, slave);
            scheduler.assign_maps(&mut hb);
            hb.into_assigned()
        };
        for (job, task) in assigned {
            self.start_map_task(job, task, rec);
        }
        self.assign_reduces(slave, rec);
        if self.cfg.speculative {
            self.assign_speculative(slave, rec);
        }
        // Keep the periodic chain alive while any job is unfinished;
        // out-of-band beats are one-shot.
        if periodic && self.unfinished_jobs > 0 {
            self.cal.schedule_in_order(
                self.now + self.cfg.heartbeat_period,
                Event::Heartbeat {
                    node: slave,
                    periodic: true,
                },
            );
        }
        self.refresh_net_check();
    }

    fn on_net_check(&mut self, rec: &mut Recorder<'_>) {
        self.net_check = None;
        let drained = &mut self.drained;
        self.net.drain_tagged(self.now, |flow, _, purpose| {
            drained.push((flow, Some(purpose)))
        });
        for i in 0..self.drained.len() {
            let Some(purpose) = self.drained[i].1 else {
                continue;
            };
            match purpose {
                FlowPurpose::MapFetch {
                    job,
                    task,
                    speculative,
                } => {
                    let ready = {
                        let a = self.jobs[job.index()].maps[task.0].attempt_mut(speculative);
                        a.pending_flows = a
                            .pending_flows
                            .checked_sub(1)
                            .expect("a fetch completion after its attempt's quorum");
                        a.pending_flows == 0
                    };
                    if ready {
                        // Quorum reached: any still-in-flight redundant
                        // fetches are now stragglers — cancel them so
                        // their bandwidth returns to the fair-share pool.
                        self.input_ready(job, task, speculative, rec);
                    }
                }
                FlowPurpose::Shuffle { job, reduce, map } => {
                    let ready = {
                        let j = &mut self.jobs[job.index()];
                        let r = &mut j.reduces[reduce];
                        if !r.shuffled[map.0] {
                            r.shuffled[map.0] = true;
                            r.shuffles_done += 1;
                        }
                        r.shuffles_done == j.maps.len() && !r.processing
                    };
                    if ready {
                        self.start_reduce_processing(job, reduce, rec);
                    }
                }
            }
        }
        self.drained.clear();
        self.refresh_net_check();
    }

    /// Cancels an engine-owned flow; true if it was still in flight. A
    /// flow whose completion waits in the drain being handled has
    /// delivered already: it is not cancelled, but its completion is
    /// dropped.
    pub(crate) fn cancel_flow(&mut self, flow: FlowId) -> bool {
        if self.net.cancel_tagged(self.now, flow).is_some() {
            return true;
        }
        if let Ok(i) = self.drained.binary_search_by_key(&flow, |&(f, _)| f) {
            self.drained[i].1 = None;
        }
        false
    }

    fn on_map_done(
        &mut self,
        job: JobId,
        task: MapTaskId,
        speculative: bool,
        rec: &mut Recorder<'_>,
    ) {
        // The attempt that finishes first wins; the loser, if any, dies.
        // A mid-run node failure can kill either attempt and leave the
        // other running alone.
        let (node, degraded, record, has_loser) = {
            let j = &mut self.jobs[job.index()];
            let m = &mut j.maps[task.0];
            debug_assert!(!m.done, "stale MapDone after a winner");
            m.done = true;
            let winner = m.attempts[usize::from(speculative)]
                .take()
                .expect("winning attempt is live");
            let has_loser = m.attempts[usize::from(!speculative)].is_some();
            j.completed_maps += 1;
            let runtime = self.now.duration_since(winner.assigned_at).as_secs_f64();
            j.completed_map_runtime_secs += runtime;
            j.completed_map_outputs.push((task, winner.node, runtime));
            let record = TaskRecord {
                job,
                detail: TaskDetail::Map {
                    block: m.block,
                    locality: winner.locality,
                },
                node: winner.node,
                assigned_at: winner.assigned_at,
                input_ready_at: winner.input_ready_at,
                completed_at: self.now,
            };
            (winner.node, m.degraded, record, has_loser)
        };
        if degraded {
            rec.emit(self.now, || SimEvent::PhaseEnd {
                job: job.0,
                task: task.0 as u32,
                node: node.0,
                speculative,
                phase: DegradedPhase::Process,
            });
        }
        let locality = record.map_locality().expect("map record has locality");
        rec.emit(self.now, || SimEvent::MapDone {
            job: job.0,
            task: task.0 as u32,
            node: node.0,
            locality: obs_locality(locality),
            speculative,
        });
        self.records.push(record);
        self.free_map[node.index()] += 1;
        if has_loser {
            self.kill_attempt(job, task, !speculative, None, rec);
        }
        if self.cfg.oob_heartbeats {
            self.cal.schedule(
                self.now,
                Event::Heartbeat {
                    node,
                    periodic: false,
                },
            );
        }

        // Feed assigned reducers with this map's output (batched: one
        // rate reallocation for the whole fan-out). Reducers that are
        // already processing or done — possible only when churn re-ran
        // this map — no longer need it, nor do ones that received a
        // previous copy.
        let j = &self.jobs[job.index()];
        let bytes = j.shuffle_bytes_per_reducer(self.cfg.block_bytes);
        let shuffles = j
            .reduces
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.done && !r.processing && !r.shuffled[task.0])
            .filter_map(|(reduce, r)| {
                let rnode = r.assigned_to?;
                let purpose = FlowPurpose::Shuffle {
                    job,
                    reduce,
                    map: task,
                };
                Some((node.index(), rnode.index(), bytes, purpose))
            });
        self.net.start_tagged(self.now, shuffles);

        // Map-only jobs finish with their last map.
        let j = &self.jobs[job.index()];
        if j.spec.is_map_only() && j.completed_maps == j.maps.len() {
            self.finish_job(job, rec);
        }
        self.refresh_net_check();
    }

    fn on_reduce_done(&mut self, job: JobId, index: usize, rec: &mut Recorder<'_>) {
        let record = {
            let j = &mut self.jobs[job.index()];
            let r = &mut j.reduces[index];
            r.done = true;
            r.proc_event = None;
            j.completed_reduces += 1;
            let r = &j.reduces[index];
            TaskRecord {
                job,
                detail: TaskDetail::Reduce { index },
                node: r.assigned_to.expect("completed reduce was assigned"),
                assigned_at: r.assigned_at,
                input_ready_at: r.input_ready_at,
                completed_at: self.now,
            }
        };
        let node = record.node;
        rec.emit(self.now, || SimEvent::ReduceDone {
            job: job.0,
            index: index as u32,
            node: node.0,
        });
        self.records.push(record);
        self.free_reduce[node.index()] += 1;
        if self.cfg.oob_heartbeats {
            self.cal.schedule(
                self.now,
                Event::Heartbeat {
                    node,
                    periodic: false,
                },
            );
        }
        let j = &self.jobs[job.index()];
        if j.completed_reduces == j.reduces.len() {
            self.finish_job(job, rec);
        }
    }

    fn finish_job(&mut self, job: JobId, rec: &mut Recorder<'_>) {
        let j = &mut self.jobs[job.index()];
        debug_assert!(j.finished_at.is_none(), "job finished twice");
        j.finished_at = Some(self.now);
        self.unfinished_jobs -= 1;
        self.fifo.retain(|&id| id != job);
        rec.emit(self.now, || SimEvent::JobFinished { job: job.0 });
    }

    // ---- mid-run churn ---------------------------------------------------

    /// A node drops out mid-run: its slots vanish, every attempt running
    /// on it (or fetching from it) dies, its unassigned node-local tasks
    /// become degraded, reducers on it re-queue, and completed map
    /// outputs stored on it are invalidated (re-running those maps if a
    /// reducer still needs them).
    fn on_node_fails(&mut self, node: NodeId, rec: &mut Recorder<'_>) {
        if !self.cstate.is_alive(node) {
            return; // duplicate timeline entry; already down
        }
        self.cstate.fail_node(node);
        rec.emit(self.now, || SimEvent::NodeFailed { node: node.0 });
        self.free_map[node.index()] = 0;
        self.free_reduce[node.index()] = 0;
        let unfinished: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|j| !j.is_finished())
            .map(|j| j.id)
            .collect();
        for job in unfinished {
            self.fail_unassigned_maps(job, node, rec);
            self.kill_map_attempts(job, node, rec);
            self.kill_reduces(job, node);
            self.invalidate_map_outputs(job, node, rec);
        }
        // An input block that can no longer be reconstructed is fatal:
        // the run cannot finish. (Checked after invalidation, which may
        // have turned completed maps back into pending ones.)
        for j in &self.jobs {
            if j.is_finished() {
                continue;
            }
            for m in &j.maps {
                if !m.done && !self.store.is_recoverable(m.block.stripe, &self.cstate) {
                    self.fatal = Some(RunError::DataLoss {
                        stripe: m.block.stripe.0 as usize,
                        at: self.now,
                    });
                    return;
                }
            }
        }
        self.refresh_net_check();
    }

    /// A node rejoins with its data intact (background repair
    /// re-protected its blocks while it was away): slots come back,
    /// degraded tasks whose input block it holds become node-local
    /// again, and its heartbeat chain restarts.
    fn on_node_recovers(&mut self, node: NodeId, rec: &mut Recorder<'_>) {
        if self.cstate.is_alive(node) {
            return; // duplicate timeline entry; already up
        }
        self.cstate.recover_node(node);
        rec.emit(self.now, || SimEvent::NodeRecovered { node: node.0 });
        self.free_map[node.index()] = self.topo.spec(node).map_slots;
        self.free_reduce[node.index()] = self.topo.spec(node).reduce_slots;
        let now = self.now;
        for i in 0..self.jobs.len() {
            if self.jobs[i].is_finished() {
                continue;
            }
            let (restored, submitted) = {
                let j = &mut self.jobs[i];
                let mut restored = Vec::new();
                let mut keep = Vec::new();
                for task in std::mem::take(&mut j.degraded_pool) {
                    if j.maps[task.0].holder == node {
                        restored.push(task);
                    } else {
                        keep.push(task);
                    }
                }
                j.degraded_pool = keep;
                for &task in &restored {
                    j.maps[task.0].degraded = false;
                    j.normal.push(&self.topo, node, task);
                }
                (restored, j.submitted)
            };
            if submitted {
                let job = self.jobs[i].id;
                for task in restored {
                    rec.emit(now, || SimEvent::TaskQueued {
                        job: job.0,
                        task: task.0 as u32,
                        degraded: false,
                    });
                }
            }
        }
        if !self.hb_active[node.index()] && self.unfinished_jobs > 0 {
            self.hb_active[node.index()] = true;
            self.cal.schedule(
                self.now,
                Event::Heartbeat {
                    node,
                    periodic: true,
                },
            );
        }
    }

    /// Reducers on the failed node lose everything they shuffled; they
    /// re-queue ahead of never-launched reducers.
    fn kill_reduces(&mut self, job: JobId, node: NodeId) {
        let num_reduces = self.jobs[job.index()].reduces.len();
        for idx in 0..num_reduces {
            {
                let r = &self.jobs[job.index()].reduces[idx];
                if r.done || r.assigned_to != Some(node) {
                    continue;
                }
            }
            self.cancel_shuffles(|fj, reduce, _| fj == job && reduce == idx);
            let j = &mut self.jobs[job.index()];
            let r = &mut j.reduces[idx];
            r.assigned_to = None;
            r.shuffles_done = 0;
            r.shuffled.fill(false);
            r.processing = false;
            if let Some(ev) = r.proc_event.take() {
                self.cal.cancel(ev);
            }
            j.requeued_reduces.push(idx);
        }
    }

    /// Completed map outputs stored on the failed node are gone. If any
    /// reducer still needs them, the maps must run again; reducers that
    /// are already processing (or done) hold their own copy and are
    /// unaffected.
    fn invalidate_map_outputs(&mut self, job: JobId, node: NodeId, rec: &mut Recorder<'_>) {
        let needed = {
            let j = &self.jobs[job.index()];
            j.spec.num_reduce_tasks > 0 && j.reduces.iter().any(|r| !r.done && !r.processing)
        };
        if !needed {
            return;
        }
        let lost: Vec<(MapTaskId, f64)> = {
            let j = &mut self.jobs[job.index()];
            let lost = j
                .completed_map_outputs
                .iter()
                .filter(|&&(_, out, _)| out == node)
                .map(|&(t, _, rt)| (t, rt))
                .collect();
            j.completed_map_outputs.retain(|&(_, out, _)| out != node);
            lost
        };
        for (task, runtime) in lost {
            // In-flight copies of this output can never finish.
            self.cancel_shuffles(|fj, _, map| fj == job && map == task);
            {
                let j = &mut self.jobs[job.index()];
                for r in j.reduces.iter_mut() {
                    if !r.done && !r.processing && r.shuffled[task.0] {
                        r.shuffled[task.0] = false;
                        r.shuffles_done -= 1;
                    }
                }
                // Reverse the completion bookkeeping exactly (the stored
                // runtime keeps the speculation threshold consistent).
                j.completed_maps -= 1;
                j.completed_map_runtime_secs -= runtime;
                let m = &mut j.maps[task.0];
                debug_assert!(m.attempts.iter().all(Option::is_none));
                m.done = false;
            }
            self.requeue_map(job, task, rec);
        }
    }

    /// Cancels the in-flight shuffle flows whose `(job, reduce, map)`
    /// matches, in FlowId order.
    fn cancel_shuffles(&mut self, matches: impl Fn(JobId, usize, MapTaskId) -> bool) {
        let mut flows: Vec<FlowId> = self
            .net
            .flows()
            .filter(|(_, p)| {
                matches!(**p, FlowPurpose::Shuffle { job, reduce, map } if matches(job, reduce, map))
            })
            .map(|(f, _)| f)
            .collect();
        flows.sort_unstable();
        self.cancel_attempt_flows(flows);
    }

    fn start_reduce_processing(&mut self, job: JobId, reduce: usize, rec: &mut Recorder<'_>) {
        let (mean, std) = {
            let spec = &self.jobs[job.index()].spec;
            (spec.reduce_time_mean, spec.reduce_time_std)
        };
        let node = {
            let r = &mut self.jobs[job.index()].reduces[reduce];
            r.processing = true;
            r.input_ready_at = self.now;
            r.assigned_to.expect("processing an assigned reduce")
        };
        rec.emit(self.now, || SimEvent::ReduceShuffled {
            job: job.0,
            index: reduce as u32,
            node: node.0,
        });
        let duration = self.sample_task_time(mean, std, node);
        let ev = self.cal.schedule(
            self.now + duration,
            Event::ReduceDone { job, index: reduce },
        );
        self.jobs[job.index()].reduces[reduce].proc_event = Some(ev);
    }

    pub(crate) fn sample_task_time(
        &mut self,
        mean: SimDuration,
        std: SimDuration,
        node: NodeId,
    ) -> SimDuration {
        let base = self
            .rng
            .normal_duration(mean, std, self.cfg.task_time_floor);
        let speed = self.topo.spec(node).speed_factor * self.speeds.cpu[node.index()];
        SimDuration::from_secs_f64(base.as_secs_f64() / speed)
    }

    fn assign_reduces(&mut self, slave: NodeId, rec: &mut Recorder<'_>) {
        while self.free_reduce[slave.index()] > 0 {
            // First FIFO job with a churn-orphaned reducer (these bypass
            // slowstart — they already passed it once) or an unassigned
            // reducer past slowstart.
            let candidate = self.fifo.iter().copied().find(|&id| {
                let j = &self.jobs[id.index()];
                !j.requeued_reduces.is_empty()
                    || (j.next_reduce < j.reduces.len()
                        && (j.completed_maps as f64)
                            >= self.cfg.reduce_slowstart * j.maps.len() as f64)
            });
            let Some(job) = candidate else { break };
            let (reduce, bytes) = {
                let j = &mut self.jobs[job.index()];
                let reduce = if j.requeued_reduces.is_empty() {
                    let r = j.next_reduce;
                    j.next_reduce += 1;
                    r
                } else {
                    j.requeued_reduces.remove(0)
                };
                let r = &mut j.reduces[reduce];
                r.assigned_to = Some(slave);
                r.assigned_at = self.now;
                (reduce, j.shuffle_bytes_per_reducer(self.cfg.block_bytes))
            };
            self.free_reduce[slave.index()] -= 1;
            rec.emit(self.now, || SimEvent::ReduceLaunched {
                job: job.0,
                index: reduce as u32,
                node: slave.0,
            });
            // Fetch output of already-completed maps (batched).
            let shuffles =
                self.jobs[job.index()]
                    .completed_map_outputs
                    .iter()
                    .map(|&(map, from, _)| {
                        let purpose = FlowPurpose::Shuffle { job, reduce, map };
                        (from.index(), slave.index(), bytes, purpose)
                    });
            self.net.start_tagged(self.now, shuffles);
            // A reducer of a job with zero maps shuffled would be ready
            // immediately; jobs always have maps, so nothing to do here.
        }
        self.refresh_net_check();
    }

    pub(crate) fn refresh_net_check(&mut self) {
        let next = self.net.next_completion();
        match (self.net_check, next) {
            (Some((_, at)), Some(want)) if at == want => {}
            (Some((id, _)), Some(want)) => {
                self.cal.cancel(id);
                let id = self.cal.schedule(want, Event::NetCheck);
                self.net_check = Some((id, want));
            }
            (Some((id, _)), None) => {
                self.cal.cancel(id);
                self.net_check = None;
            }
            (None, Some(want)) => {
                let id = self.cal.schedule(want, Event::NetCheck);
                self.net_check = Some((id, want));
            }
            (None, None) => {}
        }
    }

    // ---- scheduler-facing helpers (used by `sched::Heartbeat`) ---------

    /// Classifies where `holder`'s block sits relative to `slave`.
    pub(crate) fn classify(&self, holder: NodeId, slave: NodeId) -> MapLocality {
        if holder == slave {
            MapLocality::NodeLocal
        } else if self.topo.same_rack(holder, slave) {
            MapLocality::RackLocal
        } else {
            MapLocality::Remote
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Heartbeat;
    use ecstore::placement::RackAwarePlacement;

    /// Locality-first over all free slots: the engine tests need *some*
    /// policy; the real ones live in the `scheduler` crate.
    struct Greedy;

    impl MapScheduler for Greedy {
        fn assign_maps(&mut self, hb: &mut Heartbeat<'_>) {
            'outer: while hb.free_map_slots() > 0 {
                for i in 0..hb.jobs().len() {
                    let job = hb.jobs()[i];
                    if hb.take_node_local(job).is_some()
                        || hb.take_rack_local(job).is_some()
                        || hb.take_remote(job).is_some()
                        || hb.take_degraded(job).is_some()
                    {
                        continue 'outer;
                    }
                }
                break;
            }
        }

        fn name(&self) -> &'static str {
            "greedy"
        }
    }

    fn base_engine(failure: FailureScenario, seed: u64, spec: JobSpec) -> Engine {
        let topo = Topology::homogeneous(2, 4, 2, 1);
        Engine::builder(topo)
            .code(CodeParams::new(4, 2).unwrap(), 32)
            .placement(&RackAwarePlacement)
            .failure(failure)
            .seed(seed)
            .job(spec)
            .build()
            .unwrap()
    }

    fn map_only_spec(secs: u64) -> JobSpec {
        JobSpec::builder("t")
            .map_time(SimDuration::from_secs(secs), SimDuration::ZERO)
            .map_only()
            .build()
    }

    #[test]
    fn normal_mode_map_only_runtime() {
        // 32 maps, 8 nodes x 2 slots = 16 slots, 10s maps:
        // two waves of processing ≈ 20s (+ heartbeat staggering).
        let engine = base_engine(FailureScenario::none(), 1, map_only_spec(10));
        let result = engine.run(Box::new(Greedy)).unwrap();
        let job = &result.jobs[0];
        let runtime = job.runtime().as_secs_f64();
        assert!((20.0..28.0).contains(&runtime), "runtime {runtime}");
        assert_eq!(result.tasks.len(), 32);
        assert_eq!(result.map_count(MapLocality::Degraded), 0);
        // Mostly node-local in normal mode under a greedy local-first
        // policy; placement balances total (native+parity) blocks, so a
        // few tasks are stolen rack-locally or remotely.
        assert!(result.map_count(MapLocality::NodeLocal) >= 24);
    }

    #[test]
    fn failure_mode_creates_degraded_tasks() {
        let topo = Topology::homogeneous(2, 4, 2, 1);
        let failed = topo.node(0);
        let engine = base_engine(FailureScenario::nodes([failed]), 2, map_only_spec(10));
        let lost = engine
            .store()
            .lost_native_blocks(engine.cluster_state())
            .len();
        assert!(lost > 0, "seeded placement must put natives on node0");
        let result = engine.run(Box::new(Greedy)).unwrap();
        assert_eq!(result.map_count(MapLocality::Degraded), lost);
        // Degraded reads took nonzero time (k=2 block downloads).
        let reads = result.degraded_read_secs();
        assert_eq!(reads.len(), lost);
        assert!(reads.iter().all(|&t| t > 0.0));
        // No task ran on the failed node.
        assert!(result.tasks.iter().all(|t| t.node != failed));
    }

    #[test]
    fn reduce_phase_completes_with_shuffle() {
        let spec = JobSpec::builder("wr")
            .map_time(SimDuration::from_secs(5), SimDuration::ZERO)
            .reduce_time(SimDuration::from_secs(8), SimDuration::ZERO)
            .reduce_tasks(4)
            .shuffle_ratio(0.01)
            .build();
        let engine = base_engine(FailureScenario::none(), 3, spec);
        let result = engine.run(Box::new(Greedy)).unwrap();
        let reduces: Vec<_> = result
            .tasks
            .iter()
            .filter(|t| matches!(t.detail, TaskDetail::Reduce { .. }))
            .collect();
        assert_eq!(reduces.len(), 4);
        // Reducers finish after every map.
        let last_map = result
            .tasks
            .iter()
            .filter(|t| t.map_locality().is_some())
            .map(|t| t.completed_at)
            .max()
            .unwrap();
        assert!(reduces.iter().all(|r| r.completed_at > last_map));
        // Reduce runtime includes shuffle wait + ~8s processing.
        assert!(reduces.iter().all(|r| r.runtime().as_secs_f64() >= 8.0));
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            base_engine(FailureScenario::nodes([NodeId(1)]), seed, map_only_spec(10))
                .run(Box::new(Greedy))
                .unwrap()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must reproduce exactly");
        let c = run(8);
        assert!(a != c || a.makespan != c.makespan, "seeds should differ");
    }

    #[test]
    fn multi_job_fifo_order() {
        let topo = Topology::homogeneous(2, 4, 2, 1);
        let j0 = JobSpec::builder("first")
            .map_time(SimDuration::from_secs(5), SimDuration::ZERO)
            .map_only()
            .build();
        let j1 = JobSpec::builder("second")
            .map_time(SimDuration::from_secs(5), SimDuration::ZERO)
            .map_only()
            .submit_at(SimTime::from_secs(1))
            .build();
        let engine = Engine::builder(topo)
            .code(CodeParams::new(4, 2).unwrap(), 32)
            .placement(&RackAwarePlacement)
            .seed(5)
            .job(j0)
            .job(j1)
            .build()
            .unwrap();
        let result = engine.run(Box::new(Greedy)).unwrap();
        assert_eq!(result.jobs.len(), 2);
        // FIFO: job0 finishes no later than job1.
        assert!(result.jobs[0].finished_at <= result.jobs[1].finished_at);
        assert_eq!(
            result.tasks.iter().filter(|t| t.job == JobId(0)).count(),
            32
        );
        assert_eq!(
            result.tasks.iter().filter(|t| t.job == JobId(1)).count(),
            32
        );
    }

    #[test]
    fn slot_capacity_respected() {
        let engine = base_engine(FailureScenario::none(), 9, map_only_spec(10));
        let result = engine.run(Box::new(Greedy)).unwrap();
        // Reconstruct concurrent occupancy per node from records.
        for node in 0..8u32 {
            let node = NodeId(node);
            let mut events: Vec<(SimTime, i32)> = Vec::new();
            for t in result.tasks.iter().filter(|t| t.node == node) {
                events.push((t.assigned_at, 1));
                events.push((t.completed_at, -1));
            }
            events.sort();
            let mut occupancy = 0;
            for (_, delta) in events {
                occupancy += delta;
                assert!(occupancy <= 2, "node {node} exceeded its 2 map slots");
            }
        }
    }

    #[test]
    fn build_errors() {
        let topo = Topology::homogeneous(2, 4, 2, 1);
        // No jobs.
        let err = Engine::builder(topo.clone())
            .code(CodeParams::new(4, 2).unwrap(), 32)
            .placement(&RackAwarePlacement)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::NoJobs);
        // Missing code.
        let err = Engine::builder(topo.clone())
            .placement(&RackAwarePlacement)
            .job(map_only_spec(1))
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::Missing("code"));
        // Bad layout (not multiple of k).
        let err = Engine::builder(topo.clone())
            .code(CodeParams::new(4, 2).unwrap(), 31)
            .placement(&RackAwarePlacement)
            .job(map_only_spec(1))
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::Layout(_)));
        // Data loss: fail 6 of 8 nodes. Each node appears in only half
        // of the 16 stripes, so some stripe must keep fewer than k = 2
        // survivors.
        let err = Engine::builder(topo.clone())
            .code(CodeParams::new(4, 2).unwrap(), 32)
            .placement(&RackAwarePlacement)
            .failure(FailureScenario::nodes((0..6).map(|i| topo.node(i))))
            .seed(1)
            .job(map_only_spec(1))
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, BuildError::DataLoss { .. }), "{err:?}");
    }

    #[test]
    fn double_failure_still_runs() {
        // (8,6) tolerates two failures; 4 racks satisfy the placement
        // constraint (4 racks x parity 2 >= n = 8).
        let topo = Topology::homogeneous(4, 3, 2, 1);
        let engine = Engine::builder(topo.clone())
            .code(CodeParams::new(8, 6).unwrap(), 36)
            .placement(&RackAwarePlacement)
            .failure(FailureScenario::nodes([topo.node(0), topo.node(6)]))
            .seed(4)
            .job(map_only_spec(5))
            .build()
            .unwrap();
        let result = engine.run(Box::new(Greedy)).unwrap();
        assert!(result.map_count(MapLocality::Degraded) > 0);
        assert_eq!(result.tasks.len(), 36);
    }
}

#[cfg(test)]
mod feature_tests {
    use super::*;
    use crate::sched::Heartbeat;
    use ecstore::placement::RackAwarePlacement;

    struct Greedy;

    impl MapScheduler for Greedy {
        fn assign_maps(&mut self, hb: &mut Heartbeat<'_>) {
            'outer: while hb.free_map_slots() > 0 {
                for i in 0..hb.jobs().len() {
                    let job = hb.jobs()[i];
                    if hb.take_node_local(job).is_some()
                        || hb.take_rack_local(job).is_some()
                        || hb.take_remote(job).is_some()
                        || hb.take_degraded(job).is_some()
                    {
                        continue 'outer;
                    }
                }
                break;
            }
        }

        fn name(&self) -> &'static str {
            "greedy"
        }
    }

    fn engine_with(config: EngineConfig, seed: u64) -> Engine {
        let topo = Topology::homogeneous(2, 4, 2, 1);
        Engine::builder(topo.clone())
            .code(CodeParams::new(4, 2).unwrap(), 32)
            .placement(&RackAwarePlacement)
            .failure(FailureScenario::nodes([topo.node(0)]))
            .config(config)
            .seed(seed)
            .job(
                JobSpec::builder("t")
                    .map_time(SimDuration::from_secs(10), SimDuration::ZERO)
                    .map_only()
                    .build(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn oob_heartbeats_never_slow_the_job() {
        let base = EngineConfig::default();
        let oob = EngineConfig {
            oob_heartbeats: true,
            ..base
        };
        for seed in 0..3 {
            let slow = engine_with(base, seed).run(Box::new(Greedy)).unwrap();
            let fast = engine_with(oob, seed).run(Box::new(Greedy)).unwrap();
            assert!(
                fast.jobs[0].runtime() <= slow.jobs[0].runtime(),
                "seed {seed}: OOB {} > periodic {}",
                fast.jobs[0].runtime(),
                slow.jobs[0].runtime()
            );
            assert_eq!(fast.tasks.len(), slow.tasks.len());
        }
    }

    #[test]
    fn traced_run_matches_untraced_and_emits_lifecycle() {
        use obs::event::SimEvent;
        use obs::sink::VecSink;

        let plain = engine_with(EngineConfig::default(), 3)
            .run(Box::new(Greedy))
            .unwrap();
        let mut sink = VecSink::new();
        let traced = engine_with(EngineConfig::default(), 3)
            .run_traced(Box::new(Greedy), &mut sink)
            .unwrap();
        assert_eq!(plain, traced, "tracing must not perturb the run");
        assert!(!sink.events.is_empty());
        // Timestamps are globally non-decreasing.
        for pair in sink.events.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
        let count =
            |pred: &dyn Fn(&SimEvent) -> bool| sink.events.iter().filter(|(_, e)| pred(e)).count();
        // One failed node in this fixture, announced at t=0.
        assert_eq!(count(&|e| matches!(e, SimEvent::NodeFailed { .. })), 1);
        assert_eq!(sink.events[0].0, SimTime::ZERO);
        // 32 maps: every launch completes (no speculation configured).
        assert_eq!(count(&|e| matches!(e, SimEvent::MapLaunched { .. })), 32);
        assert_eq!(count(&|e| matches!(e, SimEvent::MapDone { .. })), 32);
        assert_eq!(count(&|e| matches!(e, SimEvent::MapCancelled { .. })), 0);
        assert_eq!(count(&|e| matches!(e, SimEvent::JobSubmitted { .. })), 1);
        assert_eq!(count(&|e| matches!(e, SimEvent::JobStarted { .. })), 1);
        assert_eq!(count(&|e| matches!(e, SimEvent::JobFinished { .. })), 1);
        assert_eq!(count(&|e| matches!(e, SimEvent::TaskQueued { .. })), 32);
        // Degraded tasks fetch over the network and announce their plans.
        let plans = count(&|e| matches!(e, SimEvent::DegradedPlan { .. }));
        assert!(plans > 0, "failure mode must produce degraded plans");
        assert!(count(&|e| matches!(e, SimEvent::FlowStarted { .. })) > 0);
        assert_eq!(
            count(&|e| matches!(e, SimEvent::FlowStarted { .. })),
            count(&|e| matches!(e, SimEvent::FlowFinished { .. })),
        );
        // Every degraded attempt walks fetch_k -> decode -> process, and
        // begins/ends balance exactly.
        assert_eq!(
            count(&|e| matches!(e, SimEvent::PhaseBegin { .. })),
            count(&|e| matches!(e, SimEvent::PhaseEnd { .. })),
        );
        assert_eq!(
            count(&|e| matches!(
                e,
                SimEvent::PhaseBegin {
                    phase: obs::event::DegradedPhase::FetchK,
                    ..
                }
            )),
            plans
        );
    }

    #[test]
    fn utilization_log_present_only_when_enabled() {
        let off = engine_with(EngineConfig::default(), 1)
            .run(Box::new(Greedy))
            .unwrap();
        assert!(off.utilization.is_empty());

        let on = engine_with(
            EngineConfig {
                log_network_utilization: true,
                ..EngineConfig::default()
            },
            1,
        )
        .run(Box::new(Greedy))
        .unwrap();
        assert!(!on.utilization.is_empty());
        // Samples tile the run without gaps or overlap.
        for pair in on.utilization.windows(2) {
            assert!(pair[0].until <= pair[1].since);
        }
        // Some window saw degraded-read traffic cross a rack downlink.
        assert!(on.utilization.iter().any(|s| s.rack_down_bits > 0.0));
        // Runs are otherwise identical.
        assert_eq!(off.jobs, on.jobs);
        assert_eq!(off.tasks, on.tasks);
    }
}

#[cfg(test)]
mod speculation_tests {
    use super::*;
    use crate::metrics::TaskDetail;
    use crate::sched::Heartbeat;
    use ecstore::placement::RackAwarePlacement;

    struct Greedy;

    impl MapScheduler for Greedy {
        fn assign_maps(&mut self, hb: &mut Heartbeat<'_>) {
            'outer: while hb.free_map_slots() > 0 {
                for i in 0..hb.jobs().len() {
                    let job = hb.jobs()[i];
                    if hb.take_node_local(job).is_some()
                        || hb.take_rack_local(job).is_some()
                        || hb.take_remote(job).is_some()
                        || hb.take_degraded(job).is_some()
                    {
                        continue 'outer;
                    }
                }
                break;
            }
        }

        fn name(&self) -> &'static str {
            "greedy"
        }
    }

    /// A heterogeneous cluster where one node is 10x slower: the classic
    /// straggler setup. Half of the blocks land on fast nodes.
    fn straggler_engine(speculative: bool, seed: u64) -> Engine {
        let topo = Topology::homogeneous(2, 4, 2, 1).with_speed_factor(NodeId(3), 0.1);
        Engine::builder(topo)
            .code(CodeParams::new(4, 2).unwrap(), 32)
            .placement(&RackAwarePlacement)
            .config(EngineConfig {
                speculative,
                ..EngineConfig::default()
            })
            .seed(seed)
            .job(
                JobSpec::builder("straggle")
                    .map_time(SimDuration::from_secs(10), SimDuration::ZERO)
                    .map_only()
                    .build(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn speculation_off_is_the_default_and_changes_nothing() {
        // A run with the flag explicitly off must equal the default.
        let a = straggler_engine(false, 1).run(Box::new(Greedy)).unwrap();
        let b = straggler_engine(false, 1).run(Box::new(Greedy)).unwrap();
        assert_eq!(a, b);
        assert!(!EngineConfig::default().speculative);
    }

    #[test]
    fn speculation_cuts_straggler_tail() {
        for seed in 0..3 {
            let plain = straggler_engine(false, seed).run(Box::new(Greedy)).unwrap();
            let spec = straggler_engine(true, seed).run(Box::new(Greedy)).unwrap();
            // Every block still processed exactly once (one record per map).
            assert_eq!(spec.tasks.len(), plain.tasks.len());
            let mut blocks: Vec<_> = spec
                .tasks
                .iter()
                .filter_map(|t| match t.detail {
                    TaskDetail::Map { block, .. } => Some(block),
                    TaskDetail::Reduce { .. } => None,
                })
                .collect();
            blocks.sort();
            blocks.dedup();
            assert_eq!(blocks.len(), 32, "seed {seed}: a map recorded twice");
            // The job ends no later (backups only help), and with a 10x
            // straggler it should end strictly earlier.
            assert!(
                spec.jobs[0].runtime() <= plain.jobs[0].runtime(),
                "seed {seed}: speculation slowed the job"
            );
        }
        // At least one seed shows a strict improvement.
        let improved = (0..3).any(|seed| {
            let plain = straggler_engine(false, seed).run(Box::new(Greedy)).unwrap();
            let spec = straggler_engine(true, seed).run(Box::new(Greedy)).unwrap();
            spec.jobs[0].runtime() < plain.jobs[0].runtime()
        });
        assert!(improved, "speculation never rescued the straggler");
    }

    #[test]
    fn speculation_respects_slot_capacity() {
        let result = straggler_engine(true, 2).run(Box::new(Greedy)).unwrap();
        // Winner records only; occupancy cannot be reconstructed from
        // records alone under speculation (loser attempts are invisible),
        // but every recorded completion must be on a live node with sane
        // ordering.
        for t in &result.tasks {
            assert!(t.assigned_at <= t.input_ready_at);
            assert!(t.input_ready_at <= t.completed_at);
        }
    }

    #[test]
    fn speculation_is_deterministic() {
        let a = straggler_engine(true, 7).run(Box::new(Greedy)).unwrap();
        let b = straggler_engine(true, 7).run(Box::new(Greedy)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn speculation_works_in_failure_mode() {
        let topo = Topology::homogeneous(2, 4, 2, 1).with_speed_factor(NodeId(3), 0.1);
        let engine = Engine::builder(topo.clone())
            .code(CodeParams::new(4, 2).unwrap(), 32)
            .placement(&RackAwarePlacement)
            .failure(FailureScenario::nodes([topo.node(0)]))
            .config(EngineConfig {
                speculative: true,
                ..EngineConfig::default()
            })
            .seed(5)
            .job(
                JobSpec::builder("sf")
                    .map_time(SimDuration::from_secs(10), SimDuration::ZERO)
                    .map_only()
                    .build(),
            )
            .build()
            .unwrap();
        let result = engine.run(Box::new(Greedy)).unwrap();
        assert_eq!(result.tasks.len(), 32);
        assert!(result.map_count(MapLocality::Degraded) > 0);
        assert!(result.tasks.iter().all(|t| t.node != topo.node(0)));
    }

    /// Straggler cluster on a 10 Mbps network: a backup's remote input
    /// fetch (128 MB ≈ 107 s) outlasts even the 10x-slow primary, so the
    /// primary wins and the loser dies mid-fetch with flows in flight.
    fn slow_net_engine(seed: u64) -> Engine {
        let topo = Topology::homogeneous(2, 4, 2, 1).with_speed_factor(NodeId(3), 0.1);
        Engine::builder(topo)
            .code(CodeParams::new(4, 2).unwrap(), 32)
            .placement(&RackAwarePlacement)
            .config(EngineConfig {
                speculative: true,
                net: netsim::NetConfig::uniform(10_000_000),
                ..EngineConfig::default()
            })
            .seed(seed)
            .job(
                JobSpec::builder("loser")
                    .map_time(SimDuration::from_secs(10), SimDuration::ZERO)
                    .map_only()
                    .build(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn losing_attempt_flows_are_cancelled() {
        use obs::event::SimEvent;
        use obs::sink::VecSink;

        let plain = slow_net_engine(11).run(Box::new(Greedy)).unwrap();
        let mut sink = VecSink::new();
        let traced = slow_net_engine(11)
            .run_traced(Box::new(Greedy), &mut sink)
            .unwrap();
        assert_eq!(plain, traced, "tracing must not perturb the run");
        let count =
            |pred: &dyn Fn(&SimEvent) -> bool| sink.events.iter().filter(|(_, e)| pred(e)).count();
        // At least one backup lost the race mid-fetch...
        let cancelled_maps = count(&|e| matches!(e, SimEvent::MapCancelled { .. }));
        assert!(cancelled_maps > 0, "fixture must produce a losing attempt");
        // ...and its in-flight netsim flows were torn down.
        let cancelled_flows = count(&|e| {
            matches!(
                e,
                SimEvent::FlowFinished {
                    cancelled: true,
                    ..
                }
            )
        });
        assert!(
            cancelled_flows > 0,
            "loser died mid-fetch; flows must cancel"
        );
        // Flow lifecycles still balance: every start has exactly one end.
        assert_eq!(
            count(&|e| matches!(e, SimEvent::FlowStarted { .. })),
            count(&|e| matches!(e, SimEvent::FlowFinished { .. })),
        );
        // Only winners are recorded: each block processed exactly once.
        let mut blocks: Vec<_> = traced
            .tasks
            .iter()
            .filter_map(|t| match t.detail {
                TaskDetail::Map { block, .. } => Some(block),
                TaskDetail::Reduce { .. } => None,
            })
            .collect();
        blocks.sort();
        blocks.dedup();
        assert_eq!(blocks.len(), 32, "a map recorded twice or dropped");
        assert_eq!(traced.tasks.len(), 32);
    }

    #[test]
    fn losing_attempt_golden() {
        // Fixed-seed golden: pins the loser-cancellation path end to end.
        // A behaviour change here is a determinism break — investigate
        // before updating the constant.
        let result = slow_net_engine(11).run(Box::new(Greedy)).unwrap();
        assert_eq!(result.makespan.as_micros(), 470_238_397);
    }
}

#[cfg(test)]
mod churn_tests {
    use super::*;
    use crate::sched::Heartbeat;
    use ecstore::placement::RackAwarePlacement;

    struct Greedy;

    impl MapScheduler for Greedy {
        fn assign_maps(&mut self, hb: &mut Heartbeat<'_>) {
            'outer: while hb.free_map_slots() > 0 {
                for i in 0..hb.jobs().len() {
                    let job = hb.jobs()[i];
                    if hb.take_node_local(job).is_some()
                        || hb.take_rack_local(job).is_some()
                        || hb.take_remote(job).is_some()
                        || hb.take_degraded(job).is_some()
                    {
                        continue 'outer;
                    }
                }
                break;
            }
        }

        fn name(&self) -> &'static str {
            "greedy"
        }
    }

    fn map_only_spec(secs: u64) -> JobSpec {
        JobSpec::builder("t")
            .map_time(SimDuration::from_secs(secs), SimDuration::ZERO)
            .map_only()
            .build()
    }

    fn builder(topo: &Topology) -> EngineBuilder<'static> {
        Engine::builder(topo.clone())
            .code(CodeParams::new(4, 2).unwrap(), 32)
            .placement(&RackAwarePlacement)
    }

    #[test]
    fn timeline_at_zero_equals_scenario() {
        // The t=0 fold: a timeline that fails node0 at time zero must
        // reproduce the scenario path bit-for-bit.
        let topo = Topology::homogeneous(2, 4, 2, 1);
        let via_scenario = builder(&topo)
            .failure(FailureScenario::nodes([topo.node(0)]))
            .seed(2)
            .job(map_only_spec(10))
            .build()
            .unwrap()
            .run(Box::new(Greedy))
            .unwrap();
        let via_timeline = builder(&topo)
            .timeline(FailureTimeline::new().fail_node_at(topo.node(0), SimTime::ZERO))
            .seed(2)
            .job(map_only_spec(10))
            .build()
            .unwrap()
            .run(Box::new(Greedy))
            .unwrap();
        assert_eq!(via_scenario, via_timeline);
    }

    #[test]
    fn zero_time_fail_recover_pair_is_a_no_op() {
        let topo = Topology::homogeneous(2, 4, 2, 1);
        let plain = builder(&topo)
            .seed(3)
            .job(map_only_spec(10))
            .build()
            .unwrap()
            .run(Box::new(Greedy))
            .unwrap();
        let churned = builder(&topo)
            .timeline(
                FailureTimeline::new()
                    .fail_node_at(topo.node(2), SimTime::ZERO)
                    .recover_node_at(topo.node(2), SimTime::ZERO),
            )
            .seed(3)
            .job(map_only_spec(10))
            .build()
            .unwrap()
            .run(Box::new(Greedy))
            .unwrap();
        assert_eq!(plain, churned);
    }

    #[test]
    fn mid_run_failure_requeues_lost_work() {
        // 32 maps of 10 s on 16 slots: two waves, ~20-28 s total. Failing
        // node0 at 12 s kills its second-wave attempts; the work must
        // re-run elsewhere, degraded where node0 held the input block.
        let topo = Topology::homogeneous(2, 4, 2, 1);
        let fail_at = SimTime::from_secs(12);
        let result = builder(&topo)
            .timeline(FailureTimeline::new().fail_node_at(topo.node(0), fail_at))
            .seed(2)
            .job(map_only_spec(10))
            .build()
            .unwrap()
            .run(Box::new(Greedy))
            .unwrap();
        // Every block still processed exactly once.
        assert_eq!(result.tasks.len(), 32);
        let mut blocks: Vec<_> = result
            .tasks
            .iter()
            .filter_map(|t| match t.detail {
                TaskDetail::Map { block, .. } => Some(block),
                TaskDetail::Reduce { .. } => None,
            })
            .collect();
        blocks.sort();
        blocks.dedup();
        assert_eq!(blocks.len(), 32);
        // Survivors picked up node0's blocks as degraded reads.
        assert!(result.map_count(MapLocality::Degraded) > 0);
        // Nothing completed on node0 after it died.
        assert!(result
            .tasks
            .iter()
            .all(|t| t.node != topo.node(0) || t.completed_at <= fail_at));
        // The failure stretched the run past the normal-mode two waves.
        assert!(result.makespan.as_secs_f64() > 20.0);
    }

    #[test]
    fn mid_run_failure_is_deterministic() {
        let topo = Topology::homogeneous(2, 4, 2, 1);
        let run = || {
            builder(&topo)
                .timeline(FailureTimeline::new().fail_node_at(topo.node(0), SimTime::from_secs(12)))
                .seed(6)
                .job(map_only_spec(10))
                .build()
                .unwrap()
                .run(Box::new(Greedy))
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn recovery_restores_node_to_service() {
        // Fail node0 early, bring it back mid-run of a long job (30 s
        // maps: the second wave starts right around the recovery): the
        // node must rejoin the heartbeat rotation and take tasks again.
        let topo = Topology::homogeneous(2, 4, 2, 1);
        let recover_at = SimTime::from_secs(30);
        let spec = JobSpec::builder("long")
            .map_time(SimDuration::from_secs(30), SimDuration::ZERO)
            .map_only()
            .build();
        let result = builder(&topo)
            .timeline(
                FailureTimeline::new()
                    .fail_node_at(topo.node(0), SimTime::from_secs(5))
                    .recover_node_at(topo.node(0), recover_at),
            )
            .seed(2)
            .job(spec)
            .build()
            .unwrap()
            .run(Box::new(Greedy))
            .unwrap();
        assert_eq!(result.tasks.len(), 32);
        assert!(
            result
                .tasks
                .iter()
                .any(|t| t.node == topo.node(0) && t.assigned_at >= recover_at),
            "recovered node never ran a task"
        );
    }

    #[test]
    fn reduce_attempts_requeue_on_failure() {
        // Long reducers guarantee some are mid-shuffle or mid-process
        // when a node dies at 40 s; they must finish elsewhere.
        let topo = Topology::homogeneous(2, 4, 2, 1);
        let spec = JobSpec::builder("wr")
            .map_time(SimDuration::from_secs(10), SimDuration::ZERO)
            .reduce_time(SimDuration::from_secs(30), SimDuration::ZERO)
            .reduce_tasks(8)
            .shuffle_ratio(0.05)
            .build();
        let fail_at = SimTime::from_secs(40);
        let result = builder(&topo)
            .timeline(FailureTimeline::new().fail_node_at(topo.node(1), fail_at))
            .seed(4)
            .job(spec)
            .build()
            .unwrap()
            .run(Box::new(Greedy))
            .unwrap();
        let reduces: Vec<_> = result
            .tasks
            .iter()
            .filter(|t| matches!(t.detail, TaskDetail::Reduce { .. }))
            .collect();
        assert_eq!(reduces.len(), 8);
        // No reduce completed on the dead node after the failure.
        assert!(reduces
            .iter()
            .all(|t| t.node != topo.node(1) || t.completed_at <= fail_at));
    }

    #[test]
    fn mid_run_data_loss_is_fatal() {
        // (4,2) tolerates two losses per stripe; killing six of eight
        // nodes mid-run must strand some stripe below k survivors.
        let topo = Topology::homogeneous(2, 4, 2, 1);
        let mut timeline = FailureTimeline::new();
        for i in 0..6 {
            timeline = timeline.fail_node_at(topo.node(i), SimTime::from_secs(5));
        }
        let err = builder(&topo)
            .timeline(timeline)
            .seed(1)
            .job(map_only_spec(100))
            .build()
            .unwrap()
            .run(Box::new(Greedy))
            .unwrap_err();
        match err {
            RunError::DataLoss { at, .. } => assert_eq!(at, SimTime::from_secs(5)),
            other => panic!("expected DataLoss, got {other:?}"),
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let topo = Topology::homogeneous(2, 4, 2, 1);
        let cases = [
            EngineConfig {
                reduce_slowstart: f64::NAN,
                ..EngineConfig::default()
            },
            EngineConfig {
                reduce_slowstart: -0.5,
                ..EngineConfig::default()
            },
            EngineConfig {
                speculative_threshold: 0.5,
                ..EngineConfig::default()
            },
            EngineConfig {
                heartbeat_period: SimDuration::ZERO,
                ..EngineConfig::default()
            },
            EngineConfig {
                degraded_fetch_blocks: Some(0),
                ..EngineConfig::default()
            },
        ];
        for config in cases {
            let err = builder(&topo)
                .config(config)
                .job(map_only_spec(10))
                .build()
                .map(|_| ())
                .unwrap_err();
            assert!(matches!(err, BuildError::Config(_)), "{config:?}: {err:?}");
        }
    }

    #[test]
    fn invalid_job_spec_is_rejected_at_build() {
        let topo = Topology::homogeneous(2, 4, 2, 1);
        let mut spec = map_only_spec(10);
        spec.shuffle_ratio = 2.0; // out of [0, 1], and map-only
        let err = builder(&topo).job(spec).build().map(|_| ()).unwrap_err();
        assert!(matches!(err, BuildError::Config(_)), "{err:?}");
        assert_eq!(
            err.to_string(),
            "invalid engine config: job 0 (\"t\"): \
             shuffle_ratio must be a finite fraction in [0, 1], got 2"
        );
    }

    #[test]
    fn out_of_range_failures_are_rejected() {
        let topo = Topology::homogeneous(2, 4, 2, 1); // nodes 0..8
        let err = builder(&topo)
            .failure(FailureScenario::nodes([NodeId(99)]))
            .job(map_only_spec(10))
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, BuildError::Failure(_)), "{err:?}");
        assert!(err.to_string().contains("node99"), "{err}");
        let err = builder(&topo)
            .timeline(FailureTimeline::new().fail_node_at(NodeId(8), SimTime::from_secs(1)))
            .job(map_only_spec(10))
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, BuildError::Failure(_)), "{err:?}");
    }

    #[test]
    fn churn_trace_has_balanced_lifecycle() {
        use obs::event::SimEvent;
        use obs::sink::VecSink;

        let topo = Topology::homogeneous(2, 4, 2, 1);
        let mut sink = VecSink::new();
        // Fail at 15 s: the second wave (launched off the ~12.4 s beats)
        // is mid-flight, so node0 has running attempts to kill.
        let engine = builder(&topo)
            .timeline(
                FailureTimeline::new()
                    .fail_node_at(topo.node(0), SimTime::from_secs(15))
                    .recover_node_at(topo.node(0), SimTime::from_secs(30)),
            )
            .seed(2)
            .job(map_only_spec(10))
            .build()
            .unwrap();
        let result = engine.run_traced(Box::new(Greedy), &mut sink).unwrap();
        assert_eq!(result.tasks.len(), 32);
        for pair in sink.events.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "timestamps went backwards");
        }
        let count =
            |pred: &dyn Fn(&SimEvent) -> bool| sink.events.iter().filter(|(_, e)| pred(e)).count();
        assert_eq!(count(&|e| matches!(e, SimEvent::NodeFailed { .. })), 1);
        assert_eq!(count(&|e| matches!(e, SimEvent::NodeRecovered { .. })), 1);
        // Killed attempts announce themselves and their work re-queues:
        // more TaskQueued than tasks, and every kill is visible.
        assert!(count(&|e| matches!(e, SimEvent::MapCancelled { .. })) > 0);
        assert!(count(&|e| matches!(e, SimEvent::TaskQueued { .. })) > 32);
        // Launches balance completions plus cancellations.
        assert_eq!(
            count(&|e| matches!(e, SimEvent::MapLaunched { .. })),
            count(&|e| matches!(e, SimEvent::MapDone { .. }))
                + count(&|e| matches!(e, SimEvent::MapCancelled { .. })),
        );
        // Degraded phases still balance under churn.
        assert_eq!(
            count(&|e| matches!(e, SimEvent::PhaseBegin { .. })),
            count(&|e| matches!(e, SimEvent::PhaseEnd { .. })),
        );
        // Flow lifecycles balance; the kill cancelled at least one flow
        // only if one was in flight — but every start must still end.
        assert_eq!(
            count(&|e| matches!(e, SimEvent::FlowStarted { .. })),
            count(&|e| matches!(e, SimEvent::FlowFinished { .. })),
        );
    }
}
