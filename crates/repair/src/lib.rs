//! `repair` — node-failure recovery for erasure-coded block stores.
//!
//! Degraded reads (the paper's subject) serve *reads* while a node is
//! down; eventually the cluster must *repair* — re-create every lost
//! block on surviving nodes so the stripe regains full redundancy. This
//! crate plans and simulates that process:
//!
//! * [`RepairPlan::plan`] chooses, for every lost block (native and
//!   parity), a replacement node and the `k` surviving source blocks its
//!   reconstruction downloads — the conventional repair that moves `k`
//!   blocks per lost block (the paper's footnote 1 baseline);
//! * [`simulate`] executes the plan on the [`netsim`] fluid network with
//!   bounded parallelism (as HDFS throttles concurrent reconstructions)
//!   and reports makespan and traffic.
//!
//! # Example
//!
//! ```
//! use cluster::{ClusterState, FailureScenario, Topology};
//! use ecstore::{placement::RackAwarePlacement, BlockStore, StripeLayout};
//! use erasure::CodeParams;
//! use netsim::NetConfig;
//! use repair::{simulate, RepairPlan};
//! use simkit::SimRng;
//!
//! let topo = Topology::homogeneous(2, 3, 2, 1);
//! let layout = StripeLayout::new(CodeParams::new(4, 2).unwrap(), 12).unwrap();
//! let mut rng = SimRng::seed_from_u64(1);
//! let store = BlockStore::place(&topo, layout, &RackAwarePlacement, &mut rng).unwrap();
//! let state = ClusterState::from_scenario(&topo, &FailureScenario::nodes([topo.node(0)]));
//!
//! let plan = RepairPlan::plan(&store, &topo, &state, &mut rng).unwrap();
//! let report = simulate(&plan, &topo, NetConfig::gigabit(), 64 * 1024 * 1024, 4);
//! assert!(report.makespan.as_secs_f64() > 0.0);
//! ```

use std::collections::{BTreeMap, BTreeSet};

use cluster::{ClusterState, NodeId, Topology};
use ecstore::{BlockRef, BlockStore};
use netsim::{FlowLogKind, NetConfig, Network};
use obs::event::{LinkSet, SimEvent};
use obs::sink::{EventSink, Recorder};
use simkit::time::{SimDuration, SimTime};
use simkit::SimRng;

/// Errors from repair planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairError {
    /// A stripe lost more blocks than the code tolerates.
    Unrecoverable {
        /// The unrecoverable stripe index.
        stripe: usize,
    },
    /// No live node can host a replacement without colliding with the
    /// stripe's surviving blocks.
    NoReplacementNode {
        /// The block that could not be re-homed.
        block: BlockRef,
    },
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::Unrecoverable { stripe } => {
                write!(f, "stripe {stripe} is unrecoverable")
            }
            RepairError::NoReplacementNode { block } => {
                write!(f, "no live node can host the replacement of {block}")
            }
        }
    }
}

impl std::error::Error for RepairError {}

/// One block reconstruction: rebuild `block` on `replacement` from the
/// `k` surviving `(source block, holder)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairTask {
    /// The lost block being re-created.
    pub block: BlockRef,
    /// The live node that will host the rebuilt block.
    pub replacement: NodeId,
    /// Source blocks to download (`k` of them; ones already on the
    /// replacement node cost no network transfer).
    pub sources: Vec<(BlockRef, NodeId)>,
}

impl RepairTask {
    /// Sources that require a network transfer.
    pub fn network_sources(&self) -> impl Iterator<Item = (BlockRef, NodeId)> + '_ {
        let replacement = self.replacement;
        self.sources
            .iter()
            .copied()
            .filter(move |&(_, holder)| holder != replacement)
    }
}

/// A full-node repair plan: one task per lost block, ordered by stripe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairPlan {
    /// The reconstructions to perform.
    pub tasks: Vec<RepairTask>,
}

impl RepairPlan {
    /// Plans the repair of every lost block (native *and* parity) under
    /// the cluster state. Replacement nodes are the least-loaded live
    /// nodes not already holding a block of the same stripe (random
    /// tie-break); sources prefer the replacement's own blocks, then its
    /// rack, then remote survivors.
    ///
    /// # Errors
    ///
    /// Returns [`RepairError::Unrecoverable`] if any stripe lost more
    /// than `n − k` blocks, or [`RepairError::NoReplacementNode`] if the
    /// cluster has too few live nodes to host a stripe's replacement.
    pub fn plan(
        store: &BlockStore,
        topo: &Topology,
        state: &ClusterState,
        rng: &mut SimRng,
    ) -> Result<RepairPlan, RepairError> {
        let layout = store.layout();
        let k = layout.params().k();
        // Extra blocks assigned to each node during this plan, so load
        // spreads across replacements.
        let mut extra_load: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut tasks = Vec::new();
        for s in 0..layout.num_stripes() {
            let stripe = ecstore::StripeId(s as u32);
            let lost: Vec<BlockRef> = layout
                .stripe_blocks(stripe)
                .filter(|&b| !state.is_alive(store.node_of(b)))
                .collect();
            if lost.is_empty() {
                continue;
            }
            let survivors: Vec<(BlockRef, NodeId)> = store
                .survivors_of(stripe, state)
                .into_iter()
                .map(|(pos, node)| (BlockRef { stripe, pos }, node))
                .collect();
            if survivors.len() < k {
                return Err(RepairError::Unrecoverable { stripe: s });
            }
            // Nodes already carrying a block of this stripe (surviving
            // or re-homed earlier in this loop).
            let mut occupied: BTreeSet<NodeId> = survivors.iter().map(|&(_, n)| n).collect();
            for block in lost {
                let mut candidates: Vec<NodeId> = state
                    .alive_nodes()
                    .into_iter()
                    .filter(|n| !occupied.contains(n))
                    .collect();
                if candidates.is_empty() {
                    return Err(RepairError::NoReplacementNode { block });
                }
                rng.shuffle(&mut candidates);
                candidates.sort_by_key(|n| {
                    store.natives_on(*n).len() + extra_load.get(n).copied().unwrap_or(0)
                });
                let replacement = candidates[0];
                occupied.insert(replacement);
                *extra_load.entry(replacement).or_default() += 1;

                // Local-first source selection relative to the
                // replacement node.
                let rep_rack = topo.rack_of(replacement);
                let mut ordered = survivors.clone();
                rng.shuffle(&mut ordered);
                ordered.sort_by_key(|&(_, holder)| {
                    if holder == replacement {
                        0
                    } else if topo.rack_of(holder) == rep_rack {
                        1
                    } else {
                        2
                    }
                });
                ordered.truncate(k);
                tasks.push(RepairTask {
                    block,
                    replacement,
                    sources: ordered,
                });
            }
        }
        Ok(RepairPlan { tasks })
    }

    /// Total blocks that must cross the network.
    pub fn network_block_count(&self) -> usize {
        self.tasks.iter().map(|t| t.network_sources().count()).sum()
    }

    /// Network blocks whose transfer crosses racks.
    pub fn cross_rack_block_count(&self, topo: &Topology) -> usize {
        self.tasks
            .iter()
            .map(|t| {
                let rack = topo.rack_of(t.replacement);
                t.network_sources()
                    .filter(|&(_, holder)| topo.rack_of(holder) != rack)
                    .count()
            })
            .sum()
    }
}

/// Outcome of simulating a repair plan.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairReport {
    /// Wall-clock of the whole repair.
    pub makespan: SimDuration,
    /// Bytes moved over the network.
    pub bytes_transferred: u64,
    /// Per-task completion durations, in plan order.
    pub task_durations: Vec<SimDuration>,
}

/// Converts one netsim flow-log entry into the trace vocabulary.
fn flow_log_event(entry: &netsim::FlowLogEntry) -> SimEvent {
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

/// Forwards any buffered flow-log entries of `net` into `rec`.
fn drain_flow_log(net: &mut Network<usize>, rec: &mut Recorder<'_>) {
    net.drain_flow_log(|entry| rec.emit(entry.at, || flow_log_event(&entry)));
}

/// Executes a plan on the fluid network: at most `parallelism` block
/// reconstructions in flight; each task opens its network-source flows
/// in parallel and completes when the last one lands.
///
/// # Panics
///
/// Panics if `parallelism` is zero.
pub fn simulate(
    plan: &RepairPlan,
    topo: &Topology,
    net_config: NetConfig,
    block_bytes: u64,
    parallelism: usize,
) -> RepairReport {
    simulate_inner(
        plan,
        topo,
        net_config,
        block_bytes,
        parallelism,
        &mut Recorder::off(),
    )
}

/// Like [`simulate`], but streams [`SimEvent`]s of the repair — node
/// failure/recovery bracketing, per-task start/finish, and every network
/// flow — into `sink`. `state` names the failed nodes; they are announced
/// as failed at time zero and recovered when the repair completes. The
/// returned report is identical to an untraced [`simulate`] run.
///
/// # Panics
///
/// Panics if `parallelism` is zero.
pub fn simulate_traced(
    plan: &RepairPlan,
    topo: &Topology,
    state: &ClusterState,
    net_config: NetConfig,
    block_bytes: u64,
    parallelism: usize,
    sink: &mut dyn EventSink,
) -> RepairReport {
    let mut rec = Recorder::on(sink);
    for node in topo.node_ids() {
        if !state.is_alive(node) {
            rec.emit(SimTime::ZERO, || SimEvent::NodeFailed { node: node.0 });
        }
    }
    let report = simulate_inner(plan, topo, net_config, block_bytes, parallelism, &mut rec);
    let end = SimTime::ZERO + report.makespan;
    for node in topo.node_ids() {
        if !state.is_alive(node) {
            rec.emit(end, || SimEvent::NodeRecovered { node: node.0 });
        }
    }
    report
}

fn simulate_inner(
    plan: &RepairPlan,
    topo: &Topology,
    net_config: NetConfig,
    block_bytes: u64,
    parallelism: usize,
    rec: &mut Recorder<'_>,
) -> RepairReport {
    assert!(parallelism > 0, "repair needs parallelism >= 1");
    // Each flow is tagged with the index of its repair task.
    let mut net: Network<usize> = Network::tagged(&topo.rack_sizes(), net_config);
    if rec.is_enabled() {
        net.enable_flow_log();
    }
    let mut now = SimTime::ZERO;
    let mut next_task = 0usize;
    // Flows still to land per task, and the tasks with some in flight.
    let mut pending = vec![0usize; plan.tasks.len()];
    let mut inflight = 0usize;
    let mut landed: Vec<usize> = Vec::new();
    let mut durations = vec![SimDuration::ZERO; plan.tasks.len()];
    let mut started_at = vec![SimTime::ZERO; plan.tasks.len()];
    let mut bytes = 0u64;

    // Starts tasks while the window has room. A task with no network
    // source finishes as it starts.
    let fill_window = |now: SimTime,
                       next_task: &mut usize,
                       net: &mut Network<usize>,
                       pending: &mut [usize],
                       inflight: &mut usize,
                       bytes: &mut u64,
                       started_at: &mut [SimTime],
                       rec: &mut Recorder<'_>| {
        while *next_task < plan.tasks.len() && *inflight < parallelism {
            let idx = *next_task;
            *next_task += 1;
            let task = &plan.tasks[idx];
            started_at[idx] = now;
            rec.emit(now, || SimEvent::RepairStarted {
                task: idx as u32,
                stripe: task.block.stripe.0,
                pos: task.block.pos as u32,
                replacement: task.replacement.0,
            });
            let fetches = task
                .network_sources()
                .map(|(_, holder)| (holder.index(), task.replacement.index(), block_bytes, idx));
            pending[idx] = net.start_tagged(now, fetches).len();
            *bytes += block_bytes * pending[idx] as u64;
            if pending[idx] == 0 {
                rec.emit(now, || SimEvent::RepairFinished { task: idx as u32 });
            } else {
                *inflight += 1;
            }
        }
    };

    fill_window(
        now,
        &mut next_task,
        &mut net,
        &mut pending,
        &mut inflight,
        &mut bytes,
        &mut started_at,
        rec,
    );
    drain_flow_log(&mut net, rec);
    // Drain the network, refilling the window as tasks finish.
    while inflight > 0 {
        now = net
            .next_completion()
            .expect("in-flight repair with no pending completion");
        // Repair never cancels a flow, so every drained flow counts.
        net.drain_tagged(now, |_, _, idx| landed.push(idx));
        for idx in landed.drain(..) {
            pending[idx] -= 1;
            if pending[idx] == 0 {
                inflight -= 1;
                durations[idx] = now.duration_since(started_at[idx]);
                rec.emit(now, || SimEvent::RepairFinished { task: idx as u32 });
                fill_window(
                    now,
                    &mut next_task,
                    &mut net,
                    &mut pending,
                    &mut inflight,
                    &mut bytes,
                    &mut started_at,
                    rec,
                );
            }
        }
        drain_flow_log(&mut net, rec);
    }
    debug_assert_eq!(next_task, plan.tasks.len());
    RepairReport {
        makespan: now.duration_since(SimTime::ZERO),
        bytes_transferred: bytes,
        task_durations: durations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::FailureScenario;
    use ecstore::placement::RackAwarePlacement;
    use ecstore::StripeLayout;
    use erasure::CodeParams;

    fn setup(failed: &[u32]) -> (Topology, BlockStore, ClusterState, SimRng) {
        let topo = Topology::homogeneous(3, 4, 2, 1);
        let layout = StripeLayout::new(CodeParams::new(6, 4).unwrap(), 120).unwrap();
        let mut rng = SimRng::seed_from_u64(17);
        let store = BlockStore::place(&topo, layout, &RackAwarePlacement, &mut rng).unwrap();
        let state = ClusterState::from_scenario(
            &topo,
            &FailureScenario::nodes(failed.iter().map(|&i| NodeId(i))),
        );
        (topo, store, state, rng)
    }

    #[test]
    fn plan_covers_every_lost_block() {
        let (topo, store, state, mut rng) = setup(&[0]);
        let plan = RepairPlan::plan(&store, &topo, &state, &mut rng).unwrap();
        // Count lost blocks (native and parity) on node 0.
        let lost = store
            .layout()
            .blocks()
            .filter(|&b| store.node_of(b) == NodeId(0))
            .count();
        assert_eq!(plan.tasks.len(), lost);
        assert!(lost > 0);
        for task in &plan.tasks {
            assert!(state.is_alive(task.replacement));
            assert_eq!(task.sources.len(), 4, "k sources");
            for (src, holder) in &task.sources {
                assert!(state.is_alive(*holder));
                assert_eq!(src.stripe, task.block.stripe);
                assert_ne!(*src, task.block);
            }
        }
    }

    #[test]
    fn replacements_keep_stripe_blocks_distinct() {
        let (topo, store, state, mut rng) = setup(&[0, 5]);
        let plan = RepairPlan::plan(&store, &topo, &state, &mut rng).unwrap();
        // Post-repair holder sets per stripe must be distinct.
        let mut holders: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
        for s in 0..store.layout().num_stripes() {
            let stripe = ecstore::StripeId(s as u32);
            for (_, node) in store.survivors_of(stripe, &state) {
                holders.entry(s as u32).or_default().push(node);
            }
        }
        for task in &plan.tasks {
            holders
                .entry(task.block.stripe.0)
                .or_default()
                .push(task.replacement);
        }
        for (stripe, mut nodes) in holders {
            let n = nodes.len();
            nodes.sort();
            nodes.dedup();
            assert_eq!(
                nodes.len(),
                n,
                "stripe {stripe} re-uses a node after repair"
            );
        }
    }

    #[test]
    fn unrecoverable_stripes_are_reported() {
        // Fail enough nodes that some (6,4) stripe keeps < 4 survivors.
        let (topo, store, state, mut rng) = setup(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let err = RepairPlan::plan(&store, &topo, &state, &mut rng).unwrap_err();
        assert!(matches!(err, RepairError::Unrecoverable { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn simulation_moves_k_blocks_per_loss() {
        let (topo, store, state, mut rng) = setup(&[0]);
        let plan = RepairPlan::plan(&store, &topo, &state, &mut rng).unwrap();
        let block_bytes = 64 * 1024 * 1024u64;
        let report = simulate(&plan, &topo, NetConfig::gigabit(), block_bytes, 4);
        assert_eq!(
            report.bytes_transferred,
            plan.network_block_count() as u64 * block_bytes
        );
        // Conventional repair moves ~k blocks per lost block.
        assert!(plan.network_block_count() <= plan.tasks.len() * 4);
        assert!(plan.network_block_count() >= plan.tasks.len() * 3);
        assert_eq!(report.task_durations.len(), plan.tasks.len());
        assert!(report.makespan > SimDuration::ZERO);
    }

    #[test]
    fn more_parallelism_is_not_slower_much() {
        let (topo, store, state, mut rng) = setup(&[0]);
        let plan = RepairPlan::plan(&store, &topo, &state, &mut rng).unwrap();
        let bb = 64 * 1024 * 1024u64;
        let serial = simulate(&plan, &topo, NetConfig::gigabit(), bb, 1);
        let wide = simulate(&plan, &topo, NetConfig::gigabit(), bb, 8);
        assert!(
            wide.makespan <= serial.makespan,
            "parallel repair slower: {} vs {}",
            wide.makespan,
            serial.makespan
        );
    }

    #[test]
    fn plan_is_deterministic_per_seed() {
        let (topo, store, state, _) = setup(&[0]);
        let a = RepairPlan::plan(&store, &topo, &state, &mut SimRng::seed_from_u64(3)).unwrap();
        let b = RepairPlan::plan(&store, &topo, &state, &mut SimRng::seed_from_u64(3)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cross_rack_accounting_is_bounded() {
        let (topo, store, state, mut rng) = setup(&[0]);
        let plan = RepairPlan::plan(&store, &topo, &state, &mut rng).unwrap();
        assert!(plan.cross_rack_block_count(&topo) <= plan.network_block_count());
    }

    #[test]
    fn traced_simulation_matches_untraced() {
        use obs::sink::VecSink;

        let (topo, store, state, mut rng) = setup(&[0]);
        let plan = RepairPlan::plan(&store, &topo, &state, &mut rng).unwrap();
        let bb = 64 * 1024 * 1024u64;
        let plain = simulate(&plan, &topo, NetConfig::gigabit(), bb, 4);
        let mut sink = VecSink::new();
        let traced = simulate_traced(&plan, &topo, &state, NetConfig::gigabit(), bb, 4, &mut sink);
        assert_eq!(plain, traced, "tracing must not perturb the simulation");

        let count =
            |pred: &dyn Fn(&SimEvent) -> bool| sink.events.iter().filter(|(_, e)| pred(e)).count();
        // One failed node, bracketed by failure at t=0 and recovery at
        // the makespan.
        assert_eq!(count(&|e| matches!(e, SimEvent::NodeFailed { .. })), 1);
        assert_eq!(count(&|e| matches!(e, SimEvent::NodeRecovered { .. })), 1);
        assert_eq!(sink.events[0].0, SimTime::ZERO);
        let (last_at, last) = sink.events.last().unwrap();
        assert!(matches!(last, SimEvent::NodeRecovered { .. }));
        assert_eq!(*last_at, SimTime::ZERO + plain.makespan);
        // Every repair task starts and finishes exactly once.
        assert_eq!(
            count(&|e| matches!(e, SimEvent::RepairStarted { .. })),
            plan.tasks.len()
        );
        assert_eq!(
            count(&|e| matches!(e, SimEvent::RepairFinished { .. })),
            plan.tasks.len()
        );
        // One flow per network source; all complete, none cancelled.
        assert_eq!(
            count(&|e| matches!(e, SimEvent::FlowStarted { .. })),
            plan.network_block_count()
        );
        assert_eq!(
            count(&|e| matches!(
                e,
                SimEvent::FlowFinished {
                    cancelled: false,
                    ..
                }
            )),
            plan.network_block_count()
        );
        // Timestamps are globally non-decreasing.
        for pair in sink.events.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
    }
}
